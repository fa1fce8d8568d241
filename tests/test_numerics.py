from fractions import Fraction

import numpy as np
import pytest

from dualframes import numerics as nm
from dualframes.errors import FieldMismatch, ShapeMismatch

from conftest import EX_SPECTRAL, frac_matrix, random_rational_matrix


class TestSVD:
    def test_spectral_example_singular_values(self):
        fac = nm.svd(EX_SPECTRAL)
        np.testing.assert_allclose(fac.sigma, [3.0, 0.5], atol=1e-12)

    def test_identity(self):
        fac = nm.svd(np.eye(3))
        np.testing.assert_allclose(fac.sigma, [1, 1, 1])
        # U and V agree up to sign
        np.testing.assert_allclose(np.abs(fac.u), np.eye(3), atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 7))
        fac = nm.svd(a)
        resid = np.linalg.norm(fac.reconstruct() - a) / np.linalg.norm(a)
        assert resid <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_batch(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 51, size=2)
        a = rng.uniform(-10, 10, size=(n, m))
        fac = nm.svd(a)
        k = min(n, m)
        assert fac.u.shape == (n, k) and fac.v.shape == (m, k)
        assert all(
            fac.sigma[i] >= fac.sigma[i + 1] for i in range(len(fac.sigma) - 1)
        )
        assert np.linalg.norm(fac.u.conj().T @ fac.u - np.eye(k)) <= 1e-10 * n
        assert np.linalg.norm(fac.v.conj().T @ fac.v - np.eye(k)) <= 1e-10 * m
        # the implicit completion makes [V1 | V2] unitary
        full = np.hstack([fac.v, fac.complement(np.eye(m - k))])
        assert np.linalg.norm(full @ full.conj().T - np.eye(m)) <= 1e-10 * m
        assert (
            np.linalg.norm(fac.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)
        )

    def test_complement_rejects_wrong_block(self):
        fac = nm.svd(np.random.default_rng(0).standard_normal((2, 5)))
        with pytest.raises(ShapeMismatch):
            fac.complement(np.eye(2))

    def test_rational_input_converted(self):
        fac = nm.svd(frac_matrix([[1, 0], [0, 2]]))
        np.testing.assert_allclose(fac.sigma, [2.0, 1.0])


class TestRank:
    def test_rational_exact(self):
        assert nm.rank_tol(frac_matrix([[1, -1, 0], [1, 2, -1]])) == 2

    def test_zero(self):
        assert nm.rank_tol(np.zeros((3, 3))) == 0

    def test_explicit_tolerance_collapses_near_dependency(self):
        # second row differs from 2x the first by 1e-8, so sigma_min is
        # about 2e-9: above the default threshold 1e-10 ||a||_F (5e-10),
        # below an explicit 1e-8
        a = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-8]])
        assert nm.rank_tol(a) == 2
        assert nm.rank_tol(a, tol=1e-8) == 1

    def test_exact_vs_float_on_random_integer_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, m = rng.integers(1, 9, size=2)
            a = rng.integers(-5, 6, size=(n, m))
            exact = nm.rank_tol(frac_matrix(a.tolist()))
            floating = nm.rank_tol(a.astype(float))
            assert exact == floating

    def test_stack_matches_each_matrix(self):
        # a (k, r, s) stack applies the per-matrix threshold to every slice
        rng = np.random.default_rng(3)
        stack = rng.integers(-2, 3, size=(40, 3, 4)).astype(float)
        stack[5] = 0.0
        stack[6, 2] = 2 * stack[6, 0] + 1e-14
        ranks = nm.rank_tol(stack)
        assert ranks.shape == (40,)
        assert ranks.tolist() == [nm.rank_tol(x) for x in stack]
        assert nm.rank_tol(stack, tol=1e-12).tolist() == [
            nm.rank_tol(x, tol=1e-12) for x in stack
        ]

    def test_stack_rational_and_empty(self):
        stack = np.array(
            [frac_matrix([[1, 2], [2, 4]]), frac_matrix([[1, 0], [0, 3]])]
        )
        assert nm.rank_tol(stack).tolist() == [1, 2]
        assert nm.rank_tol(np.zeros((3, 0, 2))).tolist() == [0, 0, 0]


class TestRankThreshold:
    WIDE = np.array([[1, 0, 1, 0.5], [0, 2, 1, -0.5]])

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    @pytest.mark.parametrize("field", [float, complex])
    def test_scales_with_the_matrix(self, scale, field):
        # the squares of entries near 1e160 overflow and those near 1e-160
        # underflow; the threshold still scales with the matrix
        a = self.WIDE.astype(field) * (1 + 1j if field is complex else 1)
        tau = nm.rank_threshold(a * scale)
        assert np.isfinite(tau) and tau > 0
        assert tau == pytest.approx(nm.rank_threshold(a) * scale, rel=1e-12)
        assert nm.rank_tol(a * scale, tau) == 2

    def test_same_bits_as_the_plain_norm(self):
        # scaling by a power of two is exact, so wherever the plain norm
        # is finite the threshold is the same double
        rng = np.random.default_rng(8)
        for k in range(600):
            a = rng.standard_normal((3, 5)) * 10.0 ** rng.uniform(-100, 100)
            if k % 2:
                a = a + 1j * rng.standard_normal((3, 5)) * abs(a).max()
            assert nm.rank_threshold(a) == nm.RANK_RTOL * np.linalg.norm(
                a, axis=(-2, -1))
        stack = rng.standard_normal((6, 2, 3)) * np.logspace(-90, 90, 6)[
            :, None, None]
        assert nm.rank_threshold(stack).tolist() == (
            nm.RANK_RTOL * np.linalg.norm(stack, axis=(-2, -1))).tolist()

    def test_zero_and_rational(self):
        assert nm.rank_threshold(np.zeros((2, 3))) == 0
        assert nm.rank_threshold(frac_matrix([[1, 2]])) is None


class TestBareiss:
    def test_integer_rows_keep_column_relations(self):
        a = frac_matrix([[Fraction(1, 2), Fraction(1, 3), 0], [2, 4, Fraction(-5, 6)]])
        assert nm.integer_rows(a) == [[3, 2, 0], [12, 24, -5]]

    def test_matches_fraction_elimination(self):
        # rank of A_S and e_j in span(A_S) against exact solves
        rng = np.random.default_rng(11)
        for _ in range(150):
            n, m = (int(x) for x in rng.integers(1, 5, size=2))
            a = rng.integers(-2, 3, size=(n, m)).tolist()
            for s in range(m + 1):
                cols = tuple(sorted(rng.choice(m, size=s, replace=False).tolist()))
                block = frac_matrix([[row[c] for c in cols] for row in a])
                rank, in_span = nm.bareiss_span(a, cols)
                assert rank == (nm.rank_tol(block) if s else 0)
                for j in range(n):
                    e_j = [Fraction(int(i == j)) for i in range(n)]
                    solvable = (
                        nm.solve_exact(block, e_j) is not None if s else False
                    )
                    assert in_span[j] == solvable


class TestNullspace:
    def test_exact_row(self):
        a = frac_matrix([[1, 2, -1]])
        basis = nm.nullspace_basis(a)
        assert basis.shape == (3, 2)
        assert np.all(a @ basis == 0)

    def test_full_rank_square(self):
        assert nm.nullspace_basis(frac_matrix([[1, 0], [0, 1]])).shape[1] == 0

    def test_two_sparse_vector(self):
        basis = nm.nullspace_basis(frac_matrix([[1, -1, 0]]))
        # some basis column is supported on the first two coordinates
        cols = [tuple(i for i in range(3) if basis[i, k] != 0)
                for k in range(basis.shape[1])]
        assert (0, 1) in cols

    def test_dimension_plus_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = rng.integers(1, 7, size=2)
            a = rng.integers(-4, 5, size=(n, m))
            exact = frac_matrix(a.tolist())
            assert (
                nm.nullspace_basis(exact).shape[1] + nm.rank_tol(exact) == m
            )
            assert (
                nm.nullspace_basis(a.astype(float)).shape[1]
                + nm.rank_tol(a.astype(float))
                == m
            )


    def test_rational_basis_is_annihilated(self):
        # A N = 0 exactly, with one basis column per free column
        rng = np.random.default_rng(8)
        for _ in range(60):
            n, m = (int(x) for x in rng.integers(1, 7, size=2))
            a = random_rational_matrix(rng, n, m, rank=int(rng.integers(1, 4)))
            basis = nm.nullspace_basis(a)
            assert basis.shape == (m, m - nm.rank_tol(a))
            assert np.all(a @ basis == 0)


class TestSolveExact:
    def test_rational_solution_satisfies_system(self):
        # A x = b exactly for consistent p/q systems, vector and matrix rhs
        rng = np.random.default_rng(9)
        for _ in range(60):
            n, m = (int(x) for x in rng.integers(1, 7, size=2))
            a = random_rational_matrix(rng, n, m, rank=int(rng.integers(1, 4)))
            b = a @ random_rational_matrix(rng, m, 3)
            assert np.all(a @ nm.solve_exact(a, b) == b)
            assert np.all(a @ nm.solve_exact(a, b[:, 0]) == b[:, 0])

    def test_overdetermined_consistent(self):
        x = nm.solve_exact(frac_matrix([[1], [1]]), frac_matrix([[1], [1]])[:, 0])
        assert x[0] == 1

    def test_square_system(self):
        a = frac_matrix([[1, -1], [1, 2]])
        b = np.array([Fraction(1), Fraction(0)], dtype=object)
        x = nm.solve_exact(a, b)
        assert list(x) == [Fraction(2, 3), Fraction(-1, 3)]

    def test_inconsistent(self):
        a = frac_matrix([[1, 0], [1, 0]])
        b = np.array([Fraction(1), Fraction(2)], dtype=object)
        assert nm.solve_exact(a, b) is None

    def test_rejects_floats(self):
        with pytest.raises(FieldMismatch):
            nm.solve_exact(np.array([[1.0]], dtype=object), [1.0])
        with pytest.raises(FieldMismatch):
            nm.solve_exact(frac_matrix([[1]]), np.array([0.5], dtype=object))
