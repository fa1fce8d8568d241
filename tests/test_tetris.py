import itertools
from fractions import Fraction

import numpy as np
import pytest

from dualframes.errors import InvalidSpectrum
from dualframes.frames import frame_operator, is_dual
from dualframes.tetris import (
    tetris_frame,
    tetris_plan,
    tetris_sparse_dual,
    tetris_sparsity,
)

from conftest import nnz


def basis_row_count(frame_matrix):
    """Number of rows hosting a standard basis column in a realized frame;
    independent cross-check of k_hat."""
    mat = np.asarray(frame_matrix)
    hosts = set()
    for c in range(mat.shape[1]):
        col = mat[:, c]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if len(nz) == 1 and abs(col[nz[0]] - 1.0) < 1e-12:
            hosts.add(int(nz[0]))
    return len(hosts)


class TestPlan:
    def test_worked_example(self):
        # lambda = (2.5, 2.5, 2): splits after rows 2 and 3
        plan = tetris_plan([2.5, 2.5, 2])
        assert (plan.n, plan.m) == (3, 7)
        assert plan.k_list == [0, 2, 3]
        assert plan.mu == 2
        assert sorted(plan.I) == [1]
        assert sorted(plan.J) == []
        assert plan.k_hat == 3
        assert plan.m_counts == [2, 1, 2]
        assert plan.residuals == [Fraction(1, 2), Fraction(0), Fraction(0)]

    def test_repeated_seven_thirds(self):
        plan = tetris_plan([Fraction(7, 3)] * 3)
        assert plan.k_list == [0, 3]
        assert plan.mu == 1
        assert plan.k_hat == 2
        assert tetris_sparsity(plan) == 4

    def test_uniform_integer(self):
        # all-integer eigenvalues split after every row: basis vectors
        # everywhere, sparsity n
        plan = tetris_plan([2, 3, 2])
        assert plan.k_hat == 3
        assert tetris_sparsity(plan) == 3

    def test_rejects_small_eigenvalue(self):
        with pytest.raises(InvalidSpectrum):
            tetris_plan([1.5, 2.5])

    def test_rejects_non_integral_sum(self):
        with pytest.raises(InvalidSpectrum):
            tetris_plan([2.5, 2.25])

    def test_rejects_empty(self):
        with pytest.raises(InvalidSpectrum):
            tetris_plan([])

    def test_rejects_irrational(self):
        with pytest.raises(InvalidSpectrum):
            tetris_plan([2 + np.sqrt(2) * 1e-5, 2])


class TestFrame:
    def test_worked_example_matrix(self):
        mat = tetris_frame(tetris_plan([2.5, 2.5, 2])).matrix
        # r_1 = 1/2, so a_1 = sqrt(1/4), b_1 = sqrt(3/4)
        a = np.sqrt(0.25)
        b = np.sqrt(0.75)
        expected = np.array([
            [1, 1, a, a, 0, 0, 0],
            [0, 0, b, -b, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 1],
        ])
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_unit_columns_and_operator(self):
        for lams in ([2.5, 2.5, 2], [Fraction(7, 3)] * 3, [3, 2.25, 2.75]):
            plan = tetris_plan(lams)
            mat = tetris_frame(plan).matrix
            np.testing.assert_allclose(
                np.sum(np.abs(mat) ** 2, axis=0), 1.0, atol=1e-12
            )
            np.testing.assert_allclose(
                frame_operator(mat),
                np.diag([float(x) for x in plan.lambdas]),
                atol=1e-12,
            )

    def test_columns_at_most_2_sparse(self):
        plan = tetris_plan([2.75, 2.5, 2.25, 2.5])
        mat = tetris_frame(plan).matrix
        assert np.max(np.sum(np.abs(mat) > 0, axis=0)) <= 2

    def test_k_hat_matches_realized_frame(self):
        grid = [2, 2.25, 2.5, 2.75, 3]
        for n in (1, 2, 3):
            for lams in itertools.product(grid, repeat=n):
                if (sum(Fraction(x).limit_denominator(8) for x in lams)
                        .denominator != 1):
                    continue
                plan = tetris_plan(lams)
                mat = tetris_frame(plan).matrix
                assert plan.k_hat == basis_row_count(mat), lams

    def test_every_row_has_ones_or_a_block(self):
        # tetris_sparse_dual builds each row on a ones-column or on its own
        # block, and its docstring proves that one of them is always there:
        # every plan with lambda_j = p/d, d <= 6, 2 <= lambda_j <= 4, n <= 4
        values = sorted({Fraction(p, d) for d in range(1, 7)
                         for p in range(2 * d, 4 * d + 1)})
        by_frac = {}
        for v in values:
            by_frac.setdefault(v % 1, []).append(v)
        plans = 0
        for n in range(1, 5):
            for head in itertools.product(values, repeat=n - 1):
                for last in by_frac.get(-sum(head) % 1, []):
                    plan = tetris_plan([*head, last])
                    assert all(row.ones or row.block is not None
                               for row in plan.layout), plan.lambdas
                    plans += 1
        assert plans == 13944


class TestSparseDual:
    @pytest.mark.parametrize(
        "lams",
        [
            [2.5, 2.5, 2],
            [Fraction(7, 3)] * 3,
            [2, 3, 2],
            [2.25, 2.75, 3, 2],
            [3.5, 2.5],
        ],
    )
    def test_duality_and_sparsity(self, lams):
        plan = tetris_plan(lams)
        frame = tetris_frame(plan)
        dual = tetris_sparse_dual(plan)
        ok, resid = is_dual(frame, dual, 1e-12)
        assert ok, resid
        assert nnz(dual, tol=1e-14) == tetris_sparsity(plan)

    def test_rows_are_at_most_2_sparse(self):
        plan = tetris_plan([2.5, 2.5, 2.5, 2.5])
        dual = tetris_sparse_dual(plan)
        assert np.max(np.sum(np.abs(dual.matrix) > 0, axis=1)) <= 2
