import re
from fractions import Fraction

import numpy as np
import pytest

from dualframes.errors import (
    BoundInfeasible,
    IndexOutOfRange,
    RankDeficient,
    ShapeMismatch,
)
from dualframes.frames import (
    Frame,
    canonical_dual,
    dual_set_dimension,
    duality_residual,
    frame_bounds,
    frame_operator,
    is_dual,
    row_delete,
)

from conftest import EX_SPARSE, frac_matrix, parametrization, random_integer_frame


class TestFrame:
    def test_basic_properties(self, ex_sparse):
        assert (ex_sparse.n, ex_sparse.m) == (2, 3)
        assert ex_sparse.field == "rational"
        assert ex_sparse.is_exact

    def test_rejects_rank_deficient(self):
        with pytest.raises(RankDeficient):
            Frame([[1.0, 2.0], [2.0, 4.0]])

    def test_rejects_tall(self):
        with pytest.raises(RankDeficient):
            Frame([[1.0], [0.0]])

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeMismatch):
            Frame([1.0, 2.0])

    def test_matrix_is_read_only(self, ex_sparse):
        with pytest.raises(ValueError):
            ex_sparse.matrix[0, 0] = 0

    def test_input_not_aliased(self):
        src = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        f = Frame(src)
        src[0, 0] = 7.0
        assert f.matrix[0, 0] == 1.0

    def test_as_float(self, ex_sparse):
        a = ex_sparse.as_float()
        assert a.dtype == float
        np.testing.assert_array_equal(a, np.array(EX_SPARSE, dtype=float))


def test_row_delete(ex_sparse):
    np.testing.assert_array_equal(
        row_delete(ex_sparse, 0), frac_matrix([[1, 2, -1]])
    )
    with pytest.raises(IndexOutOfRange):
        row_delete(ex_sparse, 2)


def test_frame_operator_exact(ex_sparse):
    s = frame_operator(ex_sparse)
    assert s.tolist() == [
        [Fraction(2), Fraction(-1)],
        [Fraction(-1), Fraction(6)],
    ]


def test_frame_bounds_spectral(ex_spectral):
    b = frame_bounds(ex_spectral)
    assert abs(b.lower - 0.25) <= 1e-12
    assert abs(b.upper - 9.0) <= 1e-12


@pytest.mark.parametrize("sigma, name", [
    ((3e160, 5e159), "sigma_1^2"),
    ((3e155, 5e152), "sigma_1^2"),
    ((3e-150, 5e-155), "1/sigma_2^2"),
    ((3e-170, 5e-171), "1/sigma_2^2"),
])
def test_frame_bounds_without_finite_square(sigma, name):
    # x^2 overflows for x above about 1.3e154
    with pytest.raises(BoundInfeasible, match=re.escape(name)):
        frame_bounds(Frame(np.diag(sigma)))


class TestCanonicalDual:
    def test_exact_value(self, ex_sparse):
        psi = canonical_dual(ex_sparse)
        expected = [
            [Fraction(7, 11), Fraction(-4, 11), Fraction(-1, 11)],
            [Fraction(3, 11), Fraction(3, 11), Fraction(-2, 11)],
        ]
        assert psi.matrix.tolist() == expected
        ok, resid = is_dual(ex_sparse, psi, 1e-10)
        assert ok and resid == 0

    def test_float_path(self, ex_spectral):
        psi = canonical_dual(ex_spectral)
        ok, resid = is_dual(ex_spectral, psi, 1e-10)
        assert ok
        assert resid <= 1e-12

    @staticmethod
    def _conditioned(cond, seed):
        """Seeded 5x12 frame with singular values from 1 down to 1/cond."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        return Frame(u @ np.diag(np.geomspace(1.0, 1.0 / cond, 5)) @ v.T)

    @pytest.mark.parametrize("seed", range(3))
    def test_ill_conditioned_1e4(self, seed):
        f = self._conditioned(1e4, seed)
        ok, resid = is_dual(f, canonical_dual(f), 1e-10)
        assert ok, resid

    @pytest.mark.parametrize("seed", range(3))
    def test_ill_conditioned_1e6(self, seed):
        f = self._conditioned(1e6, seed)
        assert duality_residual(f, canonical_dual(f)) <= 1e-9

    def test_random_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_integer_frame(rng, 3, 5)
            psi = canonical_dual(f)
            assert is_dual(f, psi)[1] == 0


class TestDualParametrization:
    def test_zero_block_is_canonical(self, ex_spectral):
        par = parametrization(ex_spectral)
        psi = par.realize()
        canon = canonical_dual(ex_spectral)
        np.testing.assert_allclose(psi.matrix, canon.matrix, atol=1e-12)

    def test_every_block_gives_a_dual(self, ex_spectral):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.uniform(-4, 4, size=(2, 1))
            psi = parametrization(ex_spectral, s).realize()
            ok, resid = is_dual(ex_spectral, psi, 1e-9)
            assert ok, resid

    def test_block_shape_checked(self, ex_spectral):
        with pytest.raises(ShapeMismatch):
            parametrization(ex_spectral, np.zeros((2, 2)))


def test_dual_set_dimension(ex_sparse):
    assert dual_set_dimension(ex_sparse) == 2
    assert dual_set_dimension(Frame(np.eye(3))) == 0
