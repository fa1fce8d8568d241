"""The exact kernel (rank, nullspace, solve) against sympy, an independent
exact linear algebra, on seeded rational matrices of every shape class."""

from fractions import Fraction

import numpy as np
import pytest

from dualframes import numerics as nm

from conftest import random_rational_matrix

sympy = pytest.importorskip("sympy")

SHAPES = (
    [(1, k) for k in range(1, 6)]
    + [(k, 1) for k in range(2, 6)]
    + [(2, 7), (3, 5), (4, 4), (5, 3), (7, 2), (6, 6)]
)


def _cases():
    """Per shape: plain p/q entries, a zero row, a zero column, rank one
    less than full (or one), and the zero matrix."""
    rng = np.random.default_rng(20)
    for n, m in SHAPES:
        for _ in range(3):
            yield random_rational_matrix(rng, n, m)
        a = random_rational_matrix(rng, n, m)
        a[rng.integers(n), :] = Fraction(0)
        yield a
        a = random_rational_matrix(rng, n, m)
        a[:, rng.integers(m)] = Fraction(0)
        yield a
        yield random_rational_matrix(rng, n, m, rank=max(min(n, m) - 1, 1))
        yield random_rational_matrix(rng, n, m) * 0


CASES = list(_cases())


def to_sympy(a):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a]
    )


def from_sympy(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def test_rank():
    for a in CASES:
        assert nm.rank_exact(a) == to_sympy(a).rank()


def test_nullspace_column_for_column():
    for a in CASES:
        basis = nm.nullspace_exact(a)
        expected = to_sympy(a).nullspace()
        assert basis.shape == (a.shape[1], len(expected))
        for k, v in enumerate(expected):
            assert list(basis[:, k]) == [from_sympy(x) for x in v]
            assert all(type(x) is Fraction for x in basis[:, k])


def _sympy_solve(a, b):
    """gauss_jordan_solve with its free parameters set to zero, or None
    when the system is inconsistent."""
    try:
        sol, params = to_sympy(a).gauss_jordan_solve(to_sympy(b))
    except ValueError:
        return None
    return sol.xreplace({p: 0 for p in params})


def test_solve_matches_gauss_jordan():
    rng = np.random.default_rng(21)
    outcomes = set()
    for a in CASES:
        n, m = a.shape
        for b in (
            random_rational_matrix(rng, n, 2),
            a @ random_rational_matrix(rng, m, 2),
        ):
            # a matrix right-hand side, and its first column as a vector
            for rhs, x in ((b, nm.solve_exact(a, b)),
                           (b[:, :1], nm.solve_exact(a, b[:, 0]))):
                expected = _sympy_solve(a, rhs)
                assert (x is None) == (expected is None)
                outcomes.add(x is None)
                if x is not None:
                    assert x.reshape(m, -1).tolist() == [
                        [from_sympy(v) for v in row] for row in expected.tolist()
                    ]
    assert outcomes == {True, False}
