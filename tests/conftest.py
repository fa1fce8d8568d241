from fractions import Fraction

import numpy as np
import pytest

from dualframes.frames import Frame

# The 2x3 frame of the sparsest-dual worked example.
EX_SPARSE = [[1, -1, 0], [1, 2, -1]]

# The 2x3 frame of the spectral worked example, with singular values
# exactly (3, 1/2): built from U = (1/5)[[3,-4],[4,3]], v1 = e1,
# v2 = (0, 3/5, 4/5).
EX_SPECTRAL = np.array([[90, -12, -16], [120, 9, 12]]) / 50


@pytest.fixture
def ex_sparse():
    return Frame.exact(EX_SPARSE)


@pytest.fixture
def ex_spectral():
    return Frame(EX_SPECTRAL)


def random_integer_frame(rng, n, m, lo=-3, hi=3):
    """Full-rank integer frame on the exact path."""
    while True:
        mat = rng.integers(lo, hi + 1, size=(n, m))
        if np.linalg.matrix_rank(mat) == n:
            return Frame.exact(mat.tolist())


def frac_matrix(rows):
    return np.array(
        [[Fraction(x) for x in row] for row in rows], dtype=object
    )


def random_rational_matrix(rng, n, m, rank=None):
    """n-by-m object matrix of p/q entries (|p| <= 6, 1 <= q <= 4, about a
    third of them zero); with ``rank``, the product of an n-by-rank and a
    rank-by-m such matrix, so its rank is at most ``rank``."""
    if rank is not None:
        return random_rational_matrix(rng, n, rank) @ random_rational_matrix(
            rng, rank, m
        )
    p = rng.integers(-6, 7, size=(n, m)) * (rng.random((n, m)) > 1 / 3)
    q = rng.integers(1, 5, size=(n, m))
    return np.array(
        [[Fraction(int(a), int(b)) for a, b in zip(pr, qr)] for pr, qr in zip(p, q)],
        dtype=object,
    )
