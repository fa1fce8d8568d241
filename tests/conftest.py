from fractions import Fraction

import numpy as np
import pytest

from dualframes import numerics, sparsity
from dualframes.frames import DualParametrization, Frame
from dualframes.numerics import is_rational

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


# Frames 2, 9, 19, 104, 178, 213 and 227 of test_sparsity's
# _reference_frames(240) under its earlier filter, when each subset matrix
# was judged by its own max(r, s) * eps * sigma_max: near-duplicate and
# near-zero columns that rule took as independent, with sparsest or
# enumerated "duals" of residual up to 3e-2.  Under Frame's threshold 9 and
# 227 are no frames.
NEAR_DEPENDENT_FRAMES = {
    2: [
        [-1.1077170351272676, 1.4844055856837017, 0.048912403069534136, 0.0, 1.4844055856837224],
        [-0.43637073584081926, -1.2910916333479945, -0.7756786842437912, 0.0, -1.2910916333480027],
        [-0.5340928297145819, 0.16378857220098098, -0.6684703049155165, 0.0, 0.1637885722009959],
    ],
    9: [
        [0j, (0.11425397649853589+1j), (1.210776310930014e-15+0j)],
        [0j, (-0.147432308720016-1j), (-7.56311939348484e-15+0j)],
    ],
    19: [
        [(0.057860448632924645-1j), (0.05786044863288172-1j), (-0.5582605571795469-1j), (-0.1860523364637715+0j)],
        [(0.09348711993231221+0j), (0.09348711993224959+0j), (-0.3167348687027157+0j), (-0.39429478278715274-1j)],
    ],
    104: [
        [(0.9632773721596504+0j), (0.6321114509186755+0j), (1.210576552595013+1j), (0.9632773721596536+0j)],
        [(0.732712698034002-1j), (-1.702372981375065+1j), (-0.6159410818513085+0j), (0.732712698033999-1j)],
        [(1.5103799075643154+1j), (0.6605367855224956-1j), (0.012508319860878402+1j), (1.5103799075643145+1j)],
    ],
    178: [
        [2.0, 2.0, 1.9999999999999827],
        [-2.0, -1.0, -1.000000000000002],
    ],
    213: [
        [2.0, -7.839208359088962e-15, 0.0],
        [-2.0, 1.0000000000000033, 1.0],
    ],
    227: [
        [-0.6547516742154148, 0.5723679492823083, 2.2102990527976955e-14, 0.0],
        [-1.3323282063438917, 1.4200233863374034, 1.1068321131833515e-13, 0.0],
        [-1.198714914546216, 1.6738595693692049, -6.142961649098871e-14, 0.0],
    ],
}
NO_FRAME = {9, 227}


def seeded_frames(seed=41):
    """One seeded 2-row frame per field and path: integer and p/q (exact),
    real and complex (floating), each with more than five sparsest duals
    at seed 41."""
    rng = np.random.default_rng(seed)
    return {
        "integer": random_integer_frame(rng, 2, 5),
        "rational": Frame(
            np.array(random_rational_matrix(rng, 2, 5), dtype=object)
        ),
        "real": Frame(rng.standard_normal((2, 5))),
        "complex": Frame(
            rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        ),
    }


def nnz(mat, tol=0.0):
    """Number of nonzero entries; exact test on rational matrices."""
    m = mat.matrix if isinstance(mat, Frame) else np.asarray(mat)
    if is_rational(m):
        return int(sum(1 for x in m.flat if x != 0))
    return int(np.sum(np.abs(m) > tol))


def parametrization(frame, s_block=None):
    """The dual set of a frame or matrix, from its thin SVD, at ``s_block``."""
    return DualParametrization(
        svd=numerics.svd(frame.as_float() if isinstance(frame, Frame) else frame),
        s_block=s_block)


def rows_off_by(delta):
    """A stand-in for ``sparsity._row_vector`` whose dual rows are off by
    ``delta`` in their first support entry."""
    original = sparsity._row_vector

    def row_vector(frame, cols, lam, a):
        row = original(frame, cols, lam, a)
        row[cols[0]] += delta
        return row
    return row_vector
