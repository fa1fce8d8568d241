"""Property-based invariants: canonical duals are exact duals, SVD
factorizations reconstruct, sparsest duals are genuine duals, and dual
spectra respect the interlacing bounds."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualframes.frames import Frame, canonical_dual, is_dual
from dualframes.numerics import singular_values, svd
from dualframes.sparsity import sparsest_dual
from dualframes.spectral import lambda_region

from conftest import nnz, parametrization


def _shapes():
    return st.tuples(st.integers(1, 4), st.integers(0, 3)).map(
        lambda t: (t[0], t[0] + t[1])
    )


@st.composite
def exact_frames(draw):
    n, m = draw(_shapes())
    rows = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    mat = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
    if np.linalg.matrix_rank(np.array(rows, dtype=float)) < n:
        return None
    return Frame(mat)


@st.composite
def float_frames(draw):
    n, m = draw(_shapes())
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, m))
    # Gaussian samples are full rank almost surely; re-draw via seed bump
    while np.linalg.matrix_rank(mat) < n:
        mat = rng.standard_normal((n, m))
    return Frame(mat)


@settings(max_examples=60, deadline=None)
@given(exact_frames())
def test_canonical_dual_is_exactly_dual(frame):
    if frame is None:
        return
    assert is_dual(frame, canonical_dual(frame))[1] == 0


@settings(max_examples=60, deadline=None)
@given(float_frames())
def test_svd_reconstructs(frame):
    fac = svd(frame.matrix)
    scale = max(np.linalg.norm(frame.matrix), 1.0)
    assert np.linalg.norm(fac.reconstruct() - frame.matrix) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(exact_frames())
def test_sparsest_dual_is_dual_and_certified(frame):
    if frame is None or frame.n > 3 or frame.m > 5:
        return
    psi, cert = sparsest_dual(frame)
    assert is_dual(frame, psi)[1] == 0
    assert nnz(psi) == cert.total_sparsity <= frame.n ** 2


@settings(max_examples=40, deadline=None)
@given(
    float_frames(),
    st.lists(st.floats(-4, 4), min_size=12, max_size=12),
)
def test_dual_spectrum_interlaces(frame, raw):
    n, r = frame.n, frame.m - frame.n
    s_block = np.array(raw[: n * r]).reshape(n, r) if r else np.zeros((n, 0))
    dual = parametrization(frame, s_block).realize()
    spec = singular_values(dual.matrix) ** 2  # non-increasing
    region = lambda_region(frame)
    for i, (lo, hi) in enumerate(region):
        assert spec[i] >= lo - 1e-6 * max(lo, 1.0)
        if hi != float("inf"):
            assert spec[i] <= hi + 1e-6 * max(hi, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 7),
    st.booleans(),
    st.integers(0, 2 ** 31),
)
def test_realized_dual_spectrum(n, r, complex_entries, seed):
    # r runs past n, so the block S can have more columns than rows
    rng = np.random.default_rng(seed)
    m = n + r

    def draw(rows, cols):
        x = rng.standard_normal((rows, cols))
        return x + 1j * rng.standard_normal((rows, cols)) if complex_entries else x

    frame = Frame(draw(n, m))
    s_block = draw(n, r)
    par = parametrization(frame, s_block)
    got = singular_values(par.realize().matrix)
    gram = np.diag(par.svd.sigma ** -2.0) + s_block @ s_block.conj().T
    want = np.sqrt(np.linalg.eigvalsh(gram))[::-1]
    np.testing.assert_allclose(got, want, rtol=1e-9)
