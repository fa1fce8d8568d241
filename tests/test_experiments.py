import numpy as np
import pytest

from dualframes import experiments
from dualframes.errors import (
    BadShape,
    DuplicateNode,
    ZeroWindow,
)
from dualframes.experiments import (
    gabor_frame,
    genericity_trial,
    partial_dft_frame,
    sample_gaussian_frame,
    surface_2x3,
    vandermonde_frame,
)
from dualframes.frames import Frame, frame_operator
from dualframes.numerics import singular_values
from dualframes.sparsity import in_P, sparsity_bounds
from dualframes.spectral import dual_eigs_2x3


class TestVandermonde:
    def test_full_sparsity(self):
        f = vandermonde_frame([1, 2, 3, 4, 5], [1, 2, 3])
        assert (f.n, f.m) == (3, 5)
        assert in_P(f)
        assert sparsity_bounds(f)[1] == 9

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateNode):
            vandermonde_frame([1, 1, 2], [1, 2])
        with pytest.raises(DuplicateNode):
            vandermonde_frame([-1, 2, 3], [1, 2])


class TestPartialDFT:
    def test_tight_and_generic(self):
        f = partial_dft_frame(2, 5)
        np.testing.assert_allclose(
            frame_operator(f.matrix), np.eye(2), atol=1e-12
        )
        assert sparsity_bounds(f)[1] == 4

    def test_composite_m_warns(self):
        with pytest.warns(UserWarning):
            partial_dft_frame(2, 6)

    def test_rejects_m_below_n(self):
        with pytest.raises(BadShape):
            partial_dft_frame(3, 2)


class TestGabor:
    def test_shape_and_rank(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = gabor_frame(w)
        assert (f.n, f.m) == (3, 9)

    def test_zero_window(self):
        with pytest.raises(ZeroWindow):
            gabor_frame([0, 0, 0])


def test_gaussian_sample_needs_m_at_least_n():
    # no 3x2 matrix is a frame; the sampler must not redraw forever
    with pytest.raises(BadShape):
        sample_gaussian_frame(3, 2, np.random.default_rng(0))


class TestGenericity:
    def test_reproducible(self):
        a = genericity_trial(2, 3, trials=10, seed=42)
        b = genericity_trial(2, 3, trials=10, seed=42)
        assert a.count_sparsity_n2 == b.count_sparsity_n2
        assert a.failures == b.failures

    def test_gaussian_frames_are_generic(self):
        rep = genericity_trial(2, 4, trials=25, seed=7)
        assert rep.count_sparsity_n2 == 25
        assert rep.count_in_P == 25
        assert rep.tolerance_dependent

    def test_count_in_P_is_in_P_per_frame(self, monkeypatch):
        # frames in and out of P: Gaussian, a repeated column, and a zero
        # entry pattern that leaves one row-deleted submatrix a zero column
        rng = np.random.default_rng(5)
        frames = []
        for t in range(24):
            mat = rng.standard_normal((3, 6))
            if t % 3 == 1:
                mat[:, 4] = mat[:, 1]
            elif t % 3 == 2:
                mat[:2, 0] = 0
            frames.append(Frame(mat))
        drawn = iter(frames)
        monkeypatch.setattr(experiments, "sample_gaussian_frame",
                            lambda n, m, rng: next(drawn))
        rep = genericity_trial(3, 6, trials=len(frames), seed=0)
        assert rep.count_in_P == sum(map(in_P, frames)) == 8

    def test_rejects_unknown_dist(self):
        with pytest.raises(ValueError):
            genericity_trial(2, 3, trials=1, seed=0, dist="cauchy")


class TestSurface:
    def test_grid_shape_and_order(self, ex_spectral):
        table = surface_2x3(ex_spectral, s_range=(-1.0, 1.0), step=0.5)
        assert table.shape == (25, 4)
        # row-major in (s1, s2)
        np.testing.assert_allclose(table[0, :2], [-1.0, -1.0])
        np.testing.assert_allclose(table[1, :2], [-1.0, -0.5])
        np.testing.assert_allclose(table[-1, :2], [1.0, 1.0])

    def test_eigenvalues_ordered(self, ex_spectral):
        table = surface_2x3(ex_spectral, s_range=(-2.0, 2.0), step=0.25)
        assert np.all(table[:, 2] >= table[:, 3] - 1e-12)

    def test_rejects_wrong_shape(self):
        f = Frame(np.eye(3))
        with pytest.raises(BadShape):
            surface_2x3(f)

    def test_grid_matches_pointwise_evaluation(self, ex_spectral):
        # the vectorized grid gives the bits of one scalar call per point
        table = surface_2x3(ex_spectral, s_range=(-3.0, 3.0), step=0.05)
        sigma = singular_values(ex_spectral.as_float())
        pointwise = [
            dual_eigs_2x3(sigma[0], sigma[1], s1, s2) for s1, s2 in table[:, :2]
        ]
        assert table[:, 2:].tolist() == [[float(a), float(b)] for a, b in pointwise]


def test_sample_gaussian_frame_reproducible():
    a = sample_gaussian_frame(3, 5, np.random.default_rng([0, 1]))
    b = sample_gaussian_frame(3, 5, np.random.default_rng([0, 1]))
    np.testing.assert_array_equal(a.matrix, b.matrix)
