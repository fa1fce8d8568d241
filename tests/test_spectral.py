import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from dualframes.errors import (
    BadShape,
    BadTarget,
    BelowCanonical,
    BoundInfeasible,
    NoTightDual,
    TooManyPicks,
)
from dualframes.cli import main
from dualframes.experiments import gabor_frame
from dualframes.frames import Frame, canonical_dual, frame_operator, is_dual
from dualframes.matrixio import write_matrix
from dualframes.numerics import singular_values
from dualframes.spectral import (
    CASE_ALREADY_TIGHT,
    CASE_CONSTRAINED,
    CASE_EXACT_2N_MINUS_1,
    CASE_REDUNDANT_2N,
    classify_tight_dual,
    dual_eigs_2x3,
    lambda_region,
    prescribed_spectrum_dual,
    spectrum_feasible,
    tight_dual,
)

from conftest import parametrization

SQRT35_3 = math.sqrt(35.0) / 3.0


def frame_with_sigma(sigma, m, seed=0):
    """Random frame with the given singular values (orthogonal factors)."""
    n = len(sigma)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    block = np.zeros((n, m))
    block[:, :n] = np.diag(sigma)
    return Frame(u @ block @ v.T)


class TestTightDual:
    def test_minimal_tight_dual_worked_example(self, ex_spectral):
        dual, spec, s_block = tight_dual(ex_spectral)
        assert spec.sigma_psi == pytest.approx(2.0, abs=1e-12)
        assert spec.p == 1
        assert abs(abs(s_block[0, 0]) - SQRT35_3) <= 1e-10
        assert s_block[1, 0] == 0
        np.testing.assert_allclose(
            frame_operator(dual.matrix), 4.0 * np.eye(2), atol=1e-9
        )
        assert is_dual(ex_spectral, dual, 1e-9)[0]

    def test_larger_bound_needs_redundancy(self, ex_spectral):
        with pytest.raises(BoundInfeasible):
            tight_dual(ex_spectral, sigma_psi=3.0)  # m = 3 < 2n = 4

    def test_below_floor_rejected(self, ex_spectral):
        with pytest.raises(BoundInfeasible):
            tight_dual(ex_spectral, sigma_psi=1.0)

    def test_redundant_case_any_bound(self):
        f = frame_with_sigma([2.0, 1.0], m=5, seed=3)
        for c in (1.0, 1.7, 4.0):
            dual, spec, _ = tight_dual(f, sigma_psi=c)
            np.testing.assert_allclose(
                frame_operator(dual.matrix), c * c * np.eye(2), atol=1e-9
            )
            assert is_dual(f, dual, 1e-9)[0]

    def test_constrained_case_refusal(self):
        # n = 3, m = 4 < 2n - 1: needs the two smallest sigmas equal
        f = frame_with_sigma([3.0, 2.0, 1.0], m=4, seed=5)
        with pytest.raises(NoTightDual):
            tight_dual(f)

    def test_constrained_case_success(self):
        f = frame_with_sigma([3.0, 1.0, 1.0], m=4, seed=6)
        dual, spec, _ = tight_dual(f)
        np.testing.assert_allclose(
            frame_operator(dual.matrix), np.eye(3), atol=1e-9
        )
        assert is_dual(f, dual, 1e-9)[0]


    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_gabor_16x256(self, scale):
        rng = np.random.default_rng(3)
        frame = gabor_frame(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        floor = 1.0 / singular_values(frame.matrix)[-1]
        dual, spec, _ = tight_dual(frame, floor * scale)
        ok, resid = is_dual(frame, dual, 1e-9)
        assert ok, resid
        psi = dual.matrix
        c2 = spec.sigma_psi ** 2
        assert np.linalg.norm(psi @ psi.conj().T - c2 * np.eye(16)) <= 1e-9 * c2


def test_no_m_by_m_array():
    # a 4x2000 frame: one 2000x2000 float array alone would take 32 MB
    rng = np.random.default_rng(0)
    frame = Frame(rng.standard_normal((4, 2000)))
    floor = 1.0 / singular_values(frame.matrix)[-1]
    tracemalloc.start()
    try:
        tight_dual(frame, 2.0 * floor)
        prescribed_spectrum_dual(frame, {0: 10.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 8 / 8


class TestClassifier:
    def test_cases(self):
        assert classify_tight_dual(2, 5, [2, 1])[0].case == CASE_REDUNDANT_2N
        assert classify_tight_dual(2, 3, [2, 1])[0].case == CASE_EXACT_2N_MINUS_1
        assert classify_tight_dual(3, 4, [2, 2, 1])[0].case == CASE_CONSTRAINED
        assert classify_tight_dual(2, 3, [1, 1])[0].case == CASE_ALREADY_TIGHT

    def test_existence(self):
        # constrained with distinct sigmas: no tight dual
        assert classify_tight_dual(3, 4, [3, 2, 1])[1] is False
        assert classify_tight_dual(3, 4, [3, 1, 1])[1] is True
        assert classify_tight_dual(2, 3, [3, 1])[1] is True


class TestPrescribed:
    def test_worked_example_pick(self, ex_spectral):
        dual = prescribed_spectrum_dual(ex_spectral, {0: 1.0})
        measured = singular_values(dual.matrix)
        np.testing.assert_allclose(measured, [2.0, 1.0], atol=1e-10)
        assert is_dual(ex_spectral, dual, 1e-9)[0]

    def test_canonical_when_no_picks(self, ex_spectral):
        dual = prescribed_spectrum_dual(ex_spectral, {})
        np.testing.assert_allclose(
            singular_values(dual.matrix), [2.0, 1.0 / 3.0], atol=1e-10
        )

    def test_too_many_picks(self, ex_spectral):
        with pytest.raises(TooManyPicks):
            prescribed_spectrum_dual(ex_spectral, {0: 1.0, 1: 3.0})

    def test_below_canonical(self, ex_spectral):
        with pytest.raises(BelowCanonical):
            prescribed_spectrum_dual(ex_spectral, {1: 1.0})  # floor is 2

    def test_bad_index(self, ex_spectral):
        with pytest.raises(BadTarget):
            prescribed_spectrum_dual(ex_spectral, {5: 1.0})

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = n + int(rng.integers(1, 4))
            f = frame_with_sigma(
                sorted(rng.uniform(0.5, 3.0, n), reverse=True),
                m,
                seed=int(rng.integers(10 ** 6)),
            )
            sigma = singular_values(f.matrix)
            r = m - n
            count = int(rng.integers(0, min(r, n) + 1))
            idx = rng.choice(n, size=count, replace=False)
            picks = {
                int(i): float(1.0 / sigma[i] * rng.uniform(1.0, 3.0))
                for i in idx
            }
            dual = prescribed_spectrum_dual(f, picks)
            expected = sorted(
                [picks.get(i, 1.0 / sigma[i]) for i in range(n)],
                reverse=True,
            )
            np.testing.assert_allclose(
                singular_values(dual.matrix), expected, atol=1e-8
            )
            assert is_dual(f, dual, 1e-9)[0]


class TestFeasible:
    def test_canonical_always_constructive(self, ex_spectral):
        st = spectrum_feasible(ex_spectral, (2.0, 1.0 / 3.0))
        assert st.feasible and st.constructive and not st.violated

    def test_one_pick_target(self, ex_spectral):
        st = spectrum_feasible(ex_spectral, (3.0, 1.0 / 3.0))
        assert st.feasible and st.constructive

    def test_lower_violation(self, ex_spectral):
        st = spectrum_feasible(ex_spectral, (2.0, 0.1))
        assert not st.feasible
        assert (2, 1.0 / 3.0, "lower") in [
            (i, pytest.approx(b), s) for i, b, s in st.violated
        ]

    def test_upper_violation(self, ex_spectral):
        # i = 2 > r = 1 caps the second value at 1/sigma_1 ... here at 2
        st = spectrum_feasible(ex_spectral, (3.0, 2.5))
        assert not st.feasible
        assert any(side == "upper" for _, _, side in st.violated)

    def test_feasible_but_not_constructive(self, ex_spectral):
        # strictly between the canonical values on both coordinates:
        # interlacing holds but no orthogonalization pick set matches
        st = spectrum_feasible(ex_spectral, (2.5, 0.4))
        assert st.feasible
        assert not st.constructive

    def test_rejects_bad_targets(self, ex_spectral):
        with pytest.raises(BadTarget):
            spectrum_feasible(ex_spectral, (1.0, 2.0))
        with pytest.raises(BadTarget):
            spectrum_feasible(ex_spectral, (1.0,))
        with pytest.raises(BadTarget):
            spectrum_feasible(ex_spectral, (1.0, -1.0))


def _reachable_by_orthogonalization(sigma, target, r, tol=1e-8):
    """True iff target equals {q_i : picked} union {1/sigma_i : unpicked}
    for some pick set of size <= r with q_i >= 1/sigma_i."""
    n = len(sigma)
    inv = [1.0 / s for s in sigma]  # inv[i] is the floor for picked index i
    target = list(target)

    def match(unpicked_vals, pick_floors, targets):
        # exact-match the unpicked canonical values, then assign leftovers
        # to picked floors (bipartite; sizes are tiny, so brute force)
        if len(unpicked_vals) + len(pick_floors) != len(targets):
            return False
        remaining = list(targets)
        for v in unpicked_vals:
            hit = next(
                (k for k, t in enumerate(remaining)
                 if abs(t - v) <= tol * max(1.0, abs(v))),
                None,
            )
            if hit is None:
                return False
            remaining.pop(hit)
        for perm in itertools.permutations(range(len(pick_floors))):
            if all(
                remaining[k] >= pick_floors[perm[k]] - tol
                for k in range(len(remaining))
            ):
                return True
        return False

    for size in range(min(r, n) + 1):
        for picked in itertools.combinations(range(n), size):
            unpicked = [inv[i] for i in range(n) if i not in picked]
            floors = [inv[i] for i in picked]
            if match(unpicked, floors, target):
                return True
    return False


def _targets(floors, r, rng):
    """Candidate dual spectra around the non-increasing canonical values
    ``floors``: the floors themselves, up to r + 1 of them raised, a floor
    repeated in place of another, a midpoint between floors, a value below
    its floor, all values above the caps, and random values."""
    n = len(floors)
    raised = list(floors)
    for i in rng.choice(n, size=min(n, r + 1), replace=False):
        raised[i] *= rng.uniform(1.0, 2.0)
    repeated = list(floors)
    repeated[rng.integers(n)] = floors[rng.integers(n)]
    mid = list(floors)
    mid[0] = 0.5 * (floors[0] + (floors[1] if n > 1 else 2 * floors[0]))
    below = list(floors)
    below[-1] *= 0.5
    out = [floors, raised[:1] + list(floors[1:]), raised, repeated, mid,
           below, [2.0 * floors[0]] * n,
           rng.uniform(0.5 * floors[-1], 2.0 * floors[0], n)]
    return [tuple(sorted(map(float, t), reverse=True)) for t in out]


def _random_frame(rng, n, m, field):
    mat = rng.standard_normal((n, m))
    if field == "complex":
        mat = mat + 1j * rng.standard_normal((n, m))
    return Frame(mat)


class TestConstructive:
    def test_matches_the_search(self):
        # n <= 5, so the factorial search of pick sets decides quickly
        rng = np.random.default_rng(18)
        seen = set()
        for k in range(400):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 3 * n + 1))
            frame = _random_frame(rng, n, m, ("real", "complex")[k % 2])
            sigma = singular_values(frame.matrix)
            r = m - n
            for target in _targets(1.0 / sigma[::-1], r, rng):
                st = spectrum_feasible(frame, target)
                want = st.feasible and _reachable_by_orthogonalization(
                    sigma, target, r)
                assert st.constructive == want, (frame.matrix, target)
                seen.add((st.feasible, st.constructive))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_wide_frame_needs_no_search(self):
        # 12 x 24: the search of pick sets would take minutes here
        frame = Frame(np.random.default_rng(0).standard_normal((12, 24)))
        target = 1.5 / singular_values(frame.matrix)[::-1]
        start = time.perf_counter()
        st = spectrum_feasible(frame, target)
        assert time.perf_counter() - start < 1.0
        assert st.feasible and st.constructive


class TestScaleInvariance:
    def test_lower_bound_at_large_scale(self):
        # an absolute margin of 1e-9 took t_1 = 1e-4 below its floor 1e-6
        # as feasible on this frame scaled by 1e6
        frame = Frame(1e6 * np.random.default_rng(0).standard_normal((3, 5)))
        floors = 1.0 / singular_values(frame.matrix)[::-1]
        target = (floors[0] * (1 - 1e-4), *floors[1:])
        st = spectrum_feasible(frame, target)
        assert not st.feasible and not st.constructive
        assert st.violated == [(1, floors[0], "lower")]

    def test_canonical_spectrum_at_small_scale(self):
        # an absolute margin of 1e-9 judged most of these infeasible at
        # scale 1e-8, where the canonical values are about 1e8
        rng = np.random.default_rng(1)
        for _ in range(200):
            frame = Frame(1e-8 * rng.standard_normal((4, 7)))
            measured = singular_values(canonical_dual(frame).matrix)
            st = spectrum_feasible(frame, measured)
            assert st.feasible and st.constructive, st.violated

    @staticmethod
    def _outcomes(frame, targets, sigmas, tmp_path):
        """Verdicts, tight-dual outcomes and exit codes of ``frame``."""
        feasible = []
        for t in targets:
            st = spectrum_feasible(frame, t)
            feasible.append((st.feasible, st.constructive,
                             [(i, side) for i, _, side in st.violated]))
        tight = []
        for sigma in sigmas:
            try:
                _, spec, _ = tight_dual(frame, sigma)
                tight.append((spec.case, spec.p))
            except (BoundInfeasible, NoTightDual) as exc:
                tight.append(type(exc).__name__)
        path = str(tmp_path / "frame.csv")
        write_matrix(frame.matrix, path)
        codes = [main(["feasible", path, "--spectrum",
                       ",".join(map(repr, t))]) for t in targets[:3]]
        codes += [main(["tight", path] + ([] if s is None else
                                          ["--sigma", repr(s)]))
                  for s in sigmas]
        measured = singular_values(canonical_dual(frame).matrix)
        st = spectrum_feasible(frame, measured)
        assert st.feasible and st.constructive, st.violated
        return feasible, tight, codes

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_verdicts_do_not_depend_on_scale(self, tmp_path, field):
        rng = np.random.default_rng(5)
        frames = [_random_frame(rng, n, m, field)
                  for n, m in [(2, 3), (3, 5), (3, 6), (4, 6)]]
        # a repeated smallest singular value: a tight dual exists at m < 2n - 1
        frames.append(frame_with_sigma([3.0, 1.0, 1.0], 4, seed=6))
        for frame in frames:
            r = frame.m - frame.n
            floors = 1.0 / singular_values(frame.matrix)[::-1]
            targets = _targets(floors, r, rng)
            sigmas = [None, 0.5 * float(floors[0]), 1.5 * float(floors[0])]
            base = self._outcomes(frame, targets, sigmas, tmp_path)
            for c in (1e-8, 1e-4, 1e4, 1e8):
                scaled = Frame(c * frame.matrix)
                got = self._outcomes(
                    scaled, [tuple(t / c for t in ts) for ts in targets],
                    [None if s is None else s / c for s in sigmas], tmp_path)
                assert got == base, (c, frame.matrix)


def test_dual_bound_range(ex_spectral):
    region = lambda_region(ex_spectral)
    (lo_lo, lo_hi), (up_lo, up_hi) = region[-1], region[0]
    assert lo_lo == pytest.approx(1.0 / 9.0)
    assert lo_hi == pytest.approx(4.0)  # 1/sigma_{m-n+1}^2 with m-n+1 = 2
    assert up_lo == pytest.approx(4.0)
    assert up_hi == math.inf
    # a square frame has only the canonical dual: both ranges are points
    square = Frame(np.diag([2.0, 1.0]))
    region = lambda_region(square)
    assert (region[-1], region[0]) == ((0.25, 0.25), (1.0, 1.0))


def test_lambda_region(ex_spectral):
    region = lambda_region(ex_spectral)
    assert region[0][0] == pytest.approx(4.0)
    assert region[0][1] == math.inf
    assert region[1][0] == pytest.approx(1.0 / 9.0)
    assert region[1][1] == pytest.approx(4.0)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_lambda_region_without_finite_bound(ex_spectral, scale):
    # sigma_1^2 overflows at 1e160 and 1/sigma_2^2 at 1e-160
    with pytest.raises(BoundInfeasible, match=r"\^2 is not finite"):
        lambda_region(Frame(ex_spectral.matrix * scale))
    assert lambda_region(Frame(ex_spectral.matrix * 1e100))[1][0] == (
        pytest.approx(1e-200 / 9.0))


class TestEigs2x3:
    def test_double_eigenvalue_at_tight_point(self):
        l1, l2 = dual_eigs_2x3(3.0, 0.5, SQRT35_3, 0.0)
        assert l1 == pytest.approx(4.0, abs=1e-12)
        assert l2 == pytest.approx(4.0, abs=1e-12)

    def test_origin_is_canonical(self):
        l1, l2 = dual_eigs_2x3(3.0, 0.5, 0.0, 0.0)
        assert (l1, l2) == (pytest.approx(4.0), pytest.approx(1.0 / 9.0))

    def test_matches_direct_operator(self, ex_spectral):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s1, s2 = rng.uniform(-3, 3, 2)
            par = parametrization(ex_spectral, [[s1], [s2]])
            eigs = np.linalg.eigvalsh(frame_operator(par.realize().matrix))
            l1, l2 = dual_eigs_2x3(3.0, 0.5, s1, s2)
            np.testing.assert_allclose(sorted(eigs), [l2, l1], atol=1e-9)

    def test_rejects_bad_sigmas(self):
        with pytest.raises(BadShape):
            dual_eigs_2x3(1.0, 2.0, 0.0, 0.0)
