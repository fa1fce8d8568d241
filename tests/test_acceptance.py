"""End-to-end acceptance suite: eight numbered criteria, each printing one
pass/fail line with its runtime against the allotted budget."""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dualframes.cli import main as cli_main
from dualframes.experiments import (
    genericity_trial,
    partial_dft_frame,
    sample_gaussian_frame,
    vandermonde_frame,
)
from dualframes.frames import (
    Frame,
    frame_bounds,
    frame_operator,
    is_dual,
)
from dualframes.numerics import singular_values
from dualframes.sparsity import (
    biorthogonal_dual,
    generalized_spark,
    sparsity_bounds,
)
from dualframes.spectral import (
    classify_tight_dual,
    prescribed_spectrum_dual,
    tight_dual,
)
from dualframes.tetris import (
    tetris_frame,
    tetris_plan,
    tetris_sparse_dual,
    tetris_sparsity,
)

from conftest import EX_SPARSE, EX_SPECTRAL, nnz, parametrization, random_integer_frame

SQRT35_3 = math.sqrt(35.0) / 3.0


def run_criterion(capsys, idx, name, budget_s, body):
    t0 = time.perf_counter()
    ok, err = False, ""
    try:
        body()
        ok = True
    except BaseException as exc:
        err = f" -- {type(exc).__name__}: {exc}"
        raise
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < budget_s else "FAIL"
        with capsys.disabled():
            print(
                f"[criterion {idx}] {status} {name} "
                f"({dt:.2f}s / {budget_s:.0f}s){err}"
            )
    assert dt < budget_s, f"runtime {dt:.2f}s over the {budget_s}s budget"


def _cli_json(capsys, argv):
    code = cli_main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code}"
    return json.loads(out)


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_criterion_1_sparsest_enumeration(capsys, tmp_path):
    def body():
        path = tmp_path / "frame.csv"
        path.write_text("1,-1,0\n1,2,-1\n")
        rep = _cli_json(
            capsys, ["sparsest", str(path), "--all", "--exact"]
        )
        r = rep["results"]
        assert r["sparsity"] == 3
        assert r["count"] == 3
        duals = [
            [[Fraction(v) for v in row] for row in d] for d in r["all_duals"]
        ]
        assert _frac_rows([[0, -1, -2], [0, 0, -1]]) in duals
        assert _frac_rows(
            [[Fraction(2, 3), Fraction(-1, 3), 0], [0, 0, -1]]
        ) in duals
        third = _frac_rows([[1, 0, 1], [0, 0, -1]])
        assert third in duals
        phi = Frame.exact(EX_SPARSE)
        for d in duals:
            psi = np.array(d, dtype=object)
            assert is_dual(phi, psi)[1] == 0

    run_criterion(capsys, 1, "sparsest-dual enumeration on the 2x3 frame",
                  1.0, body)


def test_criterion_2_tight_dual_construction(capsys):
    def body():
        frame = Frame(EX_SPECTRAL)
        sigma = singular_values(frame.matrix)
        assert abs(sigma[0] - 3.0) <= 1e-10
        assert abs(sigma[1] - 0.5) <= 1e-10
        b = frame_bounds(frame)
        assert abs(b.lower - 0.25) <= 1e-10
        assert abs(b.upper - 9.0) <= 1e-10
        dual, spec, s_block = tight_dual(frame)
        assert abs(spec.sigma_psi - 2.0) <= 1e-10
        assert abs(abs(s_block[0, 0]) - SQRT35_3) <= 1e-10
        assert s_block[1, 0] == 0
        op = frame_operator(dual.matrix)
        assert np.max(np.abs(op - 4.0 * np.eye(2))) <= 1e-9
        assert is_dual(frame, dual, 1e-9)[0]

    run_criterion(capsys, 2, "tight dual of the 2x3 spectral example",
                  1.0, body)


def test_criterion_3_interlacing_suite(capsys):
    def body():
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = n + int(rng.integers(0, 5))
            frame = sample_gaussian_frame(n, m, rng)
            sigma = singular_values(frame.matrix)
            r = m - n
            for _ in range(20):
                s_block = rng.uniform(-3, 3, size=(n, r))
                dual = parametrization(frame, s_block).realize()
                spec = singular_values(dual.matrix)  # non-increasing
                for i in range(1, n + 1):
                    if spec[i - 1] - 1.0 / sigma[n - i] < -1e-9:
                        violations += 1
                    if i > r and n - i + r + 1 <= n:
                        hi = 1.0 / sigma[n - i + r]
                        if hi - spec[i - 1] < -1e-9:
                            violations += 1
        assert violations == 0, f"{violations} interlacing violations"

    run_criterion(capsys, 3, "interlacing on 200 frames x 20 duals",
                  30.0, body)


def test_criterion_4_tetris_suite(capsys):
    def body():
        grid = [Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(11, 4),
                Fraction(3), Fraction(7, 2)]
        checked = 0
        for n in range(1, 5):
            for lams in itertools.product(grid, repeat=n):
                if sum(lams).denominator != 1:
                    continue
                plan = tetris_plan(lams)
                frame = tetris_frame(plan)
                mat = frame.matrix
                assert np.max(np.abs(
                    np.sum(np.abs(mat) ** 2, axis=0) - 1.0
                )) <= 1e-12
                assert np.max(np.abs(
                    frame_operator(mat)
                    - np.diag([float(x) for x in lams])
                )) <= 1e-12
                formula = tetris_sparsity(plan)
                oracle = sum(
                    generalized_spark(frame, j) for j in range(n)
                )
                assert formula == oracle, (lams, formula, oracle)
                dual = tetris_sparse_dual(plan)
                ok, resid = is_dual(frame, dual, 1e-12)
                assert ok, (lams, resid)
                assert nnz(dual, tol=1e-14) == formula
                checked += 1
        assert checked > 100

    run_criterion(capsys, 4, "tetris grid vs exhaustive sparsity oracle",
                  60.0, body)


def test_criterion_5_genericity(capsys):
    def body():
        rep = genericity_trial(3, 5, trials=100, seed=12345)
        assert rep.count_sparsity_n2 == 100, rep.failures
        vf = vandermonde_frame([1, 2, 3, 4, 5], [1, 2, 3])
        assert sparsity_bounds(vf)[1] == 9
        dft = partial_dft_frame(2, 5)
        assert sparsity_bounds(dft)[1] == 4

    run_criterion(capsys, 5, "genericity of the n^2 sparsity level",
                  60.0, body)


def test_criterion_6_bound_sandwich(capsys):
    def body():
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 8))
            frame = random_integer_frame(rng, n, m)
            lower, exact, upper = sparsity_bounds(frame)
            assert lower <= exact <= upper == n * n
            psi = biorthogonal_dual(frame)
            assert nnz(psi) <= n * n
            assert is_dual(frame, psi)[1] == 0

    run_criterion(capsys, 6, "sparsity bound sandwich on integer frames",
                  120.0, body)


def test_criterion_7_spectrum_constructors(capsys):
    def body():
        rng = np.random.default_rng(31)

        def frame_with_sigma(sigma, m):
            n = len(sigma)
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((m, m)))
            block = np.zeros((n, m))
            block[:, :n] = np.diag(sigma)
            return Frame(u @ block @ v.T)

        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = n + int(rng.integers(1, 5))
            frame = sample_gaussian_frame(n, m, rng)
            sigma = singular_values(frame.matrix)
            r = m - n
            count = int(rng.integers(0, min(r, n) + 1))
            idx = rng.choice(n, size=count, replace=False)
            picks = {
                int(i): float(1.0 / sigma[i] * rng.uniform(1.0, 3.0))
                for i in idx
            }
            dual = prescribed_spectrum_dual(frame, picks)
            expected = sorted(
                (picks.get(i, 1.0 / sigma[i]) for i in range(n)),
                reverse=True,
            )
            measured = singular_values(dual.matrix)
            assert np.max(np.abs(measured - np.array(expected))) <= 1e-8
            assert is_dual(frame, dual, 1e-9)[0]

        # trichotomy of the classifier against an independent decision
        cases = [
            ([2.0, 1.0], 5), ([2.0, 1.0], 4), ([2.0, 1.0], 3),
            ([1.0, 1.0], 3), ([3.0, 2.0, 1.0], 4), ([3.0, 1.0, 1.0], 4),
            ([1.0, 1.0, 1.0], 4), ([4.0, 3.0, 2.0, 1.0], 7),
            ([4.0, 3.0, 2.0, 1.0], 6), ([4.0, 1.0, 1.0, 1.0], 5),
            ([4.0, 3.0, 1.0, 1.0], 5), ([4.0, 3.0, 2.0, 1.0], 5),
        ]
        for sigma, m in cases:
            n = len(sigma)
            spec, exists = classify_tight_dual(n, m, sigma)
            p = sum(1 for s in sigma if s > sigma[-1] * (1 + 1e-8))
            if p == 0 and m < 2 * n:
                want_case, want_exists = "AlreadyTight", True
            elif m >= 2 * n:
                want_case, want_exists = "Redundant2n", True
            elif m == 2 * n - 1:
                want_case, want_exists = "Exact2nMinus1", True
            else:
                want_case, want_exists = "Constrained", p <= m - n
            assert spec.case == want_case, (sigma, m)
            assert exists == want_exists, (sigma, m)
            if exists:
                frame = frame_with_sigma(sigma, m)
                dual, got, _ = tight_dual(frame)
                op = frame_operator(dual.matrix)
                assert np.max(np.abs(
                    op - got.sigma_psi ** 2 * np.eye(n)
                )) <= 1e-8

    run_criterion(capsys, 7, "prescribed spectra and tight-dual trichotomy",
                  30.0, body)


def test_criterion_8_surface_data(capsys, tmp_path):
    def body():
        frame_path = tmp_path / "spectral.csv"
        frame_path.write_text(
            "# field=real\n1.8,-0.24,-0.32\n2.4,0.18,0.24\n"
        )
        out = str(tmp_path / "surface.csv")
        rep = _cli_json(capsys, [
            "surface", str(frame_path), "--range=-3,3", "--step", "0.05",
            "-o", out,
        ])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (121 * 121, 4)
        l1, l2 = data[:, 2], data[:, 3]
        assert np.min(l1) >= 4.0 - 1e-9
        assert np.min(l2) >= 1.0 / 9.0 - 1e-9
        assert np.max(l2) <= 4.0 + 1e-9
        k = int(np.argmin(np.abs(l1 - l2)))
        s1, s2 = data[k, 0], data[k, 1]
        dist = min(
            max(abs(s1 - SQRT35_3), abs(s2)),
            max(abs(s1 + SQRT35_3), abs(s2)),
        )
        assert dist <= 0.05 + 1e-12, (s1, s2)
        assert rep["results"]["min_gap"] == pytest.approx(
            float(np.min(np.abs(l1 - l2)))
        )

    run_criterion(capsys, 8, "2x3 dual eigenvalue surface bounds",
                  10.0, body)
