"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

cli = worker.cli


def _first_report(name, tmp_path, seed=7):
    workload = BY_NAME[name]
    case = workload.build(seed, str(tmp_path))[0]
    rc, out, err = worker.run_command(cli.main, workload.argv(case))
    assert rc == 0, err
    return workload, case, json.loads(out)


def _count_failures(workload, case, report):
    """Run one Pass whose 'program' prints the given report."""
    def fake_main(argv):
        print(json.dumps(report))
        return 0
    p = worker.Pass(workload, [case], 0, fake_main)
    p.run()
    return p.attempted, len(p.failures)


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_same_seed_same_bytes(name, tmp_path):
    workload = BY_NAME[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = workload.build(3, str(tmp_path / "a"))
    second = workload.build(3, str(tmp_path / "b"))
    other = workload.build(4, str(tmp_path / "c"))
    assert len(first) == workload.cases_per_round
    for x, y in zip(first, second):
        assert Path(x.path).read_bytes() == Path(y.path).read_bytes()
    assert Path(first[0].path).read_bytes() != Path(other[0].path).read_bytes()


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_non_default_seed_runs_clean(name, tmp_path):
    workload = BY_NAME[name]
    cases = workload.build(7, str(tmp_path))[:2]
    p = worker.Pass(workload, cases, 0, cli.main)
    p.run()
    assert p.attempted == 2
    assert p.failures == []


def _flip_nonzero(matrix):
    for row in matrix:
        for k, x in enumerate(row):
            if x not in ("0", "0.0", "-0.0"):
                row[k] = x[1:] if x.startswith("-") else "-" + x
                return
    raise AssertionError("no nonzero entry")


@pytest.mark.parametrize("name", ["sparsest-float", "sparsest-exact"])
def test_flipped_dual_entry_fails(name, tmp_path):
    workload, case, report = _first_report(name, tmp_path)
    assert _count_failures(workload, case, report) == (1, 0)
    bad = copy.deepcopy(report)
    _flip_nonzero(bad["results"]["dual"])
    assert _count_failures(workload, case, bad) == (1, 1)


def test_dropped_enumerated_dual_fails(tmp_path):
    workload, case, report = _first_report("enumerate-exact", tmp_path)
    assert _count_failures(workload, case, report) == (1, 0)
    bad = copy.deepcopy(report)
    bad["results"]["all_duals"].pop(17)
    bad["results"]["count"] -= 1
    assert _count_failures(workload, case, bad) == (1, 1)
    bad = copy.deepcopy(report)
    _flip_nonzero(bad["results"]["all_duals"][5])
    assert _count_failures(workload, case, bad) == (1, 1)


def test_off_sigma_psi_fails(tmp_path):
    workload, case, report = _first_report("tight-gabor", tmp_path)
    assert _count_failures(workload, case, report) == (1, 0)
    bad = copy.deepcopy(report)
    bad["results"]["sigma_psi"] *= 1 + 1e-6
    assert _count_failures(workload, case, bad) == (1, 1)


def test_nonzero_exit_fails(tmp_path):
    workload = BY_NAME["sparsest-exact"]
    case = workload.build(0, str(tmp_path))[0]
    p = worker.Pass(workload, [case], 0, lambda argv: 3)
    p.run()
    assert (p.attempted, len(p.failures)) == (1, 1)


def test_int_rank_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.integers(-2, 3, size=(4, 6))
        assert checks.int_rank(a.tolist())[0] == np.linalg.matrix_rank(a)


def test_row_sparks_small_frame():
    # columns (1, 1), (-1, 2), (0, -1): e_1 is a multiple of none of them,
    # e_2 is a multiple of the last; the README's sparsest dual has 3 nonzeros
    assert checks.row_sparks([[1, -1, 0], [1, 2, -1]]) == [2, 1]


def test_tracing_undo_restores_the_program(tmp_path):
    pkg = worker.dualframes
    before = (pkg.sparsity.rank_tol, pkg.numerics.svd, pkg.frames.Frame.__init__)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, pkg)
    workload = BY_NAME["sparsest-float"]
    case = workload.build(1, str(tmp_path))[0]
    tracer.reset()
    rc, out, _ = worker.run_command(
        lambda argv: tracer.call("cli.main", None, cli.main, (argv,), {}),
        workload.argv(case))
    undo()
    assert rc == 0
    assert before == (pkg.sparsity.rank_tol, pkg.numerics.svd,
                      pkg.frames.Frame.__init__)
    metrics = tracing.command_metrics(
        tracer.spans, tracer.counts, len(out), worker.certified_supports(out))
    assert metrics["numerics.rank_calls"] > 0
    assert metrics["matrixio.entries_parsed"] == 50
    assert metrics["sparsity.useful_ratio"] == 5 / sum(
        1 for s in tracer.spans
        if s[0] == "numerics.rank" and s[1] == "sparsity")


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "sparsest-float", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 8
    names = {m["name"] for m in json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())[
            "per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == names
