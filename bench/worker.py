"""One workload process: set up, then (as the worker) run the timed pass.

Started by ``run.py``, never by hand.  The process imports ``dualframes``
from the checkout's ``src``, builds the seeded inputs in a scratch directory
under ``bench/out``, runs one untimed warm-up command and prints ``READY``.
A ``probe`` exits there, so that ``run.py`` can time set-up several times.
A ``worker`` then drives whole CLI commands through ``dualframes.cli.main``
from a single closed-loop caller, checks every output outside the timed
window, and prints one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import dualframes  # noqa: E402
from dualframes import cli  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import BY_NAME  # noqa: E402


def run_command(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is one failed operation, not a lost run
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def verdict(workload, case, rc, out, err):
    """None when the command succeeded and its output passed the check."""
    if rc != 0:
        last = (err.strip().splitlines() or [""])[-1]
        return f"exit code {rc}: {last}"
    try:
        report = json.loads(out)
        return workload.check(case, report)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"


def certified_supports(out):
    """Distinct (row, support) pairs the report certifies: the certificate's
    supports plus the supports of every enumerated dual's rows."""
    results = json.loads(out).get("results", {})
    pairs = {(c["row"], tuple(c["support"])) for c in results.get("certificate", [])}
    rows = {(i, tuple(row)) for d in results.get("all_duals", []) for i, row in enumerate(d)}
    for i, row in rows:
        pairs.add((i, tuple(k for k, x in enumerate(row) if Fraction(x) != 0)))
    return len(pairs)


class Pass:
    """Whole rounds over the cases until about ``seconds`` of command time.

    Another round starts only while more than half a round of the target is
    left, so every run attempts whole rounds and ends near ``seconds``.
    The calibration kernel runs between commands, outside the timed window;
    ``scaled`` holds each command's wall time at the reference speed.
    """

    def __init__(self, workload, cases, seconds, main):
        self.workload, self.cases, self.seconds = workload, cases, seconds
        self.main = main
        self.latencies, self.scaled = [], []
        self.failures, self.attempted = [], 0

    def run(self, after=None):
        busy, rounds = 0.0, 0
        cal_before = calibration.measure()
        while True:
            for case in self.cases:
                gc.collect()
                t0 = time.perf_counter()
                rc, out, err = run_command(self.main, self.workload.argv(case))
                dt = time.perf_counter() - t0
                cal_after = calibration.measure()
                scale = calibration.REFERENCE_S / ((cal_before + cal_after) / 2)
                cal_before = cal_after
                self.latencies.append(dt)
                self.scaled.append(dt * scale)
                busy += dt
                self.attempted += 1
                reason = verdict(self.workload, case, rc, out, err)
                if reason:
                    self.failures.append(f"{os.path.basename(case.path)}: {reason}")
                elif after:
                    after(case, out, scale)
            rounds += 1
            if busy + 0.5 * busy / rounds >= self.seconds:
                return

    def p50_ms(self):
        return statistics.median(self.scaled) * 1e3

    def ops_per_s(self):
        return (self.attempted - len(self.failures)) / sum(self.scaled)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=["probe", "worker"], required=True)
    p.add_argument("--workload", choices=sorted(BY_NAME), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(dualframes.__file__).resolve().parents:
        print(f"error: dualframes imported from {dualframes.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"inputs-{workload.name}-", dir=out_dir)
    try:
        cases = workload.build(args.seed, inputs)
        run_command(cli.main, workload.argv(cases[0]))  # warm-up, untimed
        print("READY", flush=True)
        # the machine's speed right after set-up, to scale the set-up time
        cal = statistics.median(calibration.measure() for _ in range(5))
        print(f"CAL {cal!r}", flush=True)
        if args.role == "probe":
            return 0

        result = {}
        if not args.trace:
            plain = Pass(workload, cases, args.seconds, cli.main)
            plain.run()
            # ru_maxrss is in KiB on Linux
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            )
            result["ops_per_s"] = plain.ops_per_s()
            result["latency_p50_ms"] = plain.p50_ms()
            # the same two numbers from unscaled wall time, for the record
            result["wall"] = {
                "ops_per_s": (plain.attempted - len(plain.failures))
                / sum(plain.latencies),
                "latency_p50_ms": statistics.median(plain.latencies) * 1e3,
            }
            passes = [plain]
        else:
            # half the time untraced, half traced: their medians give the
            # tracing overhead, the traced commands give the layer numbers
            plain = Pass(workload, cases, args.seconds / 2, cli.main)
            plain.run()
            tracer = tracing.Tracer()
            per_command, spans_log = [], []

            def root(argv_):
                tracer.reset()
                return tracer.call("cli.main", None, cli.main, (argv_,), {})

            def record(case, out, scale):
                per_command.append(tracing.command_metrics(
                    tracer.spans, tracer.counts, len(out.encode()),
                    certified_supports(out), scale))
                t0 = tracer.spans[0][2]
                spans_log.append({
                    "input": os.path.basename(case.path),
                    "spans": [[n, c, s - t0, e - t0, par]
                              for n, c, s, e, par in tracer.spans],
                })

            traced = Pass(workload, cases, args.seconds / 2, root)
            undo = tracing.install(tracer, dualframes)
            try:
                traced.run(after=record)
            finally:
                undo()
            passes = [plain, traced]
            if per_command:
                result["per_layer"] = tracing.layer_medians(
                    per_command, plain.p50_ms(), traced.p50_ms())
            with open(out_dir / f"{workload.name}-seed{args.seed}-spans.json",
                      "w", encoding="utf-8") as fh:
                json.dump(spans_log, fh)
        result["attempted"] = sum(x.attempted for x in passes)
        failures = [f for x in passes for f in x.failures]
        result["failed"] = len(failures)
        for line in failures[:5]:
            print(f"failed: {line}", file=sys.stderr)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
