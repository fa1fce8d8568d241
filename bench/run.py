"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload sparsest-exact --seed 1 --seconds 20 --trace 0

Set-up is timed ``SETUP_PROBES`` times in fresh processes that stop once
they are ready, then once more in the worker process that goes on to the
timed pass; ``setup_s`` is the median of those times.  Each time runs from
just before the process is started to the moment it reports ``READY``:
interpreter start, imports, writing the seeded inputs and one warm-up
command.  Every time metric is scaled to the reference machine speed of
``calibration.py``: a set-up time by the calibration kernel's time measured
right after that set-up, a command's latency by the kernel times measured
just before and after it.  The unscaled wall times are kept in the
``bench/out`` record of the run.  With ``--trace 1`` the worker also runs a
traced pass and the result holds the per-layer numbers instead of the
end-to-end ones.

The package itself is imported only by the probe and worker processes; this
file fails early, without a result, when the checkout has no
``src/dualframes``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S
from tracing import METRICS as PER_LAYER
from workloads import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 2
DEADLINE_S = 170
# one BLAS thread, so that the SVD does not compete with itself for the two
# cores; a fixed hash seed, so that set and dict order repeat across runs
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Failed(Exception):
    pass


def _read_line(proc, deadline):
    """Next line of the child's stdout, or Failed at EOF or the deadline."""
    line = b""
    fd = proc.stdout.fileno()
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise Failed("timed out")
        chunk = os.read(fd, 1)
        if not chunk:
            raise Failed(f"exited early with code {proc.wait()}")
        line += chunk
    return line.decode().strip()


def _child(role, args, deadline):
    """Start one workload process; returns (set-up wall seconds, the
    calibration time measured right after set-up, result or None)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {**os.environ, **THREAD_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        if _read_line(proc, deadline) != "READY":
            raise Failed("did not report READY")
        setup = time.perf_counter() - t0
        tag, cal = _read_line(proc, deadline).split()
        if tag != "CAL":
            raise Failed("did not report its calibration")
        result = json.loads(_read_line(proc, deadline)) if role == "worker" else None
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        if code != 0:
            raise Failed(f"exited with code {code}")
        return setup, float(cal), result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dualframes" / "cli.py").is_file():
        print(f"error: no src/dualframes under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        children = [_child("probe", args, deadline) for _ in range(SETUP_PROBES)]
        children.append(_child("worker", args, deadline))
        result = children[-1][2]
        if args.trace and "per_layer" not in result:
            raise Failed("no traced command passed its check")
    except (Failed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    setups = [wall * REFERENCE_S / cal for wall, cal, _ in children]

    if args.trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**line, "setup_samples_s": setups,
                   "setup_wall_s": [wall for wall, _, _ in children],
                   "wall": result.get("wall")}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
