"""Layer spans for the traced run, recorded from the benchmark's own files.

The program is not edited: each call into a layer is wrapped where the
calling module looks it up.  ``sparsity`` and ``frames`` bind ``rank_tol``
by name, so the wrapper replaces that name in their namespaces; ``cli``
reaches ``numerics``, ``sparsity`` and ``spectral`` through module
attributes, so those attributes are wrapped; ``Frame.__init__`` and
``DualParametrization.realize`` are looked up on their classes.

A span is ``[name, caller, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 for the root).  Spans stay in memory and are written
out when the run ends.  A layer's self time is the duration of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time

LAYERS = ("cli", "matrixio", "numerics", "frames", "sparsity", "spectral")

# (per-layer metric name, unit, better); the order is the report's order
METRICS = [
    ("numerics.rank_calls", "count", "lower"),
    ("numerics.rank_ms", "ms", "lower"),
    ("numerics.nullspace_calls", "count", "lower"),
    ("numerics.nullspace_ms", "ms", "lower"),
    ("numerics.svd_calls", "count", "lower"),
    ("numerics.svd_ms", "ms", "lower"),
    ("numerics.singular_values_ms", "ms", "lower"),
    ("sparsity.self_ms", "ms", "lower"),
    ("sparsity.useful_ratio", "ratio", "higher"),
    ("sparsity.duals_enumerated", "count", "higher"),
    ("frames.frame_builds", "count", "lower"),
    ("frames.frame_build_ms", "ms", "lower"),
    ("frames.realize_ms", "ms", "lower"),
    ("frames.is_dual_ms", "ms", "lower"),
    ("spectral.self_ms", "ms", "lower"),
    ("matrixio.read_ms", "ms", "lower"),
    ("matrixio.entries_parsed", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.report_kb", "KiB", "lower"),
    ("cli.entries_reported", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """Spans and counts of the command being traced."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def reset(self):
        self.spans, self.counts, self._stack = [], {}, []

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def call(self, name, caller, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, caller, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()


def _wrap(tracer, name, caller, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, caller, fn, args, kwargs)
        if counter:
            tracer.count(counter[0], counter[1](result))
        return result
    return wrapper


def _count_only(tracer, name, measure, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(name, measure(result))
        return result
    return wrapper


def install(tracer, pkg):
    """Wrap the layer boundaries of the imported package; returns an undo."""
    cli, numerics, frames = pkg.cli, pkg.numerics, pkg.frames
    sparsity, spectral = pkg.sparsity, pkg.spectral
    patches = [
        (cli, "read_matrix", _wrap(
            tracer, "matrixio.read", "cli", cli.read_matrix,
            ("matrixio.entries_parsed", lambda m: m.size))),
        (numerics, "svd", _wrap(tracer, "numerics.svd", None, numerics.svd)),
        (numerics, "singular_values", _wrap(
            tracer, "numerics.singular_values", None, numerics.singular_values)),
        (sparsity, "rank_tol", _wrap(
            tracer, "numerics.rank", "sparsity", sparsity.rank_tol)),
        (frames, "rank_tol", _wrap(
            tracer, "numerics.rank", "frames", frames.rank_tol)),
        (sparsity, "nullspace_basis", _wrap(
            tracer, "numerics.nullspace", "sparsity", sparsity.nullspace_basis)),
        (frames.Frame, "__init__", _wrap(
            tracer, "frames.frame_build", None, frames.Frame.__init__)),
        (frames.DualParametrization, "realize", _wrap(
            tracer, "frames.realize", None, frames.DualParametrization.realize)),
        (cli, "is_dual", _wrap(tracer, "frames.is_dual", "cli", cli.is_dual)),
        (sparsity, "sparsest_dual", _wrap(
            tracer, "sparsity.sparsest_dual", "cli", sparsity.sparsest_dual)),
        (sparsity, "enumerate_sparsest_duals", _wrap(
            tracer, "sparsity.enumerate", "cli",
            sparsity.enumerate_sparsest_duals,
            ("sparsity.duals_enumerated", len))),
        (spectral, "tight_dual", _wrap(
            tracer, "spectral.tight_dual", "cli", spectral.tight_dual)),
        # entry formatting stays in cli's self time; only its volume is counted
        (cli, "_matrix_json", _count_only(
            tracer, "cli.entries_reported", lambda rows: sum(map(len, rows)),
            cli._matrix_json)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    for obj, attr, wrapper in patches:
        setattr(obj, attr, wrapper)

    def undo():
        for obj, attr, original in saved:
            setattr(obj, attr, original)
    return undo


def command_metrics(spans, counts, report_bytes, certified_supports, scale=1.0):
    """Per-layer numbers of one traced command.

    ``spans[0]`` is the root ``cli`` span around ``cli.main``.  Times are
    multiplied by ``scale``, the command's factor to the reference speed.
    """
    ms = 1e3 * scale
    child_ms = [0.0] * len(spans)
    for name, _, start, end, parent in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * ms
    total = {}
    calls = {}
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for i, (name, caller, start, end, _) in enumerate(spans):
        dur = (end - start) * ms
        key = name if caller is None else f"{name}@{caller}"
        for k in {name, key}:
            total[k] = total.get(k, 0.0) + dur
            calls[k] = calls.get(k, 0) + 1
        self_ms[name.split(".")[0]] += dur - child_ms[i]
    rank_from_sparsity = calls.get("numerics.rank@sparsity", 0)
    return {
        "numerics.rank_calls": calls.get("numerics.rank", 0),
        "numerics.rank_ms": total.get("numerics.rank", 0.0),
        "numerics.nullspace_calls": calls.get("numerics.nullspace", 0),
        "numerics.nullspace_ms": total.get("numerics.nullspace", 0.0),
        "numerics.svd_calls": calls.get("numerics.svd", 0),
        "numerics.svd_ms": total.get("numerics.svd", 0.0),
        "numerics.singular_values_ms": total.get("numerics.singular_values", 0.0),
        "sparsity.self_ms": self_ms["sparsity"],
        "sparsity.useful_ratio": (
            certified_supports / rank_from_sparsity if rank_from_sparsity else 0.0
        ),
        "sparsity.duals_enumerated": counts.get("sparsity.duals_enumerated", 0),
        "frames.frame_builds": calls.get("frames.frame_build", 0),
        "frames.frame_build_ms": total.get("frames.frame_build", 0.0),
        "frames.realize_ms": total.get("frames.realize", 0.0),
        "frames.is_dual_ms": total.get("frames.is_dual", 0.0),
        "spectral.self_ms": self_ms["spectral"],
        "matrixio.read_ms": total.get("matrixio.read", 0.0),
        "matrixio.entries_parsed": counts.get("matrixio.entries_parsed", 0),
        "cli.self_ms": self_ms["cli"],
        "cli.report_kb": report_bytes / 1024,
        "cli.entries_reported": counts.get("cli.entries_reported", 0),
    }


def layer_medians(per_command, untraced_p50_ms, traced_p50_ms):
    """Median of each per-layer number over the traced commands, plus the
    tracing overhead against the untraced median latency."""
    out = {
        name: statistics.median(m[name] for m in per_command)
        for name, _, _ in METRICS if name != "trace.overhead_pct"
    }
    out["trace.overhead_pct"] = 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0)
    return out
