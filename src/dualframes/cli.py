"""Command-line surface tying the library together.

Matrices travel as MatrixFiles (see matrixio), results as JSON reports with
stable key order.  Exit codes: 0 ok, 2 parse/rank failure, 3 subset budget,
4 no tight dual, 5 bound infeasible, 6 bad spectrum target, malformed
number list, missing generator option, bad surface grid, or a shape,
node, window or size a generator or surface cannot take, 7 invalid or
malformed tetris spectrum, 8 enumeration truncated at --limit (the report
is still printed), 9 a numerical kernel failed, a dual or a dual row failed
its duality check, or a built dual is no frame, 10 an output file could not
be written.  An input file that cannot be read exits 2.
Row/pick indices on the command line are 1-based.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, experiments, numerics, sparsity, spectral, tetris
from .errors import (
    BadShape,
    BadTarget,
    BelowCanonical,
    BoundInfeasible,
    DualFramesError,
    DuplicateNode,
    InvalidSpectrum,
    NonConvergence,
    NoTightDual,
    ParseError,
    RankDeficient,
    ShapeMismatch,
    SizeLimit,
    TooManyPicks,
    Truncated,
    UnreadableInput,
    UnwritableOutput,
    ZeroWindow,
)
from .frames import (
    DUAL_CHECK_TOL,
    Frame,
    canonical_dual,
    dual_set_dimension,
    frame_bounds,
    is_dual,
)
from .matrixio import format_rows, read_matrix, write_atomic, write_matrix

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NOT_A_FRAME = 2
EXIT_SIZE_LIMIT = 3
EXIT_NO_TIGHT_DUAL = 4
EXIT_BOUND_INFEASIBLE = 5
EXIT_BAD_TARGET = 6
EXIT_INVALID_SPECTRUM = 7
EXIT_TRUNCATED = 8
EXIT_NON_CONVERGENCE = 9
EXIT_UNWRITABLE_OUTPUT = 10


# a report matrix is its rows of entry strings; bench/tracing.py counts the
# entries reported through this name
_matrix_json = format_rows


class _Outcome(NamedTuple):
    """What a command computed.  ``main`` writes ``files``, (matrix, path)
    pairs in order, skipping a None path, then prints ``lines`` or, with
    ``--json``, the report around ``results``."""

    results: dict
    lines: list
    files: list = ()
    code: int = EXIT_OK
    tolerances: dict | None = None
    tolerance_dependent: bool = False


def _load_frame(path, exact=None, tol=None):
    mat = read_matrix(path)
    if exact and not numerics.is_rational(mat):
        raise ParseError("--exact requires rational (p/q or integer) entries")
    return Frame(mat, tol=tol)


def _float_list(text, error):
    """Floats of a comma-separated command-line list; a malformed entry
    raises ``error``, so it maps to that error's exit code."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise error(f"bad number list {text!r}") from exc


def _at_least(lo):
    """argparse type of an integer option: anything but an integer >= lo
    exits 2."""
    def parse(text):
        try:
            if int(text) >= lo:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {lo}, got {text!r}")
    return parse


def _positive_float(text):
    """argparse type of a threshold option: anything but a finite number
    > 0 exits 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and value > 0:
        return value
    raise argparse.ArgumentTypeError(
        f"expected a finite number > 0, got {text!r}")


def _verified_residual(frame, dual):
    """Duality residual of a built dual; NonConvergence if over the limit."""
    ok, resid = is_dual(frame, dual, DUAL_CHECK_TOL)
    if not ok:
        raise NonConvergence(
            f"built dual fails verification: duality residual {resid:.3e} "
            f"> {DUAL_CHECK_TOL:g}"
        )
    return resid


def cmd_analyze(args):
    frame = _load_frame(args.input)
    sigma = numerics.singular_values(frame.as_float())
    bounds = frame_bounds(frame)
    dual = canonical_dual(frame)
    region = spectral.lambda_region(frame)
    results = {
        "n": frame.n,
        "m": frame.m,
        "field": frame.field,
        "singular_values": [float(s) for s in sigma],
        "frame_bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "dual_set_dimension": dual_set_dimension(frame),
        "lambda_region": [
            [lo, None if hi == float("inf") else hi] for lo, hi in region
        ],
        "canonical_dual": _matrix_json(dual.matrix),
    }
    return _Outcome(results, [
        f"frame: n={frame.n} m={frame.m} field={frame.field}",
        f"singular values: {results['singular_values']}",
        f"frame bounds: A={bounds.lower:.12g} B={bounds.upper:.12g}",
        f"dual set dimension: {results['dual_set_dimension']}",
    ], [(dual.matrix, args.output)])


def cmd_sparsest(args):
    frame = _load_frame(args.input, exact=args.exact, tol=args.tol)
    budget = sparsity.DEFAULT_BUDGET if args.budget is None else args.budget
    psi, cert = sparsity.sparsest_dual(frame, budget)
    zero_cols = [
        c for c in range(frame.m) if not np.any(psi.matrix[:, c] != 0)
    ]
    results = {
        "sparsity": cert.total_sparsity,
        "certificate": [
            {"row": rc.row, "spark_j": rc.spark_j, "support": list(rc.support)}
            for rc in cert.rows
        ],
        # zero columns discard the corresponding frame coefficients
        "degenerate": bool(zero_cols),
        "zero_columns": zero_cols,
        "dual": _matrix_json(psi.matrix),
    }
    lines = [f"sparsity: {cert.total_sparsity}"]
    code = EXIT_OK
    if args.all:
        try:
            duals = sparsity.enumerate_sparsest_duals(frame, args.limit, budget)
        except Truncated as exc:
            print(f"warning: {exc}", file=sys.stderr)
            duals = exc.partial
            code = EXIT_TRUNCATED
        # each candidate row is formatted once; a dual picks one per row
        formatted = [_matrix_json(np.vstack(cands)) for cands in duals.rows]
        results["all_duals"] = [list(d) for d in itertools.islice(
            itertools.product(*formatted), len(duals))]
        results["count"] = len(duals)
        if code == EXIT_TRUNCATED:
            results["truncated"] = True
        lines.append(f"sparsest duals: {len(duals)}"
                     + (" (truncated)" if code == EXIT_TRUNCATED else ""))
    return _Outcome(results, lines, [(psi.matrix, args.output)], code=code,
                    tolerances={"rank": frame.tol},
                    tolerance_dependent=cert.tolerance_dependent)


def cmd_tight(args):
    frame = _load_frame(args.input)
    dual, spec, s_block = spectral.tight_dual(frame, args.sigma)
    resid = _verified_residual(frame, dual)
    results = {
        "sigma_psi": spec.sigma_psi,
        "frame_bound": spec.sigma_psi ** 2,
        "case": spec.case,
        "p": spec.p,
        "s_block": _matrix_json(s_block),
        "duality_residual": resid,
        "measured_spectrum": numerics.singular_values(dual.matrix).tolist(),
        "dual": _matrix_json(dual.matrix),
    }
    # at most n of the n x (m - n) entries are nonzero
    nonzero = " ".join(f"({i}, {j}, {results['s_block'][i][j]})"
                       for i, j in np.argwhere(s_block).tolist())
    return _Outcome(results, [
        f"tight dual with sigma_psi = {spec.sigma_psi:.12g} ({spec.case})",
        f"s block: {s_block.shape[0]}x{s_block.shape[1]}, "
        f"nonzero (row, col, value): {nonzero or 'none'}",
    ], [(dual.matrix, args.output)])


def cmd_prescribe(args):
    frame = _load_frame(args.input)
    picks = {}
    for part in args.picks.split(","):
        idx, _, val = part.partition("=")
        try:
            i, q = int(idx), float(val)
        except ValueError as exc:
            raise BadTarget(f"bad pick {part!r}") from exc
        if not 1 <= i <= frame.n:
            raise BadTarget(f"pick index {i} outside [1, {frame.n}]")
        if i - 1 in picks:
            raise BadTarget(f"pick index {i} given twice")
        picks[i - 1] = q
    dual = spectral.prescribed_spectrum_dual(frame, picks)
    resid = _verified_residual(frame, dual)
    results = {
        "requested": {str(i + 1): q for i, q in sorted(picks.items())},
        "measured_spectrum": numerics.singular_values(dual.matrix).tolist(),
        "duality_residual": resid,
        "dual": _matrix_json(dual.matrix),
    }
    return _Outcome(results, [
        f"measured spectrum: {results['measured_spectrum']}",
    ], [(dual.matrix, args.output)])


def cmd_feasible(args):
    frame = _load_frame(args.input)
    target = _float_list(args.spectrum, BadTarget)
    st = spectral.spectrum_feasible(frame, target)
    results = {
        "target": list(st.values),
        "feasible": st.feasible,
        "constructive": st.constructive,
        "violated": [
            {"index": i, "bound": b, "side": side} for i, b, side in st.violated
        ],
    }
    return _Outcome(results, [
        f"feasible={str(st.feasible).lower()} "
        f"constructive={str(st.constructive).lower()}",
    ])


def cmd_tetris(args):
    eigs = _float_list(args.eigs, InvalidSpectrum)
    plan = tetris.tetris_plan(eigs)
    frame = tetris.tetris_frame(plan)
    results = {
        "n": plan.n,
        "m": plan.m,
        "k_list": plan.k_list,
        "mu": plan.mu,
        "I": sorted(plan.I),
        "J": sorted(plan.J),
        "k_hat": plan.k_hat,
        "sparsity": tetris.tetris_sparsity(plan),
        "frame": _matrix_json(frame.matrix),
    }
    files = [(frame.matrix, args.output)]
    if args.dual:
        dual = tetris.tetris_sparse_dual(plan)
        results["dual"] = _matrix_json(dual.matrix)
        files.append((dual.matrix, args.dual_output))
    return _Outcome(results, [
        f"tetris frame {plan.n}x{plan.m}: k_hat={plan.k_hat} "
        f"sparsest dual sparsity {results['sparsity']}",
    ], files)


def cmd_random(args):
    rep = experiments.genericity_trial(args.n, args.m, args.trials, args.seed)
    results = {
        "n": rep.n, "m": rep.m, "trials": rep.trials, "seed": rep.seed,
        "count_in_P": rep.count_in_P,
        "count_sparsity_n2": rep.count_sparsity_n2,
        "failures": rep.failures,
        "boundary": rep.boundary,
    }
    return _Outcome(results, [
        f"{rep.count_sparsity_n2}/{rep.trials} trials reached sparsity n^2 "
        f"({rep.count_in_P} in general position)",
    ], tolerance_dependent=True)


def cmd_surface(args):
    frame = _load_frame(args.input)
    s_range = _float_list(args.range, BadTarget)
    if len(s_range) != 2:
        raise BadTarget(f"--range needs lo,hi, got {args.range!r}")
    table = experiments.surface_2x3(frame, s_range=s_range, step=args.step)
    out = args.output or "surface.csv"
    write_atomic(out, "s1,s2,lambda1,lambda2\n" + "".join(
        ",".join(row) + "\n" for row in format_rows(table)))
    gap = np.abs(table[:, 2] - table[:, 3])
    k = int(np.argmin(gap))
    results = {
        "rows": len(table),
        "csv": out,
        "min_gap": float(gap[k]),
        "min_gap_at": [float(table[k, 0]), float(table[k, 1])],
    }
    return _Outcome(results, [
        f"wrote {len(table)} rows to {out}; min |l1-l2| = {gap[k]:.3g} "
        f"at (s1, s2) = {tuple(results['min_gap_at'])}",
    ])


# the options each generator reads, as spelled on the command line
_GENERATOR_OPTIONS = {
    "vandermonde": ("--xs", "--ys"),
    "dft": ("-n", "-m"),
    "gabor": ("-n",),
    "gaussian": ("-n", "-m"),
}


def cmd_generate(args):
    missing = [opt for opt in _GENERATOR_OPTIONS[args.generator]
               if getattr(args, opt.lstrip("-")) is None]
    if missing:
        raise BadTarget(f"generate {args.generator} needs {' and '.join(missing)}")
    rng = np.random.default_rng(args.seed)  # read by gabor and gaussian
    if args.generator == "vandermonde":
        xs = _float_list(args.xs, BadTarget)
        ys = _float_list(args.ys, BadTarget)
        frame = experiments.vandermonde_frame(xs, ys)
    elif args.generator == "dft":
        frame = experiments.partial_dft_frame(args.n, args.m)
    elif args.generator == "gabor":
        if args.n < 0:  # -n 0 draws an empty window, which is ZeroWindow
            raise BadShape(f"gabor window length must be >= 1, got {args.n}")
        window = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
        frame = experiments.gabor_frame(window)
    else:
        frame = experiments.sample_gaussian_frame(args.n, args.m, rng)
    out = args.output or f"{args.generator}.csv"
    return _Outcome({"n": frame.n, "m": frame.m, "file": out},
                    [f"wrote {frame.n}x{frame.m} frame to {out}"],
                    [(frame.matrix, out)])


def build_parser():
    p = argparse.ArgumentParser(
        prog="dualframes",
        description="Analyze and construct dual frames of finite frames.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, output=True):
        sp.add_argument("--json", action="store_true", help="full JSON report")
        if output:
            sp.add_argument("-o", "--output", help="write resulting matrix here")

    sp = sub.add_parser("analyze", help="bounds, spectrum, canonical dual")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sparsest", help="sparsest dual with certificate")
    sp.add_argument("input")
    sp.add_argument("--all", action="store_true", help="enumerate all sparsest duals")
    sp.add_argument("--limit", type=_at_least(0),
                    help="cap (>= 0) for --all enumeration")
    sp.add_argument("--exact", action="store_true", default=None,
                    help="require the exact rational path (default: decided by the file)")
    sp.add_argument("--tol", type=_positive_float,
                    help="rank threshold (finite, > 0) of every floating-path "
                         "decision (default 1e-10 * ||Phi||_F)")
    sp.add_argument("--budget", type=_at_least(1),
                    help="subset search budget (>= 1) in (row, subset) pairs "
                         "examined (default 20,000,000)")
    common(sp)
    sp.set_defaults(func=cmd_sparsest)

    sp = sub.add_parser("tight", help="tight dual construction")
    sp.add_argument("input")
    sp.add_argument("--sigma", type=float, help="dual singular value (default 1/sigma_n)")
    common(sp)
    sp.set_defaults(func=cmd_tight)

    sp = sub.add_parser("prescribe", help="dual with prescribed singular values")
    sp.add_argument("input")
    sp.add_argument("--picks", required=True, help="i=q,... (1-based indices)")
    common(sp)
    sp.set_defaults(func=cmd_prescribe)

    sp = sub.add_parser("feasible", help="interlacing feasibility of a spectrum")
    sp.add_argument("input")
    sp.add_argument("--spectrum", required=True, help="q1,...,qn non-increasing")
    common(sp, output=False)
    sp.set_defaults(func=cmd_feasible)

    sp = sub.add_parser("tetris", help="spectral tetris frame and sparse dual")
    sp.add_argument("--eigs", required=True, help="lambda1,...,lambdan (each >= 2)")
    sp.add_argument("--dual", action="store_true", help="also build the sparse dual")
    sp.add_argument("--dual-output", help="write the sparse dual here")
    common(sp)
    sp.set_defaults(func=cmd_tetris)

    sp = sub.add_parser("random", help="genericity trials on Gaussian frames")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--trials", type=_at_least(1), default=100,
                    help="number of trials (>= 1, default 100)")
    sp.add_argument("--seed", type=_at_least(0), default=0)
    common(sp, output=False)
    sp.set_defaults(func=cmd_random)

    sp = sub.add_parser("surface", help="2x3 dual eigenvalue surface CSV")
    sp.add_argument("input")
    sp.add_argument("--range", default="-3,3", help="s interval lo,hi")
    sp.add_argument("--step", type=float, default=0.05)
    common(sp)
    sp.set_defaults(func=cmd_surface)

    sp = sub.add_parser("generate", help="frame generators")
    sp.add_argument("generator", choices=list(_GENERATOR_OPTIONS))
    sp.add_argument("--xs", help="vandermonde column nodes")
    sp.add_argument("--ys", help="vandermonde row exponents")
    sp.add_argument("-n", type=int)
    sp.add_argument("-m", type=int)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    common(sp)
    sp.set_defaults(func=cmd_generate)

    return p


_EXIT_CODES = [
    ((ParseError, RankDeficient, UnreadableInput), EXIT_NOT_A_FRAME),
    ((SizeLimit,), EXIT_SIZE_LIMIT),
    ((NoTightDual,), EXIT_NO_TIGHT_DUAL),
    ((BoundInfeasible, BelowCanonical, TooManyPicks), EXIT_BOUND_INFEASIBLE),
    ((BadTarget, BadShape, DuplicateNode, ZeroWindow, ShapeMismatch),
     EXIT_BAD_TARGET),
    ((InvalidSpectrum,), EXIT_INVALID_SPECTRUM),
    ((NonConvergence,), EXIT_NON_CONVERGENCE),
    ((UnwritableOutput,), EXIT_UNWRITABLE_OUTPUT),
]


def main(argv=None):
    """Run one command, write its files, print its summary or its ``--json``
    report, and return the exit code."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        out = args.func(args)
        for matrix, path in out.files:
            if path:
                write_matrix(matrix, path)
    except DualFramesError as exc:
        prefix = "not a frame: " if isinstance(exc, RankDeficient) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1
    if not args.json:
        print(*out.lines, sep="\n")
        return out.code
    path = getattr(args, "input", None)  # tetris, random and generate read none
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest() if path else None
    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "command": args.subcommand,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "json") and v is not None},
        "inputs_digest": digest,
        "results": out.results,
        "tolerances": out.tolerances or {},
        "tolerance_dependent": out.tolerance_dependent,
        "timing_s": round(time.perf_counter() - t0, 6),
    }, indent=2))
    return out.code


if __name__ == "__main__":
    sys.exit(main())
