"""Command-line surface tying the library together.

Matrices travel as MatrixFiles (see matrixio), results as JSON reports with
stable key order.  Exit codes: 0 ok, 2 parse/rank failure, 3 subset budget,
4 no tight dual, 5 bound infeasible, 6 bad spectrum target, malformed
number list, missing generator option or bad surface grid, 7 invalid or
malformed tetris spectrum, 8 enumeration truncated at --limit (the report
is still printed), 9 a numerical kernel failed or a built dual failed its
duality check, 10 an output file could not be written.  An input file that
cannot be read exits 2.
Row/pick indices on the command line are 1-based.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, experiments, numerics, sparsity, spectral, tetris
from .errors import (
    BadTarget,
    BelowCanonical,
    BoundInfeasible,
    DualFramesError,
    InvalidSpectrum,
    NonConvergence,
    NoTightDual,
    ParseError,
    RankDeficient,
    SizeLimit,
    TooManyPicks,
    Truncated,
    UnreadableInput,
    UnwritableOutput,
)
from .frames import (
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

# duality residual ||Psi Phi* - I||_F a built dual must meet
DUAL_CHECK_TOL = 1e-9


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# a report matrix is its rows of entry strings; bench/tracing.py counts the
# entries reported through this name
_matrix_json = format_rows


def _report(command, args, results, tolerances=None, tolerance_dependent=False,
            t0=None, input_path=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "json") and v is not None},
        "inputs_digest": _digest(input_path) if input_path else None,
        "results": results,
        "tolerances": tolerances or {},
        "tolerance_dependent": tolerance_dependent,
        "timing_s": round(time.perf_counter() - t0, 6) if t0 else None,
    }


def _emit(report, as_json, summary_lines):
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in summary_lines:
            print(line)


def _load_frame(path, exact=None, tol=None):
    mat = read_matrix(path)
    if exact is False and numerics.is_rational(mat):
        mat = numerics.to_float(mat)
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


def _count(text):
    """argparse type of ``--limit``: anything but an integer >= 0 exits 2."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


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
    t0 = time.perf_counter()
    frame = _load_frame(args.input)
    sigma = numerics.singular_values(frame.as_float())
    bounds = frame_bounds(frame)
    dual = canonical_dual(frame)
    region = spectral.lambda_region(frame)
    if args.output:
        write_matrix(dual.matrix, args.output)
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
    report = _report("analyze", args, results, t0=t0, input_path=args.input)
    _emit(report, args.json, [
        f"frame: n={frame.n} m={frame.m} field={frame.field}",
        f"singular values: {results['singular_values']}",
        f"frame bounds: A={bounds.lower:.12g} B={bounds.upper:.12g}",
        f"dual set dimension: {results['dual_set_dimension']}",
    ])
    return EXIT_OK


def cmd_sparsest(args):
    t0 = time.perf_counter()
    frame = _load_frame(args.input, exact=args.exact, tol=args.tol)
    kwargs = {"tol": args.tol}
    if args.budget:
        kwargs["budget"] = args.budget
    psi, cert = sparsity.sparsest_dual(frame, **kwargs)
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
    code = EXIT_OK
    if args.all:
        try:
            duals = sparsity.enumerate_sparsest_duals(
                frame, limit=args.limit, **kwargs
            )
        except Truncated as exc:
            print(f"warning: {exc}", file=sys.stderr)
            duals = exc.partial
            code = EXIT_TRUNCATED
        results["all_duals"] = [_matrix_json(d.matrix) for d in duals]
        results["count"] = len(duals)
        if code == EXIT_TRUNCATED:
            results["truncated"] = True
    if args.output:
        write_matrix(psi.matrix, args.output)
    report = _report(
        "sparsest", args, results,
        tolerances={"rank": args.tol or "auto"},
        tolerance_dependent=cert.tolerance_dependent,
        t0=t0, input_path=args.input,
    )
    lines = [f"sparsity: {results['sparsity']}"]
    if args.all:
        lines.append(f"sparsest duals: {results['count']}"
                     + (" (truncated)" if code == EXIT_TRUNCATED else ""))
    _emit(report, args.json, lines)
    return code


def cmd_tight(args):
    t0 = time.perf_counter()
    frame = _load_frame(args.input)
    dual, spec, s_block = spectral.tight_dual(frame, args.sigma)
    resid = _verified_residual(frame, dual)
    measured = numerics.singular_values(dual.matrix)
    if args.output:
        write_matrix(dual.matrix, args.output)
    results = {
        "sigma_psi": spec.sigma_psi,
        "frame_bound": spec.sigma_psi ** 2,
        "case": spec.case,
        "p": spec.p,
        "s_block": _matrix_json(s_block),
        "duality_residual": resid,
        "measured_spectrum": [float(s) for s in measured],
        "dual": _matrix_json(dual.matrix),
    }
    report = _report("tight", args, results, t0=t0, input_path=args.input)
    # at most n of the n x (m - n) entries are nonzero
    nonzero = " ".join(f"({i}, {j}, {results['s_block'][i][j]})"
                       for i, j in np.argwhere(s_block).tolist())
    _emit(report, args.json, [
        f"tight dual with sigma_psi = {spec.sigma_psi:.12g} ({spec.case})",
        f"s block: {s_block.shape[0]}x{s_block.shape[1]}, "
        f"nonzero (row, col, value): {nonzero or 'none'}",
    ])
    return EXIT_OK


def cmd_prescribe(args):
    t0 = time.perf_counter()
    frame = _load_frame(args.input)
    picks = {}
    for part in args.picks.split(","):
        idx, _, val = part.partition("=")
        try:
            picks[int(idx) - 1] = float(val)
        except ValueError as exc:
            raise BadTarget(f"bad pick {part!r}") from exc
    dual = spectral.prescribed_spectrum_dual(frame, picks)
    resid = _verified_residual(frame, dual)
    measured = numerics.singular_values(dual.matrix)
    if args.output:
        write_matrix(dual.matrix, args.output)
    results = {
        "requested": {str(i + 1): q for i, q in sorted(picks.items())},
        "measured_spectrum": [float(s) for s in measured],
        "duality_residual": resid,
        "dual": _matrix_json(dual.matrix),
    }
    report = _report("prescribe", args, results, t0=t0, input_path=args.input)
    _emit(report, args.json, [
        f"measured spectrum: {results['measured_spectrum']}",
    ])
    return EXIT_OK


def cmd_feasible(args):
    t0 = time.perf_counter()
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
    report = _report("feasible", args, results, t0=t0, input_path=args.input)
    _emit(report, args.json, [
        f"feasible={str(st.feasible).lower()} "
        f"constructive={str(st.constructive).lower()}",
    ])
    return EXIT_OK


def cmd_tetris(args):
    t0 = time.perf_counter()
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
    if args.output:
        write_matrix(frame.matrix, args.output)
    if args.dual:
        dual = tetris.tetris_sparse_dual(plan)
        results["dual"] = _matrix_json(dual.matrix)
        if args.dual_output:
            write_matrix(dual.matrix, args.dual_output)
    report = _report("tetris", args, results, t0=t0)
    _emit(report, args.json, [
        f"tetris frame {plan.n}x{plan.m}: k_hat={plan.k_hat} "
        f"sparsest dual sparsity {results['sparsity']}",
    ])
    return EXIT_OK


def cmd_random(args):
    t0 = time.perf_counter()
    rep = experiments.genericity_trial(
        args.n, args.m, args.trials, args.seed
    )
    results = {
        "n": rep.n, "m": rep.m, "trials": rep.trials, "seed": rep.seed,
        "count_in_P": rep.count_in_P,
        "count_sparsity_n2": rep.count_sparsity_n2,
        "failures": rep.failures,
        "boundary": rep.boundary,
    }
    report = _report(
        "random", args, results, tolerance_dependent=True, t0=t0
    )
    _emit(report, args.json, [
        f"{rep.count_sparsity_n2}/{rep.trials} trials reached sparsity n^2 "
        f"({rep.count_in_P} in general position)",
    ])
    return EXIT_OK


def cmd_surface(args):
    t0 = time.perf_counter()
    frame = _load_frame(args.input)
    s_range = _float_list(args.range, BadTarget)
    if len(s_range) != 2:
        raise BadTarget(f"--range needs lo,hi, got {args.range!r}")
    table = experiments.surface_2x3(frame, s_range=s_range, step=args.step)
    out = args.output or "surface.csv"
    write_atomic(out, "s1,s2,lambda1,lambda2\n" + "".join(
        f"{float(s1)!r},{float(s2)!r},{float(l1)!r},{float(l2)!r}\n"
        for s1, s2, l1, l2 in table
    ))
    gap = np.abs(table[:, 2] - table[:, 3])
    k = int(np.argmin(gap))
    results = {
        "rows": len(table),
        "csv": out,
        "min_gap": float(gap[k]),
        "min_gap_at": [float(table[k, 0]), float(table[k, 1])],
    }
    report = _report("surface", args, results, t0=t0, input_path=args.input)
    _emit(report, args.json, [
        f"wrote {len(table)} rows to {out}; min |l1-l2| = {gap[k]:.3g} "
        f"at (s1, s2) = {tuple(results['min_gap_at'])}",
    ])
    return EXIT_OK


# the options each generator reads, as spelled on the command line
_GENERATOR_OPTIONS = {
    "vandermonde": ("--xs", "--ys"),
    "dft": ("-n", "-m"),
    "gabor": ("-n",),
    "gaussian": ("-n", "-m"),
}


def cmd_generate(args):
    t0 = time.perf_counter()
    missing = [opt for opt in _GENERATOR_OPTIONS[args.generator]
               if getattr(args, opt.lstrip("-")) is None]
    if missing:
        raise BadTarget(f"generate {args.generator} needs {' and '.join(missing)}")
    if args.generator == "vandermonde":
        xs = _float_list(args.xs, BadTarget)
        ys = _float_list(args.ys, BadTarget)
        frame = experiments.vandermonde_frame(xs, ys)
    elif args.generator == "dft":
        frame = experiments.partial_dft_frame(args.n, args.m)
    elif args.generator == "gabor":
        rng = np.random.default_rng(args.seed)
        window = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
        frame = experiments.gabor_frame(window)
    else:
        rng = np.random.default_rng(args.seed)
        frame = experiments.sample_gaussian_frame(args.n, args.m, rng)
    out = args.output or f"{args.generator}.csv"
    write_matrix(frame.matrix, out)
    results = {"n": frame.n, "m": frame.m, "file": out}
    report = _report("generate", args, results, t0=t0)
    _emit(report, args.json, [f"wrote {frame.n}x{frame.m} frame to {out}"])
    return EXIT_OK


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
    sp.add_argument("--limit", type=_count,
                    help="cap (>= 0) for --all enumeration")
    sp.add_argument("--exact", action="store_true", default=None,
                    help="require the exact rational path (default: decided by the file)")
    sp.add_argument("--tol", type=float, help="rank tolerance on the floating path")
    sp.add_argument("--budget", type=int,
                    help="subset search budget in (row, subset) pairs examined")
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
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
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
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_generate)

    return p


_EXIT_CODES = [
    ((ParseError, RankDeficient, UnreadableInput), EXIT_NOT_A_FRAME),
    ((SizeLimit,), EXIT_SIZE_LIMIT),
    ((NoTightDual,), EXIT_NO_TIGHT_DUAL),
    ((BoundInfeasible, BelowCanonical, TooManyPicks), EXIT_BOUND_INFEASIBLE),
    ((BadTarget,), EXIT_BAD_TARGET),
    ((InvalidSpectrum,), EXIT_INVALID_SPECTRUM),
    ((NonConvergence,), EXIT_NON_CONVERGENCE),
    ((UnwritableOutput,), EXIT_UNWRITABLE_OUTPUT),
]


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DualFramesError as exc:
        prefix = "not a frame: " if isinstance(exc, RankDeficient) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
