"""The benchmark's workloads: seeded input files, the CLI command each input
is run with, and the check its output must pass.

Every workload runs one command kind on one input class, so the latencies
of a run come from one cost mode.  Inputs depend only on the seed and the
workload, and are written byte for byte the same for the same seed.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Case:
    """One input file and what the checks need to know about it."""

    path: str
    matrix: object  # float/complex ndarray, or list of int rows
    reference_fn: Callable | None = None

    @functools.cached_property
    def reference(self):
        """Independent expected values, computed on first use, outside the
        timed window."""
        return self.reference_fn(self.matrix)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases_per_round: int
    draw: Callable  # (rng) -> matrix
    header: str
    fmt: Callable  # entry -> str
    args: tuple
    check: Callable
    reference: Callable | None = None

    def build(self, seed, directory):
        """Draw the seeded inputs and write them as MatrixFiles."""
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        cases = []
        for i in range(self.cases_per_round):
            mat = self.draw(rng)
            path = os.path.join(directory, f"{self.name}-{i:03d}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(f"# field={self.header}\n")
                for row in mat:
                    fh.write(",".join(self.fmt(x) for x in row) + "\n")
            cases.append(Case(path, mat, self.reference))
        return cases

    def argv(self, case):
        return [self.args[0], case.path, *self.args[1:]]


def _gaussian_5x10(rng):
    return rng.standard_normal((5, 10))


def _full_rank_int_5x9(rng):
    while True:
        rows = rng.integers(-3, 4, size=(5, 9)).tolist()
        if checks.int_rank(rows)[0] == 5:
            return rows


def _generic_int_3x6(rng):
    # the C(m,n)^n count holds when Phi and every row-deleted Phi^(j) are in
    # general position; redraw the rare frame that is not
    while True:
        rows = rng.integers(-50, 51, size=(3, 6)).tolist()
        if checks.in_general_position(rows) and all(
            checks.in_general_position(rows[:j] + rows[j + 1:]) for j in range(3)
        ):
            return rows


def _gabor_32(rng):
    n = 32
    window = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t = np.arange(n)
    cols = [
        np.roll(window, k) * np.exp(2j * np.pi * l * t / n)
        for k in range(n) for l in range(n)
    ]
    return np.column_stack(cols)


def _fmt_float(x):
    return repr(float(x))


def _fmt_int(x):
    return str(int(x))


def _fmt_complex(z):
    # positional digits: the parser rejects an exponent with a sign in the
    # imaginary part ("1.5-5.6e-05i"), which repr writes for |im| < 1e-4
    sign = "+" if z.imag >= 0 else "-"
    re = np.format_float_positional(z.real, unique=True, trim="-")
    im = np.format_float_positional(abs(z.imag), unique=True, trim="-")
    return f"{re}{sign}{im}i"


WORKLOADS = [
    Workload(
        name="sparsest-float",
        why="float subset scan with per-subset SVD rank decisions on generic "
            "5x10 Gaussian frames; parsing and report are tiny",
        cases_per_round=8,
        draw=_gaussian_5x10,
        header="real",
        fmt=_fmt_float,
        args=("sparsest", "--json"),
        check=checks.check_sparsest_float,
    ),
    Workload(
        name="sparsest-exact",
        why="exact Fraction elimination on non-generic integer 5x9 frames whose "
            "scans stop at varying cardinalities",
        cases_per_round=128,
        draw=_full_rank_int_5x9,
        header="rational",
        fmt=_fmt_int,
        args=("sparsest", "--exact", "--json"),
        check=checks.check_sparsest_exact,
        reference=checks.row_sparks,
    ),
    Workload(
        name="enumerate-exact",
        why="8000 sparsest duals per generic 3x6 frame: product, sort, "
            "re-validation and a 3 MB report dominate, the scan is tiny",
        cases_per_round=4,
        draw=_generic_int_3x6,
        header="rational",
        fmt=_fmt_int,
        args=("sparsest", "--exact", "--all", "--json"),
        check=checks.check_enumerate_exact,
    ),
    Workload(
        name="tight-gabor",
        why="tight dual of a 32x1024 complex Gabor frame: parsing, one full "
            "SVD and formatting the dual; no subset scan",
        cases_per_round=4,
        draw=_gabor_32,
        header="complex",
        fmt=_fmt_complex,
        args=("tight", "--json"),
        check=checks.check_tight_gabor,
    ),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
BY_NAME = {w.name: w for w in WORKLOADS}
