"""Spark machinery and the exact sparsest-dual solver with certificates.

Spark decisions are discrete, so the exact rational backend is used whenever
the frame carries rational entries; the floating path uses tolerance-based
rank and marks its results tolerance-dependent.  Every subset search runs
through one scanner that walks the column subsets in increasing cardinality
and lexicographic order within a cardinality, which makes every reported
support and every enumerated dual deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import IndexOutOfRange, SizeLimit, SingularSubset, Truncated
from .frames import Frame, row_delete
from .numerics import (
    bareiss_span,
    integer_rows,
    is_rational,
    nullspace_basis,
    rank_tol,
    solve_exact,
    to_float,
)

DEFAULT_BUDGET = 20_000_000
# subsets per stacked rank decision; bounds the memory of one stack
_CHUNK = 2048


@dataclass(frozen=True)
class SparkReport:
    """Spark value plus a minimal dependent column set (None if full spark)."""

    spark: int
    witness: tuple | None
    tolerance_dependent: bool = False


@dataclass
class RowCertificate:
    """Witness for one dual row: support, dependency coefficients, scale."""

    row: int
    spark_j: int
    support: tuple
    coeffs: list
    scale: object  # the nonzero a with psi^j = conj(lambda/a) on the support


@dataclass
class SparsityCertificate:
    rows: list[RowCertificate] = dc_field(default_factory=list)
    tolerance_dependent: bool = False

    @property
    def total_sparsity(self):
        return sum(r.spark_j for r in self.rows)


class _Budget:
    """Subset-search budget; one unit is one (row, subset) pair examined,
    or one subset for a search that decides no rows."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, units, cardinality, rows):
        if self.used + units > self.limit:
            rows = list(rows) or None
            where = f"at cardinality {cardinality}"
            if rows:
                where += f" with rows {rows} still open"
            raise SizeLimit(
                f"subset search budget {self.limit} exceeded {where}",
                budget=self.limit, cardinality=cardinality, rows=rows,
            )
        self.used += units


class _Scanner:
    """Rank decisions over the column subsets of one n-by-m matrix.

    For each subset S it decides rank(A_S) and, for every requested row j,
    rank(A^{(j)}_S) of A_S with row j deleted.  The float path stacks the
    subsets of a chunk into one ``rank_tol`` call for the A_S and one for
    the A^{(j)}_S, each matrix judged by its own threshold.  The exact path
    clears denominators once, then one fraction-free elimination of
    [A_S | I_n] per subset gives both: rank(A^{(j)}_S) = rank(A_S) - 1 when
    e_j lies in span(A_S), and rank(A_S) otherwise.
    """

    def __init__(self, a, budget, tol):
        self.a = a
        self.n, self.m = a.shape
        self.budget = budget
        self.tol = tol
        self.ints = integer_rows(a) if is_rational(a) else None

    def chunks(self, s, rows=()):
        """Charge cardinality s to the budget, then yield
        ``(subsets, full, deleted)`` per chunk of s-subsets in lexicographic
        order: ``full[k]`` = rank(A_S), ``deleted[k, i]`` = rank(A^{(rows[i])}_S).
        """
        self.budget.spend(max(len(rows), 1) * math.comb(self.m, s), s, rows)
        combos = itertools.combinations(range(self.m), s)
        while block := list(itertools.islice(combos, _CHUNK)):
            if self.ints is None:
                yield (block, *self._float_ranks(block, s, rows))
            else:
                yield (block, *self._exact_ranks(block, rows))

    def _float_ranks(self, block, s, rows):
        n = self.n
        idx = np.array(block, dtype=np.intp).reshape(len(block), s)
        stack = self.a[:, idx].transpose(1, 0, 2)
        full = rank_tol(stack, self.tol)
        if not rows:
            return full, np.empty((len(block), 0), dtype=int)
        keep = np.array(
            [[i for i in range(n) if i != j] for j in rows], dtype=np.intp
        )
        deleted = rank_tol(
            stack[:, keep].reshape(len(block) * len(rows), n - 1, s), self.tol
        ).reshape(len(block), len(rows))
        return full, deleted

    def _exact_ranks(self, block, rows):
        full = np.empty(len(block), dtype=int)
        deleted = np.empty((len(block), len(rows)), dtype=int)
        for k, cols in enumerate(block):
            r, in_span = bareiss_span(self.ints, cols)
            full[k] = r
            deleted[k] = [r - in_span[j] for j in rows]
        return full, deleted


def spark(a, budget=DEFAULT_BUDGET, tol=None):
    """Smallest number of linearly dependent columns; m+1 if none exist."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    n, m = a.shape
    exact = is_rational(a)
    r = rank_tol(a, tol)
    if r == m:
        # all columns independent; n+1 convention for invertible square
        return SparkReport(spark=m + 1, witness=None,
                           tolerance_dependent=not exact)
    scan = _Scanner(a, _Budget(budget), tol)
    for s in range(1, r + 2):
        for block, full, _ in scan.chunks(s):
            dependent = np.flatnonzero(full < s)
            if dependent.size:
                return SparkReport(spark=s, witness=block[dependent[0]],
                                   tolerance_dependent=not exact)
    raise AssertionError("unreachable: rank-deficient matrix has a dependent set")


def _row_supports(frame, rows, budget, tol):
    """spark_j, all minimal supports and spark(Phi^{(j)}) of each row j in
    ``rows``, from one pass over the subsets.

    A support S of row j has Phi^{(j)}_S dependent and Phi_S independent,
    i.e. e_j in span(Phi_S); spark_j is the smallest |S| with a support.
    spark(Phi^{(j)}), the smallest |S| with Phi^{(j)}_S dependent, is never
    larger, so the pass meets it while row j is still open.
    Returns {j: (spark_j, supports in lexicographic order, spark(Phi^{(j)}))}.
    """
    scan = _Scanner(frame.matrix, budget, tol)
    found, lower = {}, {}
    open_rows = list(rows)
    for s in range(1, frame.n + 1):
        hits = {j: [] for j in open_rows}
        for block, full, deleted in scan.chunks(s, open_rows):
            dependent = deleted < s
            for i in np.flatnonzero(dependent.any(axis=0)):
                lower.setdefault(open_rows[i], s)
            for k, i in zip(*np.nonzero(dependent & (full == s)[:, None])):
                hits[open_rows[i]].append(block[k])
        found.update((j, (s, c, lower[j])) for j, c in hits.items() if c)
        open_rows = [j for j in open_rows if j not in found]
        if not open_rows:
            return found
    raise AssertionError("no admissible support found; input is not a frame")


def _certify(frame, j, cols, tol):
    """Dependency vector lambda of Phi^{(j)}_S and the scale
    a = sum_k lambda_k phi_{j, c_k} for a support S of row j."""
    block = row_delete(frame, j)[:, cols]
    lam = nullspace_basis(block, tol)[:, 0]
    a = sum(lam[k] * frame.matrix[j, c] for k, c in enumerate(cols))
    return list(lam), a


def generalized_spark(frame, j, budget=DEFAULT_BUDGET, tol=None):
    """spark_j: smallest dependent set of Phi^{(j)} whose columns stay
    independent in Phi."""
    if not 0 <= j < frame.n:
        raise IndexOutOfRange(f"row index {j} outside [0, {frame.n})")
    return _row_supports(frame, [j], _Budget(budget), tol)[j][0]


def generalized_spark_sum(frame, budget=DEFAULT_BUDGET, tol=None):
    """sum_j spark_j, the sparsity of a sparsest dual, from one pass over the
    subsets that decides every row; all rows share one budget."""
    return sparsity_bounds(frame, budget, tol)[1]


def _row_vector(frame, cols, lam, a):
    """Dual row with (psi^j)_k = conj(lambda_k / a) on the support."""
    exact = frame.is_exact
    row = (
        np.array([Fraction(0)] * frame.m, dtype=object)
        if exact
        else np.zeros(frame.m, dtype=frame.matrix.dtype)
    )
    for k, c in enumerate(cols):
        val = lam[k] / a
        row[c] = val.conjugate() if np.iscomplexobj(frame.matrix) else val
    return row


def sparsest_dual(frame, budget=DEFAULT_BUDGET, tol=None):
    """One sparsest dual with a row-by-row certificate.

    Tie-breaking: the lexicographically smallest minimal support per row.
    """
    supports = _row_supports(frame, range(frame.n), _Budget(budget), tol)
    cert = SparsityCertificate(tolerance_dependent=not frame.is_exact)
    rows = []
    for j in range(frame.n):
        s, cands, _ = supports[j]
        cols = cands[0]
        lam, a = _certify(frame, j, cols, tol)
        rows.append(_row_vector(frame, cols, lam, a))
        cert.rows.append(
            RowCertificate(row=j, spark_j=s, support=cols, coeffs=lam, scale=a)
        )
    psi = Frame(np.vstack([r.reshape(1, -1) for r in rows]))
    return psi, cert


def enumerate_sparsest_duals(frame, limit=None, budget=DEFAULT_BUDGET, tol=None):
    """All sparsest duals in flattened entry order: the product of the sorted
    per-row minimal-support solutions (distinct supports give distinct rows),
    taken lazily; past ``limit`` duals, Truncated carries the first ones."""
    supports = _row_supports(frame, range(frame.n), _Budget(budget), tol)
    per_row = [
        sorted((_row_vector(frame, c, *_certify(frame, j, c, tol))
                for c in supports[j][1]), key=tuple)
        for j in range(frame.n)
    ]
    combos = itertools.product(*per_row)
    duals = [Frame(np.vstack(rows)) for rows in itertools.islice(combos, limit)]
    if next(combos, None) is not None:
        raise Truncated(limit, duals)
    return duals


def sparsity_bounds(frame, budget=DEFAULT_BUDGET, tol=None):
    """(lower, exact, upper) = (sum spark(Phi^{(j)}), sum spark_j, n^2).

    Both sums come from one scan in which all rows share one budget:
    spark(Phi^{(j)}) is the first cardinality at which row j meets a
    dependent Phi^{(j)}_S, which the scan reaches no later than spark_j.
    """
    rows = _row_supports(frame, range(frame.n), _Budget(budget), tol).values()
    lower = sum(low for _, _, low in rows)
    return lower, sum(s for s, _, _ in rows), frame.n ** 2


def biorthogonal_dual(frame, cols=None, tol=None):
    """Dual supported on n columns: inverse-adjoint of Phi_J on J, zero off J.

    ``cols=None`` selects the lexicographically first independent n-subset.
    """
    n, m = frame.n, frame.m
    if cols is None:
        chosen = []
        for c in range(m):
            trial = chosen + [c]
            if rank_tol(frame.matrix[:, trial], tol) == len(trial):
                chosen.append(c)
            if len(chosen) == n:
                break
        cols = chosen
    cols = list(cols)
    if len(cols) != n:
        raise SingularSubset(f"need exactly n={n} columns, got {len(cols)}")
    block = frame.matrix[:, cols]
    if frame.is_exact:
        inv = solve_exact(block, np.eye(n, dtype=int).astype(object))
        if inv is None:
            raise SingularSubset(f"columns {cols} are not independent")
        psi_block = np.conjugate(inv).T
        psi = np.array([[Fraction(0)] * m for _ in range(n)], dtype=object)
    else:
        if rank_tol(block, tol) < n:
            raise SingularSubset(f"columns {cols} are not independent")
        inv = np.linalg.inv(to_float(block))
        psi_block = inv.conj().T
        psi = np.zeros((n, m), dtype=psi_block.dtype)
    for k, c in enumerate(cols):
        psi[:, c] = psi_block[:, k]
    return Frame(psi)


def is_general_position(a, budget=DEFAULT_BUDGET, tol=None):
    """True iff every maximal square submatrix has full rank."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    n, m = a.shape
    if n > m:
        raise ValueError("general position is defined for rows <= cols")
    scan = _Scanner(a, _Budget(budget), tol)
    return all(np.all(full == n) for _, full, _ in scan.chunks(n))


def in_P(frame, budget=DEFAULT_BUDGET, tol=None):
    """True iff spark(Phi^{(j)}) = n for all j, i.e. every row-deleted
    submatrix is in general position; implies sparsest-dual sparsity n^2.
    One pass over the (n-1)-subsets decides all rows."""
    scan = _Scanner(frame.matrix, _Budget(budget), tol)
    rows = range(frame.n)
    return all(
        np.all(deleted == frame.n - 1)
        for _, _, deleted in scan.chunks(frame.n - 1, rows)
    )


def nnz(mat, tol=0.0):
    """Number of nonzero entries; exact test on rational matrices."""
    m = mat.matrix if isinstance(mat, Frame) else np.asarray(mat)
    if is_rational(m):
        return int(sum(1 for x in m.flat if x != 0))
    return int(np.sum(np.abs(m) > tol))
