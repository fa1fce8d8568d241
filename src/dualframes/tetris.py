"""Spectral tetris frames, their closed-form sparsest-dual sparsity, and the
optimal 1-/2-sparse dual.

The staircase is driven entirely by exact rational bookkeeping: each
eigenvalue is snapped to a nearby rational (within 1e-9), so membership of a
partial sum in the integers is decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSpectrum
from .frames import Frame

SNAP_TOL = 1e-9


def _snap_rational(x):
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    f = Fraction(x).limit_denominator(10 ** 6)
    if abs(float(f) - float(x)) > SNAP_TOL:
        raise InvalidSpectrum(f"eigenvalue {x} is not rational within {SNAP_TOL}")
    return f


@dataclass
class RowLayout:
    """Column positions of one staircase row in the realized frame."""

    ones: list[int]
    block: tuple[int, int] | None  # columns of B_j (shared with row j+1)
    prev_block: tuple[int, int] | None  # columns of B_{j-1} entering row j


@dataclass
class TetrisPlan:
    lambdas: list[Fraction]
    n: int
    m: int
    m_counts: list[int]  # number of ones in each row
    residuals: list[Fraction]  # r_j in [0, 1)
    k_list: list[int]  # k_0 = 0, ..., k_mu = n
    K: frozenset
    mu: int
    I: frozenset
    J: frozenset
    k_hat: int
    blocks: dict  # j (not in K) -> (a_j, b_j) as floats
    layout: list[RowLayout]


def tetris_plan(lambdas):
    """Bookkeeping for STF(n, m, lambda): staircase splits, the sets I and J,
    and the basis-column count k_hat = 2 mu + |J| - |I|."""
    lams = [_snap_rational(x) for x in lambdas]
    n = len(lams)
    if n == 0:
        raise InvalidSpectrum("empty eigenvalue sequence")
    if any(lam < 2 for lam in lams):
        raise InvalidSpectrum("every eigenvalue must be >= 2")
    total = sum(lams)
    if total.denominator != 1:
        raise InvalidSpectrum(f"eigenvalue sum {total} is not an integer")
    m = int(total)

    # partial-sum splits: k_i = first k > k_{i-1} with sum_{j<=k} integral
    prefix = [Fraction(0)]
    for lam in lams:
        prefix.append(prefix[-1] + lam)
    k_list = [0] + [k for k in range(1, n + 1) if prefix[k].denominator == 1]
    K = frozenset(k_list)
    mu = len(k_list) - 1

    # per-row ones count and residual
    m_counts, residuals = [], []
    for j in range(1, n + 1):
        if (j - 1) in K:
            t = lams[j - 1]
        else:
            t = lams[j - 1] - 2 + residuals[-1]
        r = t - math.floor(t)
        m_counts.append(int(t - r))
        residuals.append(r)

    # I: consecutive splits; J: interior rows whose ones count survives
    I = frozenset(
        i for i in range(mu) if k_list[i + 1] == k_list[i] + 1
    )
    J = set()
    for i in range(mu):
        lo, hi = k_list[i], k_list[i + 1]
        for j0 in range(lo + 2, hi):
            seg = sum(lams[lo:j0])
            seg_prev = sum(lams[lo:j0 - 1])
            if seg - (math.floor(seg_prev) + 2) >= 1:
                J.add(j0)
    J = frozenset(J)
    k_hat = 2 * mu + len(J) - len(I)

    blocks = {
        j: (math.sqrt(residuals[j - 1] / 2), math.sqrt(1 - residuals[j - 1] / 2))
        for j in range(1, n + 1)
        if j not in K
    }

    # column layout of the staircase, left to right
    layout = []
    pos = 0
    prev_block_cols = None
    for j in range(1, n + 1):
        prev = None
        if (j - 1) not in K:
            prev = prev_block_cols
            pos += 2
        ones = list(range(pos, pos + m_counts[j - 1]))
        pos += m_counts[j - 1]
        block = None
        if j not in K:
            block = (pos, pos + 1)
        prev_block_cols = block
        layout.append(RowLayout(ones=ones, block=block, prev_block=prev))
    assert pos == m, "column bookkeeping does not total m"

    return TetrisPlan(
        lambdas=lams, n=n, m=m, m_counts=m_counts, residuals=residuals,
        k_list=k_list, K=K, mu=mu, I=I, J=J, k_hat=k_hat, blocks=blocks,
        layout=layout,
    )


def tetris_frame(plan):
    """Realize the staircase matrix: m_j ones per row plus the 2x2 blocks
    [[a, a], [b, -b]] straddling consecutive rows."""
    mat = np.zeros((plan.n, plan.m))
    for j in range(1, plan.n + 1):
        row = plan.layout[j - 1]
        for c in row.ones:
            mat[j - 1, c] = 1.0
        if row.block is not None:
            a, _ = plan.blocks[j]
            mat[j - 1, row.block[0]] = a
            mat[j - 1, row.block[1]] = a
        if row.prev_block is not None:
            _, b = plan.blocks[j - 1]
            mat[j - 1, row.prev_block[0]] = b
            mat[j - 1, row.prev_block[1]] = -b
    return Frame(mat)


def tetris_sparsity(plan):
    """Sparsest-dual sparsity k_hat + 2(n - k_hat) = 2n - k_hat."""
    return 2 * plan.n - plan.k_hat


def tetris_sparse_dual(plan):
    """Optimal sparse dual built row by row.

    Rows hosting a ones-column are 1-sparse (indicator of that column); the
    rest are 2-sparse, supported on their own block B_j (weights 1/(2 a_j)).

    Every row without a block has a ones-column.  By induction on j,
    r_j = frac(sum_{i<=j} lambda_i), so j - 1 not in K gives r_{j-1} > 0.
    Row j has no block exactly when j is in K.  If j - 1 is in K too, then
    t_j = lambda_j >= 2.  Otherwise t_j = lambda_j - 2 + r_{j-1} differs
    from the integer sum_{i<=j} lambda_i by an integer, so it is a positive
    integer, as it exceeds lambda_j - 2 >= 0.  Either way m_j = floor(t_j)
    >= 1.
    """
    psi = np.zeros((plan.n, plan.m))
    for j in range(1, plan.n + 1):
        row = plan.layout[j - 1]
        if row.ones:
            psi[j - 1, row.ones[0]] = 1.0
        else:
            a, _ = plan.blocks[j]
            psi[j - 1, row.block[0]] = 1.0 / (2 * a)
            psi[j - 1, row.block[1]] = 1.0 / (2 * a)
    return Frame(psi)
