"""Field-generic dense linear algebra kernel.

Two arithmetic backends coexist: exact rational (numpy object arrays of
``fractions.Fraction``) for combinatorial rank/spark decisions, and double
precision floating point for SVD and spectral work.  Rational matrices are
recognised by their object dtype; every entry must then be a Fraction or int.

Every exact rank, span, nullspace and solve runs on one integer kernel:
``integer_rows`` clears each row's denominators, ``_echelon`` eliminates the
integer rows fraction-free (Bareiss), and ``_back_substitute`` solves the
echelon form in integers.  Only the final quotients become Fractions.

Float rank decisions count the singular values above a threshold.  A
matrix's default threshold is ``rank_threshold``: RANK_RTOL times its
Frobenius norm, which costs O(rs) and no SVD.  A Frame fixes one threshold
from its own matrix and passes it to every decision on its column subsets.

The SVD is thin: its right factor is the m-by-min(n, m) V1, and the
orthonormal completion V2 of V1 is applied through Householder reflectors
rather than formed, so no m-by-m matrix is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import FieldMismatch, NonConvergence, ShapeMismatch

DEFAULT_TOL = 1e-10
# default rank threshold relative to the Frobenius norm
RANK_RTOL = 1e-10

FIELD_RATIONAL = "rational"
FIELD_REAL = "real"
FIELD_COMPLEX = "complex"


def field_of(a):
    """Return the field tag of a matrix: rational, real, or complex."""
    a = np.asarray(a)
    if a.dtype == object:
        return FIELD_RATIONAL
    if np.iscomplexobj(a):
        return FIELD_COMPLEX
    return FIELD_REAL


def is_rational(a):
    return np.asarray(a).dtype == object


def as_rational(entries):
    """Build an exact rational matrix (object array of Fractions)."""
    arr = np.asarray(entries, dtype=object)
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = Fraction(arr[idx])
    return out


def to_float(a):
    """Floating view of a matrix; exact rationals are converted lossily."""
    a = np.asarray(a)
    if a.dtype == object:
        return np.array([[float(x) for x in row] for row in a], dtype=float)
    return a


@dataclass(frozen=True)
class SVDFactors:
    """Thin SVD A = U diag(sigma) V1* of an n-by-m matrix: U is n-by-k and
    V1 (``v``) m-by-k with orthonormal columns, k = min(n, m).

    The orthonormal completion V2 of V1 (m-by-(m-k), so that [V1 | V2] is
    unitary) is never formed; ``complement`` applies it to a block.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v.conj().T

    @cached_property
    def _reflectors(self):
        # V1 = QR with Q = H_0 ... H_{k-1}; V2 = Q[:, k:] (Golub & Van Loan,
        # Matrix Computations, 5.2).  Row i of h holds the tail of H_i.
        return np.linalg.qr(self.v, mode="raw")

    def complement(self, x):
        """V2 x for an (m-k)-by-c block x, as Q [0; x] from the k Householder
        reflectors of V1: O(m k c) work, and V2 itself is never formed.

        Raises NonConvergence if ||V1* V2 x||_F exceeds
        DEFAULT_TOL * max(1, m) * ||x||_F.
        """
        h, tau = self._reflectors
        m, k = self.v.shape
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != m - k:
            raise ShapeMismatch(f"complement needs a 2-d block with {m - k} rows")
        y = np.zeros((m, x.shape[1]), dtype=np.result_type(h, x))
        y[k:] = x
        for i in reversed(range(k)):
            w = np.concatenate(([1.0], h[i, i + 1:]))
            y[i:] -= np.outer(tau[i] * w, w.conj() @ y[i:])
        resid = np.linalg.norm(self.v.conj().T @ y)
        if resid > DEFAULT_TOL * max(1.0, m) * np.linalg.norm(x):
            raise NonConvergence(f"orthogonal completion residual {resid:.3e}")
        return y


def svd(a):
    """Thin SVD of a real or complex matrix; rational input is converted.

    Raises NonConvergence if the LAPACK kernel fails, if the relative
    reconstruction residual exceeds DEFAULT_TOL, or if the columns of U or
    V1 are further from orthonormal than DEFAULT_TOL times the dimension.
    """
    a = to_float(np.asarray(a)) if is_rational(a) else np.asarray(a)
    if a.size == 0:
        raise ValueError("svd of an empty matrix")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NonConvergence(f"SVD did not converge: {exc}") from exc
    factors = SVDFactors(u=u, sigma=s, v=vh.conj().T)
    norm_a = np.linalg.norm(a)
    if norm_a > 0:
        resid = np.linalg.norm(factors.reconstruct() - a) / norm_a
        if resid > DEFAULT_TOL:
            raise NonConvergence(f"SVD reconstruction residual {resid:.3e}")
    n, m = a.shape
    eye = np.eye(len(s))
    if np.linalg.norm(u.conj().T @ u - eye) > DEFAULT_TOL * max(1.0, n):
        raise NonConvergence("left factor columns not orthonormal")
    if np.linalg.norm(vh @ vh.conj().T - eye) > DEFAULT_TOL * max(1.0, m):
        raise NonConvergence("right factor columns not orthonormal")
    return factors


def singular_values(a):
    a = to_float(a)
    return np.linalg.svd(a, compute_uv=False)


def integer_rows(a):
    """Rational matrix with each row scaled by the lcm of its denominators,
    as a list of integer rows.  Row scaling keeps every column dependency,
    so ranks, spans and solutions can be decided on the result.  Entries
    are read through ``numerator`` and ``denominator``, which Fraction and
    int both carry."""
    out = []
    for row in np.asarray(a, dtype=object):
        d = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _echelon(rows, ncols):
    """Fraction-free forward elimination of the integer rows in place,
    pivoting in the first ``ncols`` columns only (Bareiss, Math. Comp.
    1968); later columns, such as right-hand sides, are carried along.

    Returns the pivot columns; pivot row k is ``rows[k]``.  Every entry
    stays an integer minor of the input, so each division is exact, and the
    last pivot is the minor of the pivot rows and columns.
    """
    n = len(rows)
    prev, pivots = 1, []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r][c + 1:]
        pv = rows[r][c]
        for i in range(r + 1, n):
            row = rows[i]
            f = row[c]
            row[c + 1:] = [(pv * x - f * y) // prev for x, y in zip(row[c + 1:], top)]
            row[c] = 0
        prev = pv
        pivots.append(c)
        if r + 1 == n:
            break
    return pivots


def _back_substitute(rows, pivots, t):
    """Pivot entries of the solution of the eliminated system
    ``rows[k] . x = t[k]`` (k over the pivot rows) with every free variable
    zero.  By Cramer's rule D x is an integer vector, D the last pivot, so
    the substitution runs on integers and only the final quotients become
    Fractions."""
    r = len(pivots)
    d = rows[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for k in reversed(range(r)):
        row = rows[k]
        s = d * t[k] - sum(row[pivots[i]] * y[i] for i in range(k + 1, r))
        y[k] = s // row[pivots[k]]
    return [Fraction(v, d) for v in y]


def rank_exact(a):
    """Rank over the rationals by fraction-free elimination."""
    a = np.asarray(a, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return len(_echelon(integer_rows(a), a.shape[1]))


def rank_threshold(a):
    """Default rank threshold RANK_RTOL * ||a||_F of a float matrix, or of
    each matrix of a ``(k, r, s)`` stack; None on rational matrices, whose
    ranks are exact."""
    if is_rational(a):
        return None
    return RANK_RTOL * np.linalg.norm(a, axis=(-2, -1))


def rank_tol(a, tol=None):
    """Number of singular values above ``tol``; exact on rational matrices
    (tol ignored).

    ``a`` may be one matrix or a ``(k, r, s)`` stack, whose ranks come back
    as an integer array of length k.  ``tol=None`` takes each matrix's
    ``rank_threshold``.
    """
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim > 2:
        if is_rational(a):
            return np.array([rank_exact(x) for x in a], dtype=int)
        if a.size == 0:
            return np.zeros(a.shape[:-2], dtype=int)
    elif a.size == 0:
        return 0
    elif is_rational(a):
        return rank_exact(a)
    s = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = np.expand_dims(rank_threshold(a), -1)
    ranks = np.sum(s > tol, axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def bareiss_span(rows, cols):
    """Rank of A_S and, for each j, whether e_j lies in the column span of
    A_S, for the integer matrix ``rows`` (A) and the column subset ``cols``
    (S).  One elimination of ``[A_S | I_n]`` pivoting in the A_S block
    decides both: e_j is in the span iff column j of the eliminated
    identity block vanishes on the rows without a pivot.
    """
    n, s = len(rows), len(cols)
    m = [[row[c] for c in cols] + [int(i == k) for k in range(n)]
         for i, row in enumerate(rows)]
    r = len(_echelon(m, s))
    return r, [all(m[i][s + j] == 0 for i in range(r, n)) for j in range(n)]


def nullspace_exact(a):
    """Exact rational nullspace basis; column k is the kernel vector with
    entry 1 at the k-th free column and 0 at the other free columns."""
    a = np.asarray(a, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    n_cols = a.shape[1]
    rows = integer_rows(a)
    pivots = _echelon(rows, n_cols)
    free = [c for c in range(n_cols) if c not in pivots]
    out = np.full((n_cols, len(free)), Fraction(0), dtype=object)
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        out[pivots, k] = _back_substitute(rows, pivots, [-row[fc] for row in rows])
    return out


def nullspace_basis(a, tol=None):
    """Basis of ker(a) as matrix columns: the right singular vectors past
    the singular values above ``tol`` (default ``rank_threshold(a)``);
    exact on rational inputs."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if is_rational(a):
        return nullspace_exact(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if tol is None:
        tol = rank_threshold(a)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def solve_exact(a, b):
    """Exact solution of a x = b over the rationals, or None if inconsistent.

    ``b`` may be a vector or a matrix (solved column-wise).  Free variables
    are set to zero.  Each row of ``[a | b]`` is cleared of denominators as
    one row, so a row of ``a`` and its right-hand side share one scale.
    """
    a = np.asarray(a, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    b = np.asarray(b, dtype=object)
    if any(not isinstance(x, (Fraction, int)) for x in (*a.flat, *b.flat)):
        raise FieldMismatch("solve_exact requires rational entries")
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    n_rows, n_cols = a.shape
    if b.shape[0] != n_rows:
        raise ValueError("rhs length mismatch")
    rows = integer_rows(np.hstack([a, b]))
    pivots = _echelon(rows, n_cols)
    # consistency: the rows without a pivot must have a zero right-hand side
    if any(x for row in rows[len(pivots):] for x in row[n_cols:]):
        return None
    out = np.full((n_cols, b.shape[1]), Fraction(0), dtype=object)
    for j in range(b.shape[1]):
        out[pivots, j] = _back_substitute(
            rows, pivots, [row[n_cols + j] for row in rows]
        )
    return out[:, 0] if vector_rhs else out


def frobenius(a):
    """Frobenius norm, valid for all three fields."""
    a = np.asarray(a)
    if is_rational(a):
        return float(sum(Fraction(x) ** 2 for x in a.flat)) ** 0.5
    return float(np.linalg.norm(a))
