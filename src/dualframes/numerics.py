"""Field-generic dense linear algebra kernel.

Two arithmetic backends coexist: exact rational (numpy object arrays of
``fractions.Fraction``) for combinatorial rank/spark decisions, and double
precision floating point for SVD and spectral work.  Rational matrices are
recognised by their object dtype; every entry must then be a Fraction or int.

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


def svd(a, tol_recon=DEFAULT_TOL, tol_unitary=DEFAULT_TOL):
    """Thin SVD of a real or complex matrix; rational input is converted.

    Raises NonConvergence if the LAPACK kernel fails, and checks the
    reconstruction residual and the orthonormality of the columns of U and
    V1 before returning.
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
        if resid > tol_recon:
            raise NonConvergence(f"SVD reconstruction residual {resid:.3e}")
    n, m = a.shape
    eye = np.eye(len(s))
    if np.linalg.norm(u.conj().T @ u - eye) > tol_unitary * max(1.0, n):
        raise NonConvergence("left factor columns not orthonormal")
    if np.linalg.norm(vh @ vh.conj().T - eye) > tol_unitary * max(1.0, m):
        raise NonConvergence("right factor columns not orthonormal")
    return factors


def singular_values(a):
    a = to_float(a)
    return np.linalg.svd(a, compute_uv=False)


def _row_echelon_exact(a, b=None):
    """Fraction-free forward elimination; returns (echelon, rhs, pivot_cols).

    Operates on copies.  ``b`` may be a vector or matrix of Fractions.
    """
    m = [list(row) for row in a]
    rhs = None if b is None else [list(row) for row in b]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    piv_r = 0
    for c in range(n_cols):
        pr = None
        for r in range(piv_r, n_rows):
            if m[r][c] != 0:
                pr = r
                break
        if pr is None:
            continue
        if pr != piv_r:
            m[piv_r], m[pr] = m[pr], m[piv_r]
            if rhs is not None:
                rhs[piv_r], rhs[pr] = rhs[pr], rhs[piv_r]
        pv = m[piv_r][c]
        for r in range(piv_r + 1, n_rows):
            f = m[r][c]
            if f == 0:
                continue
            ratio = Fraction(f, 1) / pv
            for cc in range(c, n_cols):
                m[r][cc] -= m[piv_r][cc] * ratio
            if rhs is not None:
                for cc in range(len(rhs[r])):
                    rhs[r][cc] -= rhs[piv_r][cc] * ratio
        pivots.append(c)
        piv_r += 1
        if piv_r == n_rows:
            break
    return m, rhs, pivots


def rank_exact(a):
    """Rank over the rationals by exact Gaussian elimination."""
    a = np.asarray(a, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    _, _, pivots = _row_echelon_exact(a.tolist())
    return len(pivots)


def rank_tol(a, tol=None):
    """Tolerance-based rank; exact on rational matrices (tol ignored).

    ``a`` may be one matrix or a ``(k, r, s)`` stack, whose ranks come back
    as an integer array of length k.  Auto threshold, per matrix:
    max(r, s) * machine_eps * sigma_max.
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
        tol = max(a.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    ranks = np.sum(s > tol, axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def integer_rows(a):
    """Rational matrix with each row scaled by the lcm of its denominators,
    as a list of integer rows.  Row scaling keeps every column dependency,
    so ranks and spans of column subsets can be decided on the result."""
    out = []
    for row in np.asarray(a, dtype=object):
        fracs = [Fraction(x) for x in row]
        d = math.lcm(*(f.denominator for f in fracs))
        out.append([f.numerator * (d // f.denominator) for f in fracs])
    return out


def bareiss_span(rows, cols):
    """Fraction-free elimination of ``[A_S | I_n]`` for the integer matrix
    ``rows`` (A) and the column subset ``cols`` (S), pivoting in the A_S
    block only (Bareiss, Math. Comp. 1968).

    Returns ``(rank, in_span)``: the rank of A_S, and for each j whether e_j
    lies in the column span of A_S, which holds iff column j of the
    eliminated identity block vanishes on the rows without a pivot.  Every
    entry stays an integer minor of the augmented matrix, so each division
    is exact.
    """
    n, s = len(rows), len(cols)
    m = [[row[c] for c in cols] + [int(i == k) for k in range(n)]
         for i, row in enumerate(rows)]
    prev, r = 1, 0
    for c in range(s):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r][c + 1:]
        pv = m[r][c]
        for i in range(r + 1, n):
            f = m[i][c]
            m[i][c + 1:] = [
                (pv * x - f * y) // prev for x, y in zip(m[i][c + 1:], top)
            ]
            m[i][c] = 0
        prev = pv
        r += 1
        if r == n:
            return r, [True] * n
    return r, [all(m[i][s + j] == 0 for i in range(r, n)) for j in range(n)]


def nullspace_exact(a):
    """Exact rational nullspace basis; columns span ker(a)."""
    a = np.asarray(a, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    n_rows, n_cols = a.shape
    m, _, pivots = _row_echelon_exact(a.tolist())
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        # back substitution over the pivot rows
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum(m[r][c] * v[c] for c in range(pc + 1, n_cols))
            v[pc] = -s / m[r][pc]
        basis.append(v)
    out = np.empty((n_cols, len(basis)), dtype=object)
    for j, v in enumerate(basis):
        for i in range(n_cols):
            out[i, j] = v[i]
    return out


def nullspace_basis(a, tol=None):
    """Basis of ker(a) as matrix columns; exact on rational inputs."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if is_rational(a):
        return nullspace_exact(a)
    n_rows, n_cols = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    if tol is None:
        tol = max(a.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def solve_exact(a, b):
    """Exact solution of a x = b over the rationals, or None if inconsistent.

    ``b`` may be a vector or a matrix (solved column-wise).  Free variables
    are set to zero.
    """
    a = np.asarray(a, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if field_of(a) != FIELD_RATIONAL or any(
        not isinstance(x, (Fraction, int)) for x in a.flat
    ):
        raise FieldMismatch("solve_exact requires rational entries")
    b = np.asarray(b, dtype=object)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    n_rows, n_cols = a.shape
    if b.shape[0] != n_rows:
        raise ValueError("rhs length mismatch")
    rhs = [[Fraction(x) for x in row] for row in b]
    m, rhs, pivots = _row_echelon_exact(a.tolist(), rhs)
    # consistency: zero rows of the echelon form must have zero rhs
    for r in range(len(pivots), n_rows):
        if any(x != 0 for x in rhs[r]):
            return None
    k = b.shape[1]
    x = [[Fraction(0)] * k for _ in range(n_cols)]
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        for j in range(k):
            s = sum(m[r][c] * x[c][j] for c in range(pc + 1, n_cols))
            x[pc][j] = (rhs[r][j] - s) / m[r][pc]
    out = np.empty((n_cols, k), dtype=object)
    for i in range(n_cols):
        for j in range(k):
            out[i, j] = x[i][j]
    return out[:, 0] if vector_rhs else out


def inverse_exact(a):
    """Exact inverse of a square rational matrix, or None if singular."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    eye = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            eye[i, j] = Fraction(1 if i == j else 0)
    if rank_exact(a) < n:
        return None
    return solve_exact(a, eye)


def frobenius(a):
    """Frobenius norm, valid for all three fields."""
    a = np.asarray(a)
    if is_rational(a):
        return float(sum(Fraction(x) ** 2 for x in a.flat)) ** 0.5
    return float(np.linalg.norm(a))
