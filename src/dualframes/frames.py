"""Frame abstraction: bounds, frame operator, canonical dual, duality checks,
and the parametrization of the set of all duals.

A frame is a full-rank n-by-m matrix whose columns are the frame vectors.
The set of all duals has one description, through the SVD, and it is
floating-point only (U, V are irrational in general); exact duals come from
exact solves.  It works from the thin SVD Phi = U diag(sigma) V1*: a dual
U [diag(1/sigma) | S] [V1 | V2]* needs V2 only through the product S V2*,
which the Householder completion of V1 supplies without an m-by-m matrix.
Row indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    BoundInfeasible,
    IndexOutOfRange,
    NonConvergence,
    RankDeficient,
    ShapeMismatch,
)
from .numerics import (
    SVDFactors,
    field_of,
    is_rational,
    rank_threshold,
    rank_tol,
    solve_exact,
    to_float,
)


@dataclass(frozen=True)
class FrameBounds:
    lower: float  # sigma_n^2
    upper: float  # sigma_1^2


class Frame:
    """A full-rank n-by-m matrix over R, C, or Q (exact).

    Construction rejects rank-deficient input: every statement downstream
    assumes the frame property.  On the floating path ``tol`` is the one
    rank threshold of every decision on the frame and its column subsets:
    the given ``tol``, else ``rank_threshold`` of the whole matrix
    (1e-10 ||Phi||_F).  Exact frames decide exactly, and ``tol`` is None.
    """

    def __init__(self, entries, tol=None):
        a = np.array(entries, copy=True)
        if a.ndim != 2 or a.size == 0:
            raise ShapeMismatch("frame must be a non-empty 2-d matrix")
        n, m = a.shape
        if m < n:
            raise RankDeficient(f"need at least n={n} columns, got {m}")
        self.tol = rank_threshold(a) if tol is None or is_rational(a) else tol
        if rank_tol(a, self.tol) < n:
            raise RankDeficient("matrix does not have full row rank")
        self.matrix = a
        self.matrix.setflags(write=False)
        self.n = n
        self.m = m

    @classmethod
    def exact(cls, entries):
        """Frame over Q: entries are converted to Fractions."""
        return cls(numerics.as_rational(entries))

    @property
    def field(self):
        return field_of(self.matrix)

    @property
    def is_exact(self):
        return is_rational(self.matrix)

    def as_float(self):
        return to_float(self.matrix)

    def __repr__(self):
        return f"Frame(n={self.n}, m={self.m}, field={self.field})"

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and bool(
            np.all(self.matrix == other.matrix)
        )


def row_delete(frame, j):
    """Submatrix with row j removed (the (n-1)-by-m projection)."""
    mat = frame.matrix if isinstance(frame, Frame) else np.asarray(frame)
    n = mat.shape[0]
    if not 0 <= j < n:
        raise IndexOutOfRange(f"row index {j} outside [0, {n})")
    return np.delete(mat, j, axis=0)


def frame_operator(frame):
    """S = Phi Phi*, Hermitian positive definite; exact on rational frames."""
    mat = frame.matrix if isinstance(frame, Frame) else np.asarray(frame)
    return mat @ np.conjugate(mat).T


def square_is_finite(x):
    """True iff x^2 is a finite double; ``x ** 2`` would raise OverflowError
    where it is not."""
    x = float(x)
    return math.isfinite(x * x)


def check_squares(sigma):
    """BoundInfeasible unless sigma_1^2 and 1/sigma_n^2 of the non-increasing
    singular values ``sigma`` are finite doubles; then so is every sigma_i^2
    and 1/sigma_i^2, and each is positive."""
    for name, x in (("sigma_1", sigma[0]),
                    (f"1/sigma_{len(sigma)}", 1 / float(sigma[-1]))):
        if not square_is_finite(x):
            raise BoundInfeasible(f"{name}^2 = ({x:.3e})^2 is not finite")


def frame_bounds(frame):
    """Extreme squared singular values (A, B) of the frame; BoundInfeasible
    if they are not finite doubles (see ``check_squares``)."""
    s = numerics.singular_values(frame.matrix)
    check_squares(s)
    return FrameBounds(lower=float(s[-1]) ** 2, upper=float(s[0]) ** 2)


def canonical_dual(frame):
    """Moore-Penrose dual S^{-1} Phi; exact when the frame is rational.

    On the floating path it is U diag(1/sigma) V1* from the thin SVD, which
    avoids the normal equations S = Phi Phi* and their squared condition
    number.
    """
    if frame.is_exact:
        return Frame(solve_exact(frame_operator(frame), frame.matrix))
    fac = numerics.svd(frame.as_float())
    return Frame((fac.u / fac.sigma) @ fac.v.conj().T)


def duality_residual(phi, psi):
    """Frobenius norm of Psi Phi* - I; exact zero test on rational pairs."""
    pm = phi.matrix if isinstance(phi, Frame) else np.asarray(phi)
    qm = psi.matrix if isinstance(psi, Frame) else np.asarray(psi)
    if pm.shape != qm.shape:
        raise ShapeMismatch(f"shape mismatch {pm.shape} vs {qm.shape}")
    n = pm.shape[0]
    if is_rational(pm) and is_rational(qm):
        g = qm @ np.conjugate(pm).T
        for i in range(n):
            for j in range(n):
                g[i, j] = g[i, j] - (1 if i == j else 0)
        return float(sum(x * x for x in g.flat)) ** 0.5
    g = to_float(qm) @ np.conjugate(to_float(pm)).T
    return float(np.linalg.norm(g - np.eye(n)))


# duality residual ||Psi Phi* - I||_F every dual the program reports must meet
DUAL_CHECK_TOL = 1e-9


def is_dual(phi, psi, tol=DUAL_CHECK_TOL):
    """True iff ||Psi Phi* - I||_F <= tol; returns (bool, residual)."""
    resid = duality_residual(phi, psi)
    return resid <= tol, resid


@dataclass
class DualParametrization:
    """Thin SVD factors of Phi plus the free n-by-(m-n) block S of the dual
    set.

    realize() with a zero block gives the canonical dual; any block gives a
    dual.  The dual's singular values are sqrt(eig(diag(1/sigma^2) + S S*))
    whichever orthonormal completion V2 of V1 is used.  Floating point only.
    """

    svd: SVDFactors
    s_block: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.svd.u.shape[0]
        m = self.svd.v.shape[0]
        r = m - n
        if self.s_block is None:
            dtype = complex if np.iscomplexobj(self.svd.u) else float
            self.s_block = np.zeros((n, r), dtype=dtype)
        self.s_block = np.asarray(self.s_block)
        if self.s_block.shape != (n, r):
            raise ShapeMismatch(f"s block must be {n}-by-{r}")

    def realize(self):
        """U [diag(1/sigma) | S] [V1 | V2]* = U (diag(1/sigma) V1* + S V2*),
        a dual frame of the original frame; S V2* is (V2 S*)*, applied
        through ``SVDFactors.complement``.  A dual that is no frame at its
        own rank threshold (one singular value some 1e10 times another)
        raises NonConvergence: the input is a frame, the build failed."""
        fac = self.svd
        canonical = (fac.v / fac.sigma).conj().T
        free = fac.complement(self.s_block.conj().T).conj().T
        try:
            return Frame(fac.u @ (canonical + free))
        except RankDeficient as exc:
            raise NonConvergence(
                f"built dual is not a frame at its own rank threshold: {exc}"
            ) from exc


def dual_set_dimension(frame):
    """Affine dimension n(m-n) of the set of all duals."""
    return frame.n * (frame.m - frame.n)
