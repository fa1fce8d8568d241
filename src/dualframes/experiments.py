"""Frame generators and reproducible experiments.

Randomness comes from numpy's seedable 64-bit Philox-backed default
generator; every trial t of a run seeded with s draws from an independent
stream seeded with the pair (s, t), so reports are bit-reproducible and
trials can run in any order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import sparsity
from .errors import (
    BadShape,
    BadTarget,
    DuplicateNode,
    RankDeficient,
    ZeroWindow,
)
from .frames import Frame
from .numerics import singular_values
from .spectral import dual_eigs_2x3


def vandermonde_frame(xs, ys):
    """Generalized Vandermonde frame: entry (i, j) = xs_j ** ys_i.

    All m column nodes xs and n row exponents ys must be distinct positives.
    The matrix is then strictly totally positive, so in exact arithmetic
    every row-deleted submatrix is in general position.  Float rank
    decisions need not agree: for ill-conditioned nodes, whose small powers
    fall below the frame's rank threshold, ``sparsest`` reports a
    tolerance-dependent spark.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise DuplicateNode("nodes and exponents must be pairwise distinct")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise DuplicateNode("nodes and exponents must be positive")
    mat = np.array([[x ** y for x in xs] for y in ys])
    return Frame(mat)


def partial_dft_frame(n, m):
    """First n rows of the unitary m-point DFT: a tight frame for C^n.

    Chebotarev's guarantee (every minor nonzero) needs m prime; a warning is
    emitted otherwise.
    """
    if m < n:
        raise BadShape(f"need m >= n, got n={n}, m={m}")
    if m > 2 and any(m % p == 0 for p in range(2, int(math.isqrt(m)) + 1)):
        warnings.warn(
            f"m={m} is not prime: minors of the partial DFT may vanish",
            stacklevel=2,
        )
    k = np.arange(n).reshape(-1, 1)
    j = np.arange(m).reshape(1, -1)
    mat = np.exp(2j * np.pi * k * j / m) / math.sqrt(m)
    return Frame(mat)


def gabor_frame(window):
    """All n^2 time-frequency shifts of a window vector in C^n."""
    w = np.asarray(window, dtype=complex).ravel()
    n = len(w)
    if not np.any(w):
        raise ZeroWindow("window must be nonzero")
    cols = []
    for k in range(n):  # translation
        shifted = np.roll(w, k)
        for l in range(n):  # modulation
            cols.append(shifted * np.exp(2j * np.pi * l * np.arange(n) / n))
    return Frame(np.column_stack(cols))


def _trial_rng(seed, index):
    return np.random.default_rng([seed, index])


def sample_gaussian_frame(n, m, rng):
    """Gaussian sample that is a frame, redrawn until it is one."""
    if not 0 < n <= m:
        raise BadShape(f"need 0 < n <= m, got n={n}, m={m}")
    while True:
        try:
            return Frame(rng.standard_normal((n, m)))
        except RankDeficient:
            continue


@dataclass
class TrialReport:
    n: int
    m: int
    trials: int
    seed: int
    dist: str
    count_in_P: int = 0
    count_sparsity_n2: int = 0
    failures: list = field(default_factory=list)
    boundary: list = field(default_factory=list)
    tolerance_dependent: bool = True


def genericity_trial(n, m, trials, seed, dist="gaussian", budget=None):
    """Empirical genericity of the n^2 sparsest-dual level.

    Per trial: sample a frame, test membership in P (all row-deleted
    submatrices in general position) and whether the exact sparsity sum
    reaches n^2.  One ``sparsity_bounds`` scan gives both: spark(Phi^{(j)})
    is at most n, so the lower sum is n^2 exactly when the frame is in P.
    Verdicts on the floating path are tolerance-dependent;
    any failed trial is re-checked as a frame at 10x tighter and looser
    rank thresholds than its own and flagged as a boundary case if the
    verdicts differ; a threshold at which the matrix is no frame differs.
    Each scan decides every row, so both verdicts and all rows of a frame
    share one ``budget`` per tolerance.
    """
    if dist != "gaussian":
        raise ValueError(f"unknown distribution {dist!r}")
    kwargs = {} if budget is None else {"budget": budget}
    report = TrialReport(n=n, m=m, trials=trials, seed=seed, dist=dist)
    for t in range(trials):
        frame = sample_gaussian_frame(n, m, _trial_rng(seed, t))
        lower, total, _ = sparsity.sparsity_bounds(frame, **kwargs)
        if lower == n * n:
            report.count_in_P += 1
        if total == n * n:
            report.count_sparsity_n2 += 1
        else:
            report.failures.append(frame.matrix.tolist())
            verdicts = {_spark_sum_at(frame, f * frame.tol, kwargs)
                        for f in (0.1, 10.0)}
            if len(verdicts | {total}) > 1:
                report.boundary.append(t)
    return report


def _spark_sum_at(frame, tol, kwargs):
    """sum_j spark_j of the frame's matrix at rank threshold ``tol``, or None
    where the matrix is no frame at that threshold."""
    try:
        refit = Frame(frame.matrix, tol=tol)
    except RankDeficient:
        return None
    return sparsity.sparsity_bounds(refit, **kwargs)[1]


def surface_2x3(frame, s_range=(-3.0, 3.0), step=0.05):
    """Eigenvalue surface of all duals of a 2x3 frame over an (s1, s2) grid.

    Returns an array of rows (s1, s2, lambda1, lambda2) in grid order.  A
    step that is not positive and finite, or a range that is not finite with
    lo <= hi, raises BadTarget.
    """
    if frame.n != 2 or frame.m != 3:
        raise BadShape("surface is defined for 2x3 frames only")
    lo, hi = s_range
    if not (math.isfinite(step) and step > 0):
        raise BadTarget(f"surface step must be positive and finite, got {step!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise BadTarget(f"surface range needs finite lo <= hi, got {lo!r},{hi!r}")
    sigma = singular_values(frame.as_float())
    count = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(count)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    l1, l2 = dual_eigs_2x3(sigma[0], sigma[1], s1, s2)
    return np.column_stack([s1.ravel(), s2.ravel(), l1.ravel(), l2.ravel()])
