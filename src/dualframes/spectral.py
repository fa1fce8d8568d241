"""Tight duals, duals with prescribed singular values, interlacing-based
spectrum feasibility, and the closed-form 2x3 eigenvalue surface.

The API is phrased in dual singular values sigma^Psi rather than frame
bounds; the corresponding frame bound is (sigma^Psi)^2.  Constructions place
the free rows s_i along distinct standard coordinate directions, so row
orthogonality of the parametrized dual is trivially verifiable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    BadShape,
    BadTarget,
    BelowCanonical,
    BoundInfeasible,
    NoTightDual,
    TooManyPicks,
)
from .frames import DualParametrization

CLUSTER_RTOL = 1e-8

CASE_REDUNDANT_2N = "Redundant2n"
CASE_EXACT_2N_MINUS_1 = "Exact2nMinus1"
CASE_CONSTRAINED = "Constrained"
CASE_ALREADY_TIGHT = "AlreadyTight"


@dataclass
class SpectrumTarget:
    values: tuple
    feasible: bool
    constructive: bool
    violated: list  # (index, bound, side) for every failed inequality


@dataclass
class TightDualSpec:
    sigma_psi: float
    case: str
    p: int  # largest index (1-based) with sigma_p > sigma_n; 0 if tight


def _smallest_cluster(sigma, rtol=CLUSTER_RTOL):
    """p = number of singular values strictly above the sigma_n cluster."""
    n = len(sigma)
    p = n - 1
    while p > 0 and sigma[p - 1] <= sigma[-1] * (1 + rtol):
        p -= 1
    return p


def classify_tight_dual(n, m, sigma, rtol=CLUSTER_RTOL):
    """Existence trichotomy for tight duals, decided from (m, n) and the
    multiplicity of the smallest singular value."""
    sigma = np.asarray(sigma, dtype=float)
    p = _smallest_cluster(sigma, rtol)
    if p == 0 and m < 2 * n:
        case = CASE_ALREADY_TIGHT
    elif m >= 2 * n:
        case = CASE_REDUNDANT_2N
    elif m == 2 * n - 1:
        case = CASE_EXACT_2N_MINUS_1
    else:
        case = CASE_CONSTRAINED
    exists = True
    if case == CASE_CONSTRAINED and p > m - n:
        exists = False
    return TightDualSpec(sigma_psi=1.0 / sigma[-1], case=case, p=p), exists


def tight_dual(frame, sigma_psi=None, rtol=CLUSTER_RTOL):
    """Tight dual with common singular value sigma_psi (default 1/sigma_n).

    Returns (dual, TightDualSpec, s_block).  The free rows are
    s_i = sqrt(sigma_psi^2 - 1/sigma_i^2) e_i for every row whose canonical
    value falls short, zero otherwise.
    """
    fac = numerics.svd(frame.as_float())
    sigma = fac.sigma
    n, m, r = frame.n, frame.m, frame.m - frame.n
    minimal = 1.0 / sigma[-1]
    spec, exists = classify_tight_dual(n, m, sigma, rtol)
    if sigma_psi is None:
        sigma_psi = minimal
    if sigma_psi < minimal * (1 - 1e-12):
        raise BoundInfeasible(
            f"sigma_psi {sigma_psi} below the floor 1/sigma_n = {minimal}"
        )
    strict = sigma_psi > minimal * (1 + 1e-12)
    if strict and m < 2 * n:
        raise BoundInfeasible(
            f"sigma_psi above 1/sigma_n requires m >= 2n (m={m}, n={n})"
        )
    p = spec.p
    active = list(range(n)) if strict else list(range(p))
    if not strict and p > r:
        raise NoTightDual(
            f"needs the smallest {2 * n - m} singular values equal "
            f"(p={p} > r={r})"
        )
    dtype = complex if np.iscomplexobj(frame.matrix) else float
    s_block = np.zeros((n, r), dtype=dtype)
    for k, i in enumerate(active):
        s_block[i, k] = math.sqrt(max(sigma_psi ** 2 - 1.0 / sigma[i] ** 2, 0.0))
    spec = TightDualSpec(sigma_psi=float(sigma_psi), case=spec.case, p=p)
    dual = DualParametrization(svd=fac, s_block=s_block).realize()
    return dual, spec, s_block


def prescribed_spectrum_dual(frame, picks, tol=1e-12):
    """Dual whose spectrum contains the picked values q_i (index -> value).

    Indices are 0-based into the non-increasing singular values of the frame;
    each q_i must be at least 1/sigma_i.  Unpicked rows keep their canonical
    value 1/sigma_{n-i+1}.
    """
    fac = numerics.svd(frame.as_float())
    sigma = fac.sigma
    n, r = frame.n, frame.m - frame.n
    if len(picks) > r:
        raise TooManyPicks(f"{len(picks)} picks but only r = {r} directions")
    for i, q in picks.items():
        if not 0 <= i < n:
            raise BadTarget(f"pick index {i} outside [0, {n})")
        if q < 1.0 / sigma[i] * (1 - tol):
            raise BelowCanonical(
                f"pick {q} at index {i} below canonical floor {1.0 / sigma[i]}"
            )
    dtype = complex if np.iscomplexobj(frame.matrix) else float
    s_block = np.zeros((n, r), dtype=dtype)
    for k, i in enumerate(sorted(picks)):
        q = picks[i]
        s_block[i, k] = math.sqrt(max(q ** 2 - 1.0 / sigma[i] ** 2, 0.0))
    return DualParametrization(svd=fac, s_block=s_block).realize()


def _reachable_by_orthogonalization(sigma, target, r, tol=1e-8):
    """True iff target equals {q_i : picked} union {1/sigma_i : unpicked}
    for some pick set of size <= r with q_i >= 1/sigma_i."""
    n = len(sigma)
    inv = [1.0 / s for s in sigma]  # inv[i] is the floor for picked index i
    target = list(target)

    def match(unpicked_vals, pick_floors, targets):
        # exact-match the unpicked canonical values, then assign leftovers
        # to picked floors (bipartite; sizes are tiny, so brute force)
        if len(unpicked_vals) + len(pick_floors) != len(targets):
            return False
        remaining = list(targets)
        for v in unpicked_vals:
            hit = next(
                (k for k, t in enumerate(remaining)
                 if abs(t - v) <= tol * max(1.0, abs(v))),
                None,
            )
            if hit is None:
                return False
            remaining.pop(hit)
        for perm in itertools.permutations(range(len(pick_floors))):
            if all(
                remaining[k] >= pick_floors[perm[k]] - tol
                for k in range(len(remaining))
            ):
                return True
        return False

    for size in range(min(r, n) + 1):
        for picked in itertools.combinations(range(n), size):
            unpicked = [inv[i] for i in range(n) if i not in picked]
            floors = [inv[i] for i in picked]
            if match(unpicked, floors, target):
                return True
    return False


def spectrum_feasible(frame, target, tol=1e-9):
    """Interlacing feasibility of a prospective dual spectrum.

    ``feasible`` checks the two families of inequalities (with the infinity
    convention when m >= 2n); ``constructive`` is the conservative flag: the
    target is reachable by the explicit orthogonalization construction.
    """
    sigma = numerics.singular_values(frame.matrix)
    n, r = frame.n, frame.m - frame.n
    target = tuple(float(t) for t in target)
    if len(target) != n:
        raise BadTarget(f"target length {len(target)} != n = {n}")
    if any(t <= 0 for t in target):
        raise BadTarget("target values must be positive")
    if any(target[i] < target[i + 1] - tol for i in range(n - 1)):
        raise BadTarget("target must be sorted non-increasing")

    violated = []
    for i in range(1, n + 1):  # 1-based as in the inequalities
        lo = 1.0 / sigma[n - i]
        if target[i - 1] < lo - tol:
            violated.append((i, lo, "lower"))
        if i > r:
            k = n - i + r + 1  # 1-based index; > n means unbounded
            if k <= n:
                hi = 1.0 / sigma[k - 1]
                if target[i - 1] > hi + tol:
                    violated.append((i, hi, "upper"))
    feasible = not violated
    constructive = feasible and _reachable_by_orthogonalization(
        sigma, target, r
    )
    return SpectrumTarget(
        values=target, feasible=feasible, constructive=constructive,
        violated=violated,
    )


def dual_bound_range(frame):
    """Admissible dual frame bounds: upper in [1/sigma_n^2, inf), lower in
    [1/sigma_1^2, 1/sigma_{m-n+1}^2] (infinite right end when m >= 2n)."""
    sigma = numerics.singular_values(frame.matrix)
    n, m = frame.n, frame.m
    upper_range = (1.0 / sigma[-1] ** 2, math.inf)
    r1 = m - n + 1  # 1-based
    hi = math.inf if r1 > n else 1.0 / sigma[r1 - 1] ** 2
    lower_range = (1.0 / sigma[0] ** 2, hi)
    return lower_range, upper_range


def lambda_region(frame):
    """Per-eigenvalue intervals [1/lambda_{n-i+1}, 1/lambda_{n-i+r+1}] of
    admissible dual frame-operator spectra (inf when the index underflows)."""
    sigma = numerics.singular_values(frame.matrix)
    lam = sigma ** 2
    n, r = frame.n, frame.m - frame.n
    canon = [1.0 / lam[n - i] for i in range(1, n + 1)]  # non-increasing

    def upper(i):
        return math.inf if i - r < 1 else canon[i - r - 1]

    return [(canon[i - 1], upper(i)) for i in range(1, n + 1)]


def dual_eigs_2x3(sigma1, sigma2, s1, s2):
    """Eigenvalues of the 2x3 dual frame operator in the (s1, s2) chart;
    ``s1`` and ``s2`` may be arrays of one shape, evaluated elementwise."""
    if not sigma1 >= sigma2 > 0:
        raise BadShape("need sigma1 >= sigma2 > 0")
    d1 = 1.0 / sigma1 ** 2 + s1 * s1
    d2 = 1.0 / sigma2 ** 2 + s2 * s2
    tr = d1 + d2
    # float_power calls the C pow per element, as ** does on a scalar, so
    # a grid gives the same bits as pointwise calls; ** 2 on an array
    # squares instead, which differs in the last bit at a few points
    det = d1 * d2 - np.float_power(s1 * s2, 2)
    radius = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * tr + 0.5 * radius, 0.5 * tr - 0.5 * radius
