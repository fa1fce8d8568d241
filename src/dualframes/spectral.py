"""Tight duals, duals with prescribed singular values, interlacing-based
spectrum feasibility, and the closed-form 2x3 eigenvalue surface.

The API is phrased in dual singular values sigma^Psi rather than frame
bounds; the corresponding frame bound is (sigma^Psi)^2.  Constructions place
the free rows s_i along distinct standard coordinate directions, so row
orthogonality of the parametrized dual is trivially verifiable.
"""

from __future__ import annotations

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

# relative margins, so that no verdict depends on the frame's units: the
# sigma_n cluster, each interlacing inequality (and a target's order and
# matching), and the floors 1/sigma_i of a requested value
CLUSTER_RTOL = 1e-8
SPECTRUM_RTOL = 1e-9
FLOOR_RTOL = 1e-12

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


def _smallest_cluster(sigma):
    """p = number of singular values strictly above the sigma_n cluster."""
    n = len(sigma)
    p = n - 1
    while p > 0 and sigma[p - 1] <= sigma[-1] * (1 + CLUSTER_RTOL):
        p -= 1
    return p


def classify_tight_dual(n, m, sigma):
    """Existence trichotomy for tight duals, decided from (m, n) and the
    multiplicity of the smallest singular value."""
    sigma = np.asarray(sigma, dtype=float)
    p = _smallest_cluster(sigma)
    if p == 0 and m < 2 * n:
        case = CASE_ALREADY_TIGHT
    elif m >= 2 * n:
        case = CASE_REDUNDANT_2N
    elif m == 2 * n - 1:
        case = CASE_EXACT_2N_MINUS_1
    else:
        case = CASE_CONSTRAINED
    exists = not (case == CASE_CONSTRAINED and p > m - n)
    return TightDualSpec(sigma_psi=1.0 / sigma[-1], case=case, p=p), exists


def _square_is_finite(x):
    """True iff x^2 is a finite double; the free rows take the square of a
    value, which ** would turn into an OverflowError."""
    x = float(x)
    return math.isfinite(x * x)


def _orthogonal_dual(fac, picks):
    """The dual that raises the canonical value 1/sigma_i to q for each pick
    {i: q}: free row s_i = sqrt(q^2 - 1/sigma_i^2) e_k, with k running over
    the picked indices in order.  Returns (dual, s_block)."""
    par = DualParametrization(svd=fac)
    for k, i in enumerate(sorted(picks)):
        q = picks[i]
        par.s_block[i, k] = math.sqrt(max(q ** 2 - 1.0 / fac.sigma[i] ** 2, 0.0))
    return par.realize(), par.s_block


def tight_dual(frame, sigma_psi=None):
    """Tight dual with common singular value sigma_psi (default 1/sigma_n).

    Returns (dual, TightDualSpec, s_block).  The free rows are
    s_i = sqrt(sigma_psi^2 - 1/sigma_i^2) e_i for every row whose canonical
    value falls short, zero otherwise.
    """
    fac = numerics.svd(frame.as_float())
    n, m = frame.n, frame.m
    minimal = 1.0 / fac.sigma[-1]
    spec, exists = classify_tight_dual(n, m, fac.sigma)
    if sigma_psi is None:
        sigma_psi = minimal
    if not math.isfinite(sigma_psi):
        raise BoundInfeasible(f"sigma_psi {sigma_psi} is not a finite number")
    if sigma_psi < minimal * (1 - FLOOR_RTOL):
        raise BoundInfeasible(
            f"sigma_psi {sigma_psi} below the floor 1/sigma_n = {minimal}"
        )
    strict = sigma_psi > minimal * (1 + FLOOR_RTOL)
    if strict and m < 2 * n:
        raise BoundInfeasible(
            f"sigma_psi above 1/sigma_n requires m >= 2n (m={m}, n={n})"
        )
    if not _square_is_finite(sigma_psi):
        raise BoundInfeasible(f"sigma_psi {sigma_psi} has no finite square")
    if not strict and not exists:
        raise NoTightDual(
            f"needs the smallest {2 * n - m} singular values equal "
            f"(p={spec.p} > r={m - n})"
        )
    active = range(n) if strict else range(spec.p)
    dual, s_block = _orthogonal_dual(fac, dict.fromkeys(active, sigma_psi))
    spec.sigma_psi = float(sigma_psi)
    return dual, spec, s_block


def prescribed_spectrum_dual(frame, picks):
    """Dual whose spectrum contains the picked values q_i (index -> value).

    Indices are 0-based into the non-increasing singular values of the frame;
    each q_i must be finite and at least 1/sigma_i.  Unpicked rows keep their
    canonical value 1/sigma_{n-i+1}.
    """
    fac = numerics.svd(frame.as_float())
    n, r = frame.n, frame.m - frame.n
    if len(picks) > r:
        raise TooManyPicks(f"{len(picks)} picks but only r = {r} directions")
    for i, q in picks.items():
        if not 0 <= i < n:
            raise BadTarget(f"pick index {i} outside [0, {n})")
        if not math.isfinite(q):
            raise BadTarget(f"pick {q} at index {i} is not a finite number")
        if not _square_is_finite(q):
            raise BadTarget(f"pick {q} has no finite square")
        if q < 1.0 / fac.sigma[i] * (1 - FLOOR_RTOL):
            raise BelowCanonical(
                f"pick {q} at index {i} below canonical floor {1.0 / fac.sigma[i]}"
            )
    return _orthogonal_dual(fac, picks)[0]


def _interlacing(floors, r):
    """Bounds (lo_i, hi_i) on the i-th largest value of a dual spectrum
    (0-based), from the non-increasing canonical values ``floors``:
    lo_i = floors[i], and hi_i = floors[i - r], or inf for i < r."""
    return [(lo, math.inf if i < r else floors[i - r])
            for i, lo in enumerate(floors)]


def _unmatched(target, floors):
    """Values of ``target`` left after pairing each canonical value with at
    most one equal target value; on two non-increasing lists one pass pairs
    as many as any pairing can."""
    i = j = matched = 0
    while i < len(target) and j < len(floors):
        if abs(target[i] - floors[j]) <= SPECTRUM_RTOL * floors[j]:
            i, j, matched = i + 1, j + 1, matched + 1
        elif target[i] > floors[j]:
            i += 1
        else:
            j += 1
    return len(target) - matched


def spectrum_feasible(frame, target):
    """Interlacing feasibility of a prospective dual spectrum.

    ``feasible`` checks the two families of inequalities (with the infinity
    convention when m >= 2n).  ``constructive``: the target is reached by
    the orthogonal construction of ``prescribed_spectrum_dual``, which holds
    when it is feasible and at most r of its values equal no canonical
    value (feasibility makes the target dominate the canonical values, and
    removing equal pairs keeps that).
    """
    sigma = numerics.singular_values(frame.matrix)
    n, r = frame.n, frame.m - frame.n
    target = tuple(float(t) for t in target)
    if len(target) != n:
        raise BadTarget(f"target length {len(target)} != n = {n}")
    if not all(math.isfinite(t) and t > 0 for t in target):
        raise BadTarget("target values must be finite and positive")
    if any(target[i] < target[i + 1] * (1 - SPECTRUM_RTOL) for i in range(n - 1)):
        raise BadTarget("target must be sorted non-increasing")

    floors = 1.0 / sigma[::-1]  # non-increasing canonical values
    violated = []
    for i, (t, (lo, hi)) in enumerate(zip(target, _interlacing(floors, r)), 1):
        if t < lo * (1 - SPECTRUM_RTOL):
            violated.append((i, lo, "lower"))
        if t > hi * (1 + SPECTRUM_RTOL):
            violated.append((i, hi, "upper"))
    feasible = not violated
    constructive = feasible and _unmatched(sorted(target, reverse=True), floors) <= r
    return SpectrumTarget(
        values=target, feasible=feasible, constructive=constructive,
        violated=violated,
    )


def dual_bound_range(frame):
    """Admissible dual frame bounds (lower, upper): the ``lambda_region``
    intervals of the smallest and the largest dual frame-operator
    eigenvalue.  A square frame has only the canonical dual, so both are
    points there."""
    region = lambda_region(frame)
    return region[-1], region[0]


def lambda_region(frame):
    """Per-eigenvalue intervals [1/lambda_{n-i+1}, 1/lambda_{n-i+r+1}] of
    admissible dual frame-operator spectra (inf when the index underflows)."""
    sigma = numerics.singular_values(frame.matrix)
    lam = sigma ** 2
    return _interlacing(1.0 / lam[::-1], frame.m - frame.n)


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
