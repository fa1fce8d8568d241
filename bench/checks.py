"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``dualframes``: exact ranks use the benchmark's own
integer elimination, and report entries are parsed with ``fractions`` and
``complex``.  Each ``check_*`` function takes the workload's input case and
the parsed ``--json`` report and returns ``None`` when the output is right,
or a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Relative residual allowed for floating duals: ||Psi Phi^T - I||_F is
# compared with ||Psi||_F ||Phi||_F, so the test is scale-free.  1e-10 is
# about 5e5 machine epsilons, far above what a backward-stable solve leaves.
FLOAT_REL_TOL = 1e-10
# Tolerance for the tight dual of a Gabor frame, relative to sigma^2.
TIGHT_REL_TOL = 1e-9


def int_rank(rows, pivot_cols=None):
    """Rank of an integer matrix (list of rows) by division-free elimination.

    Each updated row is divided by the gcd of its entries, which keeps the
    integers small and changes neither the rank nor the column relations.
    Only the first ``pivot_cols`` columns are used as pivots; the returned
    echelon rows let a caller test which extra columns lie in their span.
    """
    m = [list(r) for r in rows]
    width = len(m[0]) if m else 0
    ncols = width if pivot_cols is None else pivot_cols
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if not f:
                continue
            row = [pivot[c] * x - f * y for x, y in zip(m[i], pivot)]
            g = math.gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(m):
            break
    return r, m


def in_general_position(rows):
    """True iff every maximal square submatrix of ``rows`` is invertible."""
    n, m = len(rows), len(rows[0])
    return all(
        int_rank([[row[c] for c in cols] for row in rows])[0] == n
        for cols in itertools.combinations(range(m), n)
    )


def row_sparks(rows):
    """spark_j for every row j: the smallest |S| with e_j in span(Phi_S).

    One elimination of [Phi_S | I_n] per subset S decides every j at once:
    after pivoting on the Phi_S columns, e_j is in the span iff column j of
    the identity block vanishes on the rows that have no pivot.
    """
    n, m = len(rows), len(rows[0])
    sparks = [None] * n
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(m), size):
            aug = [
                [rows[i][c] for c in cols] + [int(i == k) for k in range(n)]
                for i in range(n)
            ]
            r, ech = int_rank(aug, pivot_cols=size)
            for j in range(n):
                if sparks[j] is None and all(
                    ech[i][size + j] == 0 for i in range(r, n)
                ):
                    sparks[j] = size
        if all(s is not None for s in sparks):
            return sparks
    raise ValueError("matrix does not have full row rank")


def _fractions(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def _complex(matrix):
    return np.array(
        [[complex(x[:-1] + "j") for x in row] for row in matrix], dtype=complex
    )


def _exact_dual_rows_ok(phi, psi_rows, first_row=0):
    """True iff each row psi_i satisfies Phi psi_i = e_i exactly."""
    for i, row in enumerate(psi_rows, first_row):
        for k, phi_row in enumerate(phi):
            dot = sum(a * b for a, b in zip(phi_row, row) if b)
            if dot != (1 if k == i else 0):
                return False
    return True


def _certificate_reason(results, psi_nnz):
    cert = results["certificate"]
    if [c["row"] for c in cert] != list(range(len(psi_nnz))):
        return "certificate rows out of order"
    for c, nz in zip(cert, psi_nnz):
        if nz != c["spark_j"] or len(c["support"]) != c["spark_j"]:
            return f"row {c['row']}: {nz} nonzeros but spark_j {c['spark_j']}"
    if results["sparsity"] != sum(psi_nnz):
        return "reported sparsity is not the dual's nonzero count"
    return None


def check_sparsest_float(case, report):
    """Float scan: numpy residual, nonzeros = spark_j, total = n^2."""
    phi = case.matrix
    n = phi.shape[0]
    results = report["results"]
    psi = np.array([[float(x) for x in row] for row in results["dual"]])
    if psi.shape != phi.shape:
        return f"dual has shape {psi.shape}"
    resid = np.linalg.norm(psi @ phi.T - np.eye(n))
    scale = np.linalg.norm(psi) * np.linalg.norm(phi)
    if not resid <= FLOAT_REL_TOL * scale:
        return f"duality residual {resid:.3e} (scale {scale:.3e})"
    reason = _certificate_reason(results, [int(np.count_nonzero(r)) for r in psi])
    if reason:
        return reason
    if results["sparsity"] != n * n:
        return f"sparsity {results['sparsity']} != n^2 = {n * n} on a generic frame"
    return None


def check_sparsest_exact(case, report):
    """Exact scan: exact duality, nonzeros = spark_j = independent spark."""
    phi = case.matrix
    n = len(phi)
    results = report["results"]
    psi = _fractions(results["dual"])
    if len(psi) != n or any(len(r) != len(phi[0]) for r in psi):
        return "dual has the wrong shape"
    if not _exact_dual_rows_ok(phi, psi):
        return "Psi Phi^T != I in exact arithmetic"
    reason = _certificate_reason(results, [sum(1 for x in r if x) for r in psi])
    if reason:
        return reason
    if results["sparsity"] > n * n:
        return f"sparsity {results['sparsity']} above n^2 = {n * n}"
    expected = case.reference
    got = [c["spark_j"] for c in results["certificate"]]
    if got != expected:
        return f"spark_j {got} but the independent scan gives {expected}"
    return None


def check_enumerate_exact(case, report):
    """Enumeration on a frame in general position: C(m,n)^n distinct duals,
    each exact, each with n nonzeros per row."""
    phi = case.matrix
    n, m = len(phi), len(phi[0])
    results = report["results"]
    expected = math.comb(m, n) ** n
    duals = results["all_duals"]
    if results["count"] != len(duals):
        return f"count {results['count']} but {len(duals)} duals listed"
    if len(duals) != expected:
        return f"{len(duals)} duals, expected C({m},{n})^{n} = {expected}"
    if len({tuple(map(tuple, d)) for d in duals}) != len(duals):
        return "enumerated duals are not distinct"
    checked = {}  # (row index, row strings) -> verdict; rows repeat across duals
    for d in [results["dual"], *duals]:
        if len(d) != n:
            return "a dual has the wrong number of rows"
        for i, row in enumerate(d):
            key = (i, tuple(row))
            if key not in checked:
                frac = [Fraction(x) for x in row]
                checked[key] = (
                    len(frac) == m
                    and sum(1 for x in frac if x) == n
                    and _exact_dual_rows_ok(phi, [frac], first_row=i)
                )
            if not checked[key]:
                return f"row {i} {row} is not an exact dual row with {n} nonzeros"
    if [c["spark_j"] for c in results["certificate"]] != [n] * n:
        return "certificate spark_j differs from n on a frame in general position"
    return None


def check_tight_gabor(case, report):
    """Tight dual: Psi Phi* = I and Psi Psi* = sigma^2 I, sigma = 1/sigma_min."""
    phi = case.matrix
    n = phi.shape[0]
    results = report["results"]
    sigma = 1.0 / np.linalg.svd(phi, compute_uv=False)[-1]
    if not abs(results["sigma_psi"] - sigma) <= TIGHT_REL_TOL * sigma:
        return f"sigma_psi {results['sigma_psi']!r}, expected {sigma!r}"
    if results["case"] != "Redundant2n":
        return f"case {results['case']!r}, expected 'Redundant2n'"
    psi = _complex(results["dual"])
    if psi.shape != phi.shape:
        return f"dual has shape {psi.shape}"
    resid = np.linalg.norm(psi @ phi.conj().T - np.eye(n))
    if not resid <= TIGHT_REL_TOL * math.sqrt(n):
        return f"duality residual {resid:.3e}"
    tight = np.linalg.norm(psi @ psi.conj().T - sigma ** 2 * np.eye(n))
    if not tight <= TIGHT_REL_TOL * sigma ** 2 * math.sqrt(n):
        return f"Psi Psi* deviates from sigma^2 I by {tight:.3e}"
    return None
