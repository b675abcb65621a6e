"""Maximize Fisher information over power allocations on the simplex.

The one-axis objective is linear in the per-frequency power weights, so the
optimum concentrates on the smallest paired eigenvalue. The torus x-direction
objective is (u.w)(v.w) with u_k = 1/lambda_k and v_k = u_k/k^2. The map
w -> (u.w, v.w) sends the simplex onto the convex hull of the points
(u_k, v_k), whose corners are images of simplex vertices and whose edges are
images of simplex edges. With positive eigenvalues the product rises in both
coordinates, so its maximum lies on the upper-right part of that hull: a
vertex when one point dominates in both coordinates (the eigenvalue and
frequency-squared-weighted orderings pick the same frequency), otherwise the
interior of one hull edge, where the objective is a concave quadratic solved
in closed form. A Dirichlet audit over random allocations acts as the
brute-force optimality oracle for both objectives. The 1D optimum is
``tuning.optimal_tuning_1d``'s allocation, and the orderings come from
``tuning.check_condition``, so this module only searches and audits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .spectral import SpectralDecomposition
from .tuning import PowerAllocation, _paired_arrays, check_condition, optimal_tuning_1d

Objective = Literal["fi1d", "fi2d_x"]

#: Dirichlet draws per block of the optimality audit, which holds one block at a time.
_AUDIT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class AllocationSearchResult:
    allocation: PowerAllocation
    achieved_fi: float
    method: Literal["closed_form", "vertex_edge"]
    audit_margin: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    objective: Objective
    trials: int
    seed: int
    max_objective: float
    best_allocation: PowerAllocation

    def to_dict(self) -> dict:
        return asdict(self)


def _objective_coefficients(
    decomp: SpectralDecomposition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paired frequencies with u_k = 1/lambda_k and v_k = u_k/k^2."""
    freqs, lams = _paired_arrays(decomp)
    u = 1.0 / lams
    return freqs, u, u / freqs.astype(float) ** 2


def _objective_values(
    weights: np.ndarray, u: np.ndarray, v: np.ndarray, objective: Objective
) -> np.ndarray:
    """Objective at each weight vector (rows of ``weights``, or one vector).

    einsum sums each row on its own, so a row's value has the same bits in any
    block of rows and alone, which a BLAS matrix-vector product does not promise.
    """
    fi = np.einsum("...j,j->...", weights, u)
    if objective == "fi1d":
        return fi
    return fi * np.einsum("...j,j->...", weights, v)


def _allocation_from_weights(
    freqs: np.ndarray, weights: np.ndarray, power: float
) -> PowerAllocation:
    keep = weights > 1e-15 * power
    powers = {int(k): float(w) for k, w in zip(freqs[keep], weights[keep])}
    return PowerAllocation.from_powers(powers)


def audit_random_allocations(
    decomp: SpectralDecomposition,
    power: float,
    objective: Objective,
    trials: int,
    seed: int,
) -> AuditReport:
    """Uniform Dirichlet sweep of the power simplex, reporting the best point found.

    Counter-based generator keyed by the seed, so reports are bit-identical for
    identical seeds. The draws stream from that one generator in blocks of
    _AUDIT_BLOCK_ROWS rows, which are the rows of a single draw of ``trials``,
    and only the best row so far (the first on ties) is kept, so memory does
    not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    freqs, u, v = _objective_coefficients(decomp)
    rng = np.random.Generator(np.random.Philox(seed))
    alpha = np.ones(freqs.size)
    best_value, best_weights = -np.inf, None
    for start in range(0, trials, _AUDIT_BLOCK_ROWS):
        weights = power * rng.dirichlet(alpha, size=min(_AUDIT_BLOCK_ROWS, trials - start))
        values = _objective_values(weights, u, v, objective)
        best = int(np.argmax(values))
        if best_weights is None or values[best] > best_value:
            best_value, best_weights = float(values[best]), weights[best].copy()
    return AuditReport(
        objective=objective,
        trials=trials,
        seed=seed,
        max_objective=best_value,
        best_allocation=_allocation_from_weights(freqs, best_weights, power),
    )


def maximize_fisher_1d(
    decomp: SpectralDecomposition,
    power: float,
    audit_trials: int = 0,
    seed: int = 0,
) -> AllocationSearchResult:
    """All power on the smallest paired eigenvalue (``optimal_tuning_1d``), in closed form."""
    allocation = optimal_tuning_1d(decomp, power).allocation
    achieved = power / float(decomp.eigenvalues[allocation.entries[0].frequency])
    margin = None
    if audit_trials > 0:
        margin = audit_random_allocations(decomp, power, "fi1d", audit_trials, seed).max_objective - achieved
    return AllocationSearchResult(allocation=allocation, achieved_fi=achieved, method="closed_form", audit_margin=margin)


def _upper_hull(u: np.ndarray, v: np.ndarray) -> list[int]:
    """Indices of the upper convex hull of the points (u_k, v_k), left to right.

    Andrew's monotone chain over the points sorted by u, then v; points on a
    hull edge's interior are dropped.
    """
    hull: list[int] = []
    for k in np.lexsort((v, u)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (u[b] - u[a]) * (v[k] - v[a]) - (v[b] - v[a]) * (u[k] - u[a]) < 0.0:
                break
            hull.pop()
        hull.append(int(k))
    return hull


def maximize_fisher_2d(
    decomp: SpectralDecomposition,
    power: float,
    audit_trials: int = 0,
    seed: int = 0,
) -> AllocationSearchResult:
    """Maximize the torus x-direction information over the power simplex.

    The objective (u.w)(v.w) rises in both coordinates of the image point
    (u.w, v.w), which ranges over the convex hull of the points (u_k, v_k);
    its maximum therefore sits at the best vertex or inside an edge of the
    upper-right hull, where u and v trade off. The search takes the best
    vertex (lowest index on ties) and then solves the quadratic restricted to
    each such hull edge in closed form, so the result is exact. Raises
    SingularCovarianceError unless every paired eigenvalue is positive.
    """
    freqs, u, v = _objective_coefficients(decomp)
    m = freqs.size

    def value(w: np.ndarray) -> float:
        return float(_objective_values(w, u, v, "fi2d_x"))

    best_w = np.zeros(m)
    best_w[int(np.argmax(u * v))] = power
    best_val = value(best_w)
    method = "closed_form" if check_condition(decomp).concentration_valid else "vertex_edge"

    hull = _upper_hull(u, v)
    for a, b in zip(hull, hull[1:]):
        i, j = min(a, b), max(a, b)
        quad = (u[i] - u[j]) * (v[i] - v[j])
        lin = (u[i] - u[j]) * v[j] + u[j] * (v[i] - v[j])
        if quad < 0.0:  # u and v trade off along the edge: an interior maximum may exist
            t = -lin / (2.0 * quad)
            if 0.0 < t < 1.0:
                w = np.zeros(m)
                w[i], w[j] = power * t, power * (1.0 - t)
                val = value(w)
                if val > best_val:
                    best_val, best_w, method = val, w, "vertex_edge"

    margin = None
    if audit_trials > 0:
        margin = audit_random_allocations(decomp, power, "fi2d_x", audit_trials, seed).max_objective - best_val
    allocation = _allocation_from_weights(freqs, best_w, power)
    return AllocationSearchResult(allocation=allocation, achieved_fi=best_val, method=method, audit_margin=margin)
