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
in closed form. A vertex or an edge point has at most two non-zero weights,
so it is scored as (u_i w_i + u_j w_j)(v_i w_i + v_j w_j), never as an
m-vector. Both searches are exact, so they take no seed. A Dirichlet audit
over random allocations, run beside a search, acts as the brute-force
optimality oracle for both objectives: it returns the largest objective value
it draws and holds one block of a fixed number of values at a time. A
search's audit margin is that value minus the search's, which is at most
rounding when the search is right::

    result = maximize_fisher_2d(decomp, power)
    margin = audit_random_allocations(decomp, power, "fi2d_x", trials, seed) - result.achieved_fi

(``"fi1d"`` with ``maximize_fisher_1d``); ``optimize --audit-trials`` reports
this margin. The 1D optimum is ``tuning.optimal_tuning_1d``'s allocation, and
the orderings come from ``tuning.check_condition``, so this module only
searches and audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .spectral import SpectralDecomposition, _Record
from .tuning import PowerAllocation, _paired_arrays, check_condition, optimal_tuning_1d

Objective = Literal["fi1d", "fi2d_x"]

#: Weights (rows x frequencies) per block of the optimality audit, which holds one block at a time.
_AUDIT_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class AllocationSearchResult(_Record):
    allocation: PowerAllocation
    achieved_fi: float
    method: Literal["closed_form", "vertex_edge"]


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

    ``np.add.reduce`` sums each contiguous row pairwise on its own, so a row's
    value has the same bits in any block of rows and alone. Neither a BLAS
    matrix-vector product nor einsum promises that: einsum's bits for a row
    change with the block's row count from m = 16 383 frequencies on.
    """
    fi = np.add.reduce(weights * u, axis=-1)
    if objective == "fi1d":
        return fi
    return fi * np.add.reduce(weights * v, axis=-1)


def audit_random_allocations(
    decomp: SpectralDecomposition,
    power: float,
    objective: Objective,
    trials: int,
    seed: int,
) -> float:
    """Largest objective value over a uniform Dirichlet sweep of the power simplex.

    Counter-based generator keyed by the seed, so the value is bit-identical for
    identical seeds. The draws stream from that one generator in blocks of
    max(1, _AUDIT_BLOCK_VALUES // m) rows of m weights, which are the rows of a
    single draw of ``trials``, and only the running maximum is kept, so memory
    holds one block, of at most max(_AUDIT_BLOCK_VALUES, m) weights, whatever
    ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    freqs, u, v = _objective_coefficients(decomp)
    rng = np.random.Generator(np.random.Philox(seed))
    alpha = np.ones(freqs.size)
    rows = max(1, _AUDIT_BLOCK_VALUES // freqs.size)
    best = -np.inf
    with np.errstate(over="ignore"):  # an overflowing objective is infinite
        for start in range(0, trials, rows):
            weights = rng.dirichlet(alpha, size=min(rows, trials - start))
            weights *= power
            best = max(best, float(np.max(_objective_values(weights, u, v, objective))))
    return best


def maximize_fisher_1d(decomp: SpectralDecomposition, power: float) -> AllocationSearchResult:
    """All power on the smallest paired eigenvalue (``optimal_tuning_1d``), in closed form."""
    allocation = optimal_tuning_1d(decomp, power).allocation
    achieved = power / float(decomp.eigenvalues[allocation.entries[0].frequency])
    return AllocationSearchResult(allocation=allocation, achieved_fi=achieved, method="closed_form")


def _upper_hull(u: np.ndarray, v: np.ndarray) -> list[int]:
    """Indices of the upper convex hull of the points (u_k, v_k), left to right.

    Andrew's monotone chain over the points sorted by u, then v; points on a
    hull edge's interior are dropped.
    """
    order = np.lexsort((v, u))
    u, v = u[order].tolist(), v[order].tolist()  # Python floats, in sorted order: the same IEEE operations
    hull: list[int] = []
    for k in range(len(u)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (u[b] - u[a]) * (v[k] - v[a]) - (v[b] - v[a]) * (u[k] - u[a]) < 0.0:
                break
            hull.pop()
        hull.append(k)
    return order[hull].tolist()


def maximize_fisher_2d(decomp: SpectralDecomposition, power: float) -> AllocationSearchResult:
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
    k = int(np.argmax(u * v))
    best_w, best_val = {k: power}, (u.item(k) * power) * (v.item(k) * power)
    method = "closed_form" if check_condition(decomp).concentration_valid else "vertex_edge"

    hull = _upper_hull(u, v)
    for a, b in zip(hull, hull[1:]):
        i, j = min(a, b), max(a, b)
        ui, uj, vi, vj = u.item(i), u.item(j), v.item(i), v.item(j)
        quad = (ui - uj) * (vi - vj)
        lin = (ui - uj) * vj + uj * (vi - vj)
        if quad < 0.0:  # u and v trade off along the edge: an interior maximum may exist
            t = -lin / (2.0 * quad)
            if 0.0 < t < 1.0:
                wi, wj = power * t, power * (1.0 - t)
                val = (ui * wi + uj * wj) * (vi * wi + vj * wj)
                if val > best_val:
                    best_w, best_val, method = {i: wi, j: wj}, val, "vertex_edge"

    allocation = PowerAllocation.from_powers({int(freqs[i]): w for i, w in best_w.items() if w > 1e-15 * power})
    return AllocationSearchResult(allocation=allocation, achieved_fi=best_val, method=method)
