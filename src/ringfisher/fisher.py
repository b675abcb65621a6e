"""Fisher information of ring and torus populations under circulant Gaussian noise.

The quadratic form (derivative profile against the inverse covariance) reduces
in the eigenbasis to a sum of per-mode powers over eigenvalues, so
it is independent of position; its position derivative vanishes identically.
On the separable torus the information splits into a product of two one-axis
quadratic forms per direction plus a cross term that vanishes for the
zero-integration-constant populations built here.

The report's theta sweep, the torus terms and the position derivative weight
the closed-form coefficients of ``tuning._coefficients`` by 1/lambda_k
(``tuning._gram_weights``): on the m active frequencies' unit cos and sin
eigenvectors W the Gram W C^-1 W^T is that diagonal, so none of them does
n-space work. Only ``fisher_1d`` applies the inverse to an n-space derivative;
the tests compare every form with it and with dense solves, where a wrong
eigenvector or eigenvalue shows.

Every function that takes a population reads the spectrum from its own
decomposition (``pop.decomp``), so a population and its covariance cannot be
mismatched; ``fisher_1d_spectral`` and ``fisher_max_bound`` take the
decomposition itself. The spectral forms sum w_k / (k^p lambda_k) over the
active frequencies with ``tuning._spectral_sum``: p = 0 gives the ring
information, p = 2 the torus factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveInformationError
from .spectral import TWO_PI, SpectralDecomposition, _Record, apply_inverse
from .tuning import (
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    _coefficients,
    _gram_weights,
    _paired_arrays,
    _spectral_sum,
    mean_derivative,
)


def fisher_1d(pop: TuningPopulation1D, theta: float = 0.0) -> float:
    """Quadratic-form Fisher information at one position."""
    d = mean_derivative(pop, theta)
    return float(d @ apply_inverse(pop.decomp, d))


def fisher_1d_spectral(allocation: PowerAllocation, decomp: SpectralDecomposition) -> float:
    """Position-free spectral form: sum of the entries' powers over eigenvalues."""
    return _spectral_sum(allocation, decomp, 0)


def fisher_max_bound(decomp: SpectralDecomposition, power: float) -> float:
    """Upper bound: all power on the smallest paired eigenvalue."""
    return power / float(_paired_arrays(decomp)[1].min())


def fisher_derivative(pop: TuningPopulation1D, theta: float = 0.0) -> float:
    """Position derivative of the information: twice the second-derivative form.

    Vanishes identically for the populations built here; computed honestly so
    that deviations would surface.
    """
    return float(2.0 * (_coefficients(pop, theta, 2) * _gram_weights(pop)) @ _coefficients(pop, theta, 1))


def crb(fi: float) -> float:
    """Cramer-Rao bound: reciprocal of a positive Fisher information."""
    if fi <= 0.0:
        raise NonpositiveInformationError(f"information must be positive, got {fi}")
    return 1.0 / fi


@dataclass(frozen=True)
class FisherReport1D(_Record):
    theta_samples: tuple[float, ...]
    fi_theta: tuple[float, ...]
    fi_spectral: float
    fi_max_bound: float
    crb: float


def fisher_report_1d(pop: TuningPopulation1D, theta_samples: int = 64) -> FisherReport1D:
    """Evaluate the quadratic form on a uniform grid next to its spectral value."""
    thetas = TWO_PI * np.arange(theta_samples) / theta_samples
    d = _coefficients(pop, thetas, 1)
    with np.errstate(over="ignore"):  # an overflow gives inf, which the CLI reports
        values = tuple(((d * d) @ _gram_weights(pop)).tolist())
    spectral = fisher_1d_spectral(pop.allocation, pop.decomp)
    return FisherReport1D(
        theta_samples=tuple(float(t) for t in thetas),
        fi_theta=values,
        fi_spectral=spectral,
        fi_max_bound=fisher_max_bound(pop.decomp, pop.allocation.power),
        crb=crb(spectral) if spectral > 0 else float("inf"),
    )


@dataclass(frozen=True)
class FisherReport2D(_Record):
    i_x: float
    i_y: float
    i_xy: float
    product_form: float
    minimum_variance: float


def fisher_2d(
    pop2d: TuningPopulation2D, theta: tuple[float, float] = (0.0, 0.0)
) -> FisherReport2D:
    """Directional information on the torus via separable quadratic forms.

    i_x contracts the x derivative and the y response against the axis inverse
    (and symmetrically for i_y); the cross term pairs derivative with response
    on both axes. ``product_form`` is the equivalent spectral expression
    (sum w/lambda) * (sum w/(k^2 lambda)), and ``minimum_variance`` the
    x-variance bound from inverting the 2x2 information matrix.
    """
    decomp, allocation = pop2d.x.decomp, pop2d.x.allocation
    # coefficient rows g_x, f_x, g_y, f_y: y has x's frequencies, so x's weights serve both axes
    rows = np.array([_coefficients(pop, t, order) for pop, t in zip((pop2d.x, pop2d.y), theta) for order in (1, 0)])
    with np.errstate(over="ignore"):  # an overflow gives inf, which the CLI reports
        forms = ((rows * _gram_weights(pop2d.x)) @ rows.T).tolist()
    i_x = forms[0][0] * forms[3][3]
    i_y = forms[1][1] * forms[2][2]
    i_xy = forms[0][1] * forms[3][2]
    det = i_x * i_y - i_xy * i_xy
    minimum_variance = i_y / det if det > 0 else float("inf")
    return FisherReport2D(
        i_x=i_x,
        i_y=i_y,
        i_xy=i_xy,
        product_form=_spectral_sum(allocation, decomp, 0) * _spectral_sum(allocation, decomp, 2),
        minimum_variance=minimum_variance,
    )
