"""Monte Carlo validation of displacement estimation against the Cramer-Rao bound.

Noise is drawn spectrally: independent standard normals per eigen-mode scaled
by the square root of the eigenvalue reproduce the circulant covariance
exactly, with no dense factorization. The normals are laid out like the
eigenbasis columns (cos0, cos1, sin1, ...). ``NoiseModel.sample`` maps them
onto rfft bins and synthesizes responses with one ``irfft`` per axis,
O(n log n) per draw. The Monte Carlo runs never synthesize a response: both
estimators read it through m <= 2 fixed vectors, and the projections of one
snapshot on them are Gaussian with an m x m covariance. ``NoiseModel.project``
maps the readout once into eigen-coefficient space, forms that covariance and
draws the projections directly: m normals per trial through a square-root
factor, whatever n. Memory is then the trial-length estimate vectors. Two
estimators are provided: the local linear estimator (reads the response
change along the derivative direction, needs the reference position) and a
phase readout for single-frequency populations (projects onto the mode's
eigenvector pair, reference-free up to the mode's angular ambiguity).
Variance conventions differ by snapshot model: one noisy snapshot against a
known mean bounds at 1/I, two noisy snapshots at 2/I. Estimators read the
covariance from the population's decomposition, and ``SimConfig`` and
``run_path_integration`` accept the same modes, estimators, trial counts (at
least 100), noise scales (finite, nonnegative) and finite displacements and
start positions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .errors import (
    MultiModePopulationError,
    NotPositiveSemidefiniteError,
)
from .fisher import fisher_1d_spectral
from .spectral import (
    TWO_PI,
    PSD_TOLERANCE,
    SpectralDecomposition,
    TorusCorrelation,
    _bins_to_columns,
    _columns_to_bins,
    apply_inverse,
)
from .tuning import TuningPopulation1D, mean_derivative, mean_response

Mode = Literal["known_reference", "two_snapshot"]
Estimator = Literal["local_linear", "phase"]

#: Linearization guard: warn when max frequency times displacement exceeds this.
SMALL_DISPLACEMENT_LIMIT = 0.1


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by the seed: the same seed gives the same stream."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class NoiseModel:
    """Spectral Gaussian sampler for a ring (or separable torus) covariance.

    ``scale`` multiplies the noise standard deviation: 1 reproduces the kernel
    covariance, 0 gives deterministic responses.
    """

    decomp: SpectralDecomposition | TorusCorrelation
    scale: float = 1.0

    def _axis(self) -> SpectralDecomposition:
        if isinstance(self.decomp, TorusCorrelation):
            return self.decomp.axis
        return self.decomp

    def _sqrt_eigenvalues(self) -> np.ndarray:
        lams = self._axis().eigenvalues
        if lams.min() < -PSD_TOLERANCE:
            raise NotPositiveSemidefiniteError(
                f"cannot sample: eigenvalue {lams.min():.6g} below zero"
            )
        return np.sqrt(np.clip(lams, 0.0, None))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` noise vectors: shape (size, n) on the ring, (size, n^2) on the torus."""
        axis = self._axis()
        n = axis.n
        sigma = self.scale * self._sqrt_eigenvalues()
        # the normals go in as a temporary, freed before irfft allocates its output
        if isinstance(self.decomp, TorusCorrelation):
            # B (z * sigma sigma^T) B^T: synthesize along the last axis, then along the other one.
            rows = np.fft.irfft(_columns_to_bins(rng.standard_normal((size, n, n)), sigma), n)
            both = np.fft.irfft(_columns_to_bins(rows.swapaxes(1, 2), sigma), n)
            return both.swapaxes(1, 2).reshape(size, n * n)
        return np.fft.irfft(_columns_to_bins(rng.standard_normal((size, n)), sigma), n)

    def project(self, rng: np.random.Generator, size: int, readout: np.ndarray) -> np.ndarray:
        """Noise projections on an (n, m) ring readout: ``size`` draws, shape (size, m).

        The noise is B diag(sigma) z, so its projections on the readout columns
        are z . c with c = sigma * B^T readout, exactly Gaussian with the m x m
        covariance c^T c = readout^T C readout. The readout is mapped once into
        eigen-coefficient space, a square-root factor F of c^T c is taken (from
        its eigendecomposition, clipped at 0, so a singular one gives zeros), and
        each draw is m standard normals times F^T: size * m normals, not size * n.
        """
        if isinstance(self.decomp, TorusCorrelation):
            raise TypeError("project reads ring noise; torus noise is drawn by sample")
        n = self.decomp.n
        readout = np.asarray(readout, dtype=float)
        if readout.ndim != 2 or readout.shape[0] != n:
            raise ValueError(f"expected an ({n}, m) readout, got shape {readout.shape}")
        sigma = self.scale * self._sqrt_eigenvalues()
        coeffs = _bins_to_columns(np.fft.rfft(readout.T) * sigma, n).T
        variances, axes = np.linalg.eigh(coeffs.T @ coeffs)
        factor = axes * np.sqrt(np.clip(variances, 0.0, None))
        return rng.standard_normal((size, readout.shape[1])) @ factor.T


def _local_readout(pop: TuningPopulation1D, theta_ref: float) -> tuple[np.ndarray, float]:
    """The local estimator's readout C^-1 f'(theta_ref) and the information f' . C^-1 f'."""
    d = mean_derivative(pop, theta_ref)
    weighted = apply_inverse(pop.decomp, d)
    return weighted, float(d @ weighted)


def estimate_local(
    pop: TuningPopulation1D,
    theta_ref: float,
    r_minus: np.ndarray,
    r_plus: np.ndarray,
) -> np.ndarray | float:
    """Local linear displacement estimate from a response change.

    Projects r_plus - r_minus onto the inverse-covariance-weighted derivative
    at the reference position and normalizes by the information; r_minus may be
    the exact mean response (known-reference paradigm) or a noisy snapshot.
    Accepts stacked (trials, n) inputs.
    """
    weighted, info = _local_readout(pop, theta_ref)
    delta = np.asarray(r_plus, dtype=float) - np.asarray(r_minus, dtype=float)
    est = delta @ weighted / info
    return float(est) if np.ndim(est) == 0 else est


def _single_frequency(pop: TuningPopulation1D) -> tuple[int, float, float]:
    if len(pop.allocation.entries) != 1:
        raise MultiModePopulationError(
            f"phase readout needs exactly one active frequency, got {len(pop.allocation.entries)}"
        )
    e = pop.allocation.entries[0]
    return e.frequency, e.amplitude, e.phase


def _phase_readout(pop: TuningPopulation1D) -> np.ndarray:
    """The single frequency's (cos, sin) eigenvector pair as the columns of an (n, 2) readout."""
    k, _, _ = _single_frequency(pop)
    return np.column_stack([pop.decomp.cos_vector(k), pop.decomp.sin_vector(k)])


def _phase_angle(pop: TuningPopulation1D, a, b):
    """Position modulo 2 pi / k whose (cos, sin) projections are (a, b)."""
    k, _, phase = _single_frequency(pop)
    return np.mod((np.arctan2(a, -b) - phase) / k, TWO_PI / k)


def estimate_phase(pop: TuningPopulation1D, r: np.ndarray) -> np.ndarray | float:
    """Position estimate modulo 2 pi / k for a single-frequency population.

    Projects the response onto the frequency's (cos, sin) eigenvector pair and
    reads the angle; no reference position is needed, so differencing two calls
    gives a reference-free displacement estimate.
    """
    ab = np.asarray(r, dtype=float) @ _phase_readout(pop)
    out = _phase_angle(pop, ab[..., 0], ab[..., 1])
    return float(out) if np.ndim(out) == 0 else out


def _wrap_signed(delta: np.ndarray, period: float) -> np.ndarray:
    return (delta + period / 2.0) % period - period / 2.0


def _check_experiment(
    trials: int, mode: str, estimator: str, noise_scale: float, **positions: float
) -> None:
    """Raise ValueError unless trials >= 100, mode and estimator are known, noise_scale is
    finite and >= 0, and every named position (displacement, start) is finite."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if not (math.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    for name, value in positions.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if mode not in ("known_reference", "two_snapshot"):
        raise ValueError(f"unknown mode {mode!r}")
    if estimator not in ("local_linear", "phase"):
        raise ValueError(f"unknown estimator {estimator!r}")


@dataclass(frozen=True)
class SimConfig:
    """One displacement-estimation experiment."""

    population: TuningPopulation1D
    delta_theta: float = 1e-3
    trials: int = 100_000
    seed: int = 0
    mode: Mode = "known_reference"
    estimator: Estimator = "local_linear"
    theta0: float = 0.0
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        _check_experiment(
            self.trials,
            self.mode,
            self.estimator,
            self.noise_scale,
            delta_theta=self.delta_theta,
            theta0=self.theta0,
        )
        k_max = self.population.allocation.max_frequency()
        if k_max * abs(self.delta_theta) > SMALL_DISPLACEMENT_LIMIT:
            warnings.warn(
                f"displacement {self.delta_theta} is large for frequency {k_max}; "
                "the local estimator linearization degrades",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SimResult:
    """Aggregated displacement-estimation statistics versus the bound."""

    mean_estimate: float
    empirical_variance: float
    bias: float
    crb_reference: float
    efficiency: float
    variance_stderr: float
    fisher_information: float
    trials: int
    seed: int
    mode: Mode
    estimator: Estimator
    delta_theta: float

    def to_dict(self) -> dict:
        return asdict(self)


def _estimate_step(
    pop: TuningPopulation1D,
    theta_ref: float,
    delta_theta: float,
    trials: int,
    mode: Mode,
    estimator: Estimator,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """One batch of displacement estimates with fresh noise.

    Only the noise projections on the estimator's readout are drawn: the plus
    snapshot's for every trial, then, in two_snapshot mode, the reference
    snapshot's.
    """
    f_ref = mean_response(pop, theta_ref)
    f_plus = mean_response(pop, theta_ref + delta_theta)
    two_snapshot = mode == "two_snapshot"
    if estimator == "local_linear":
        weighted, info = _local_readout(pop, theta_ref)
        readout = weighted[:, None]
        change = noise.project(rng, trials, readout)[:, 0]
        if two_snapshot:
            change -= noise.project(rng, trials, readout)[:, 0]
        return ((f_plus - f_ref) @ weighted + change) / info
    readout = _phase_readout(pop)
    plus = f_plus @ readout + noise.project(rng, trials, readout)
    ref = f_ref @ readout
    if two_snapshot:
        ref = ref + noise.project(rng, trials, readout)
    k, _, _ = _single_frequency(pop)
    return _wrap_signed(_phase_angle(pop, *plus.T) - _phase_angle(pop, *ref.T), TWO_PI / k)


def run_displacement_trials(
    config: SimConfig, with_estimates: bool = False
) -> SimResult | tuple[SimResult, np.ndarray]:
    """Run the configured experiment and compare with the matching bound.

    With ``with_estimates`` the per-trial estimates are returned alongside the
    aggregate result (for dump-style exports).
    """
    pop = config.population
    noise = NoiseModel(pop.decomp, scale=config.noise_scale)
    rng = make_rng(config.seed)
    estimates = _estimate_step(
        pop,
        config.theta0,
        config.delta_theta,
        config.trials,
        config.mode,
        config.estimator,
        noise,
        rng,
    )
    info = fisher_1d_spectral(pop.allocation, pop.decomp)
    snapshots = 2.0 if config.mode == "two_snapshot" else 1.0
    crb_ref = snapshots * config.noise_scale**2 / info
    mean = float(np.mean(estimates))
    variance = float(np.var(estimates, ddof=1))
    result = SimResult(
        mean_estimate=mean,
        empirical_variance=variance,
        bias=mean - config.delta_theta,
        crb_reference=crb_ref,
        efficiency=crb_ref / variance if variance > 0.0 else 0.0,
        variance_stderr=variance * math.sqrt(2.0 / (config.trials - 1)),
        fisher_information=info,
        trials=config.trials,
        seed=config.seed,
        mode=config.mode,
        estimator=config.estimator,
        delta_theta=config.delta_theta,
    )
    return (result, estimates) if with_estimates else result


@dataclass(frozen=True)
class PathIntegrationReport:
    """Drift statistics for accumulated small-displacement estimates."""

    steps: int
    trials: int
    step_delta: float
    mean_final_error: float
    final_error_variance: float
    single_step_variance: float
    linear_growth_ratio: float
    variance_by_step: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def run_path_integration(
    pop: TuningPopulation1D,
    steps: int = 100,
    step_delta: float = 1e-3,
    trials: int = 10_000,
    seed: int = 0,
    mode: Mode = "two_snapshot",
    estimator: Estimator = "local_linear",
    noise_scale: float = 1.0,
    theta0: float = 0.0,
) -> PathIntegrationReport:
    """Accumulate per-step estimates along a constant-velocity trajectory.

    Every step draws fresh snapshots, so step errors are independent and the
    final-position error variance grows linearly with the step count.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_experiment(trials, mode, estimator, noise_scale, step_delta=step_delta, theta0=theta0)
    noise = NoiseModel(pop.decomp, scale=noise_scale)
    rng = make_rng(seed)
    cumulative = np.zeros(trials)
    variance_by_step = []
    for s in range(steps):
        theta_s = theta0 + s * step_delta
        cumulative = cumulative + _estimate_step(
            pop, theta_s, step_delta, trials, mode, estimator, noise, rng
        )
        errors = cumulative - (s + 1) * step_delta
        variance_by_step.append(float(np.var(errors, ddof=1)))
    single = variance_by_step[0]
    final = variance_by_step[-1]
    ratio = final / (steps * single) if single > 0.0 else float("nan")
    return PathIntegrationReport(
        steps=steps,
        trials=trials,
        step_delta=step_delta,
        mean_final_error=float(np.mean(cumulative - steps * step_delta)),
        final_error_variance=final,
        single_step_variance=single,
        linear_growth_ratio=ratio,
        variance_by_step=tuple(variance_by_step),
    )
