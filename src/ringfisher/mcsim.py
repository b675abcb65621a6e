"""Monte Carlo validation of displacement estimation against the Cramer-Rao bound.

Noise is drawn spectrally: independent standard normals per eigen-mode scaled
by the square root of the eigenvalue reproduce the circulant covariance
exactly. ``NoiseModel.sample`` lays them out like the eigenbasis columns
(cos0, cos1, sin1, ...) and synthesizes responses with one ``irfft`` per axis,
O(n log n) per draw. ``estimate_local`` projects a response change on
C^-1 f'(theta_ref) and divides by the information I = sum_k T_k^2 / lambda_k;
``estimate_phase`` projects a response on the single active frequency's
(cos, sin) eigenvector pair and reads the angle, reference-free up to the
mode's angular ambiguity. The Monte Carlo runs never form a response: the DFT
diagonalizes the noise, so both readouts have closed forms in the allocation
and the eigenvalues. The local estimate of a step delta is
sum_k T_k^2 sin(k delta) / (k lambda_k) / I at every position, with noise
variance sigma^2 / I per snapshot; the phase projections of f(theta) are
(T/k)(sin psi, -cos psi) with psi = k theta + c, with noise sigma^2 lambda_k
times the 2 x 2 identity. A snapshot costs one normal (local) or two (phase)
per trial, whatever n. One noisy snapshot against a known mean bounds the
variance at 1/I, two noisy snapshots at 2/I. ``SimConfig`` and
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
    _columns_to_bins,
    _invertible_eigenvalues,
    apply_inverse,
)
from .tuning import TuningPopulation1D, mean_derivative

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
    d = mean_derivative(pop, theta_ref)
    weighted = apply_inverse(pop.decomp, d)
    delta = np.asarray(r_plus, dtype=float) - np.asarray(r_minus, dtype=float)
    est = delta @ weighted / float(d @ weighted)
    return float(est) if np.ndim(est) == 0 else est


def _single_frequency(pop: TuningPopulation1D) -> tuple[int, float, float]:
    if len(pop.allocation.entries) != 1:
        raise MultiModePopulationError(
            f"phase readout needs exactly one active frequency, got {len(pop.allocation.entries)}"
        )
    e = pop.allocation.entries[0]
    return e.frequency, e.amplitude, e.phase


def _phase_angle(k: int, phase: float, a, b):
    """Position modulo 2 pi / k whose (cos, sin) projections are (a, b)."""
    return np.mod((np.arctan2(a, -b) - phase) / k, TWO_PI / k)


def estimate_phase(pop: TuningPopulation1D, r: np.ndarray) -> np.ndarray | float:
    """Position estimate modulo 2 pi / k for a single-frequency population.

    Projects the response onto the frequency's (cos, sin) eigenvector pair and
    reads the angle; no reference position is needed, so differencing two calls
    gives a reference-free displacement estimate.
    """
    k, _, phase = _single_frequency(pop)
    readout = np.column_stack([pop.decomp.cos_vector(k), pop.decomp.sin_vector(k)])
    ab = np.asarray(r, dtype=float) @ readout
    out = _phase_angle(k, phase, ab[..., 0], ab[..., 1])
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


def _readout_sd(pop: TuningPopulation1D, estimator: Estimator, noise: NoiseModel) -> float:
    """Noise standard deviation of a snapshot's readout: sigma sqrt(I) on f'^T C^-1 r, which
    needs every eigenvalue positive (SingularCovarianceError), or sigma sqrt(lambda_k) on each
    phase projection, which needs PSD noise (NotPositiveSemidefiniteError)."""
    if estimator == "local_linear":
        _invertible_eigenvalues(pop.decomp)
        return noise.scale * math.sqrt(fisher_1d_spectral(pop.allocation, pop.decomp))
    k, _, _ = _single_frequency(pop)
    return noise.scale * float(noise._sqrt_eigenvalues()[k])


def _estimate_step(
    pop: TuningPopulation1D,
    theta_ref: float,
    delta_theta: float,
    trials: int,
    mode: Mode,
    estimator: Estimator,
    readout_sd: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One batch of displacement estimates with fresh noise.

    The noiseless readouts come from their closed forms in the allocation and
    the eigenvalues; the noise is ``readout_sd`` times standard normals, drawn
    for the plus snapshot of every trial, then, in two_snapshot mode, for the
    reference snapshot.
    """
    two_snapshot = mode == "two_snapshot"
    if estimator == "local_linear":
        lams = pop.decomp.eigenvalues
        shift = 0.0
        for e in pop.allocation.entries:
            k = e.frequency
            shift += e.amplitude**2 * math.sin(k * delta_theta) / (k * lams[k])
        change = readout_sd * rng.standard_normal(trials)
        if two_snapshot:
            change -= readout_sd * rng.standard_normal(trials)
        return (shift + change) / fisher_1d_spectral(pop.allocation, pop.decomp)
    k, amplitude, phase = _single_frequency(pop)
    psi = k * np.array([theta_ref + delta_theta, theta_ref]) + phase
    plus, ref = (amplitude / k) * np.column_stack([np.sin(psi), -np.cos(psi)])
    plus = plus + readout_sd * rng.standard_normal((trials, 2))
    if two_snapshot:
        ref = ref + readout_sd * rng.standard_normal((trials, 2))
    angle_change = _phase_angle(k, phase, *plus.T) - _phase_angle(k, phase, *ref.T)
    return _wrap_signed(angle_change, TWO_PI / k)


def run_displacement_trials(
    config: SimConfig, with_estimates: bool = False
) -> SimResult | tuple[SimResult, np.ndarray]:
    """Run the configured experiment and compare with the matching bound.

    With ``with_estimates`` the per-trial estimates are returned alongside the
    aggregate result (for dump-style exports).
    """
    pop = config.population
    readout_sd = _readout_sd(pop, config.estimator, NoiseModel(pop.decomp, scale=config.noise_scale))
    rng = make_rng(config.seed)
    estimates = _estimate_step(
        pop,
        config.theta0,
        config.delta_theta,
        config.trials,
        config.mode,
        config.estimator,
        readout_sd,
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
    readout_sd = _readout_sd(pop, estimator, NoiseModel(pop.decomp, scale=noise_scale))
    rng = make_rng(seed)
    cumulative = np.zeros(trials)
    variance_by_step = []
    for s in range(steps):
        theta_s = theta0 + s * step_delta
        cumulative = cumulative + _estimate_step(
            pop, theta_s, step_delta, trials, mode, estimator, readout_sd, rng
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
