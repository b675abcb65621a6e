"""Monte Carlo validation of displacement estimation against the Cramer-Rao bound.

Noise is drawn spectrally: independent standard normals per eigen-mode scaled
by the square root of the eigenvalue reproduce the circulant covariance
exactly. ``NoiseModel.sample`` lays them out like the eigenbasis columns
(cos0, cos1, sin1, ...) and synthesizes responses with one ``irfft`` per axis,
O(n log n) per draw. The local readout projects a response change on
C^-1 f'(theta_ref) and divides by the information I = sum_k T_k^2 / lambda_k;
the phase readout projects a response on the single active frequency's
(cos, sin) eigenvector pair and reads the angle, reference-free up to the
mode's angular ambiguity. The Monte Carlo runs never form a response: the DFT
diagonalizes the noise, so both readouts have closed forms in the allocation
and the eigenvalues, and ``_step_estimates`` is their only implementation (the
tests read whole responses with a dense solve and explicit cos/sin projections
as its oracle). The local estimate of a step delta is
sum_k T_k^2 sin(k delta) / (k lambda_k) / I at every position (both sums are
``tuning._spectral_sum``), with noise
variance sigma^2 / I per snapshot; the phase projections of f(theta) are its
order-0 coefficients (``tuning._coefficients``), with noise sigma^2 lambda_k
times the 2 x 2 identity. A snapshot costs one normal (local) or two (phase)
per trial, whatever n. One noisy snapshot against a known mean bounds the
variance at 1/I, two noisy snapshots at 2/I. ``SimConfig`` is the one
description and validator of an experiment, and one step loop draws for both
runners: ``run_displacement_trials`` takes its first step and
``run_path_integration`` its first ``steps``, with the readout's noise, the
information and the local readout's noiseless value computed once per run.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import MultiModePopulationError
from .spectral import (
    TWO_PI,
    SpectralDecomposition,
    TorusCorrelation,
    _columns_to_bins,
    _nonnegative,
    _positive,
    _Record,
)
from .tuning import TuningPopulation1D, _coefficients, _spectral_sum
# not called here: perfbench/tests pin mcsim.mean_derivative as the traced tuning.mean_derivative
from .tuning import mean_derivative  # noqa: F401

Mode = Literal["known_reference", "two_snapshot"]
Estimator = Literal["local_linear", "phase"]

#: Linearization guard: warn when max frequency times displacement exceeds this.
SMALL_DISPLACEMENT_LIMIT = 0.1


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by the seed: the same seed gives the same stream."""
    return np.random.Generator(np.random.Philox(seed))


def _sqrt_eigenvalues(decomp: SpectralDecomposition) -> np.ndarray:
    """Noise standard deviation per mode; NotPositiveSemidefiniteError on a negative eigenvalue."""
    return np.sqrt(np.clip(_nonnegative(decomp.eigenvalues), 0.0, None))


@dataclass(frozen=True)
class NoiseModel:
    """Spectral Gaussian sampler for a ring (or separable torus) covariance.

    ``scale`` multiplies the noise standard deviation: 1 reproduces the kernel
    covariance, 0 gives deterministic responses.
    """

    decomp: SpectralDecomposition | TorusCorrelation
    scale: float = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` noise vectors: shape (size, n) on the ring, (size, n^2) on the torus."""
        torus = isinstance(self.decomp, TorusCorrelation)
        axis = self.decomp.axis if torus else self.decomp
        n = axis.n
        sigma = self.scale * _sqrt_eigenvalues(axis)
        # the normals go in as a temporary, freed before irfft allocates its output
        if torus:
            # B (z * sigma sigma^T) B^T: synthesize along the last axis, then along the other one.
            rows = np.fft.irfft(_columns_to_bins(rng.standard_normal((size, n, n)), sigma), n)
            both = np.fft.irfft(_columns_to_bins(rows.swapaxes(1, 2), sigma), n)
            return both.swapaxes(1, 2).reshape(size, n * n)
        return np.fft.irfft(_columns_to_bins(rng.standard_normal((size, n)), sigma), n)


def _single_frequency(pop: TuningPopulation1D) -> tuple[int, float]:
    if len(pop.allocation.entries) != 1:
        raise MultiModePopulationError(
            f"phase readout needs exactly one active frequency, got {len(pop.allocation.entries)}"
        )
    e = pop.allocation.entries[0]
    return e.frequency, e.phase


def _phase_angle(k: int, phase: float, a, b):
    """Position modulo 2 pi / k whose (cos, sin) projections are (a, b)."""
    return np.mod((np.arctan2(a, -b) - phase) / k, TWO_PI / k)


@dataclass(frozen=True)
class SimConfig:
    """One displacement-estimation experiment, validated on construction.

    Raises ValueError unless trials >= 100, seed >= 0, mode and estimator are
    known, noise_scale is finite and >= 0, and delta_theta and theta0 are finite.
    """

    population: TuningPopulation1D
    delta_theta: float = 1e-3
    trials: int = 100_000
    seed: int = 0
    mode: Mode = "known_reference"
    estimator: Estimator = "local_linear"
    theta0: float = 0.0
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.trials < 100:
            raise ValueError(f"trials must be >= 100, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        for name, value in (("delta_theta", self.delta_theta), ("theta0", self.theta0)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mode not in ("known_reference", "two_snapshot"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.estimator not in ("local_linear", "phase"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        k_max = self.population.allocation.max_frequency()
        if k_max * abs(self.delta_theta) > SMALL_DISPLACEMENT_LIMIT:
            warnings.warn(
                f"displacement {self.delta_theta} is large for frequency {k_max}; "
                "the local estimator linearization degrades",
                stacklevel=3,  # past the dataclass-generated __init__, to its caller
            )


@dataclass(frozen=True)
class SimResult(_Record):
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


def _step_estimates(config: SimConfig) -> tuple[float, Iterator[np.ndarray]]:
    """The information I and the estimates of steps 0, 1, ..., each of delta_theta from
    theta0 + s delta_theta, with noise drawn from one ``make_rng(seed)`` stream: the plus
    snapshot of every trial, then, in two_snapshot mode, the reference snapshot.

    Raises before any draw: ValueError with no active frequency, SingularCovarianceError
    (local) unless every eigenvalue is positive, MultiModePopulationError (phase) unless
    one frequency is active, NotPositiveSemidefiniteError (phase) on a negative eigenvalue.
    """
    pop, delta, trials = config.population, config.delta_theta, config.trials
    two_snapshot = config.mode == "two_snapshot"
    if not pop.allocation.entries:
        raise ValueError("the population has no active frequency, so no displacement is observable")
    if config.estimator == "local_linear":
        _positive(pop.decomp.eigenvalues)
        info = _spectral_sum(pop.allocation, pop.decomp, 0)
        sd = config.noise_scale * math.sqrt(info)
        shift = _spectral_sum(pop.allocation, pop.decomp, 1, lambda k: math.sin(k * delta))

        def estimate(rng: np.random.Generator, theta: float) -> np.ndarray:
            change = sd * rng.standard_normal(trials)
            if two_snapshot:
                change -= sd * rng.standard_normal(trials)
            return (shift + change) / info

    else:
        k, phase = _single_frequency(pop)
        sd = config.noise_scale * float(_sqrt_eigenvalues(pop.decomp)[k])
        period = TWO_PI / k
        info = _spectral_sum(pop.allocation, pop.decomp, 0)

        def estimate(rng: np.random.Generator, theta: float) -> np.ndarray:
            plus, ref = _coefficients(pop, np.array([theta + delta, theta]), 0)
            plus = plus + sd * rng.standard_normal((trials, 2))
            if two_snapshot:
                ref = ref + sd * rng.standard_normal((trials, 2))
            angle_change = _phase_angle(k, phase, *plus.T) - _phase_angle(k, phase, *ref.T)
            return (angle_change + period / 2.0) % period - period / 2.0

    def steps() -> Iterator[np.ndarray]:
        rng = make_rng(config.seed)
        for s in itertools.count():
            yield estimate(rng, config.theta0 + s * delta)

    return info, steps()


def run_displacement_trials(
    config: SimConfig, with_estimates: bool = False
) -> SimResult | tuple[SimResult, np.ndarray]:
    """Run the configured experiment and compare with the matching bound.

    With ``with_estimates`` the per-trial estimates are returned alongside the
    aggregate result (for dump-style exports).
    """
    info, steps = _step_estimates(config)
    estimates = next(steps)
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
class PathIntegrationReport(_Record):
    """Drift statistics for accumulated small-displacement estimates."""

    steps: int
    trials: int
    step_delta: float
    mean_final_error: float
    final_error_variance: float
    single_step_variance: float
    linear_growth_ratio: float
    variance_by_step: tuple[float, ...]


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
    config = SimConfig(
        pop, delta_theta=step_delta, trials=trials, seed=seed, mode=mode,
        estimator=estimator, theta0=theta0, noise_scale=noise_scale,
    )
    _, estimates = _step_estimates(config)
    cumulative = np.zeros(trials)
    variance_by_step = []
    for s, step in zip(range(1, steps + 1), estimates):
        cumulative = cumulative + step
        errors = cumulative - s * step_delta
        variance_by_step.append(float(np.var(errors, ddof=1)))
    single, final = variance_by_step[0], variance_by_step[-1]
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
