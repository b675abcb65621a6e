"""Monte Carlo validation of displacement estimation against the Cramer-Rao bound.

Noise is drawn spectrally: independent standard normals per eigen-mode scaled
by the square root of the eigenvalue reproduce the circulant covariance
exactly. ``NoiseModel.sample`` lays them out like the eigenbasis columns
(cos0, cos1, sin1, ...) and synthesizes responses with one ``irfft`` per axis,
O(n log n) per draw. The Monte Carlo runs never form a response: the m active
frequencies' unit cos and sin eigenvectors (the rows of ``tuning._basis``)
diagonalize the noise, so a snapshot's noise on their 2m coefficients is 2m
independent normals, frequency k's cos and sin with variance sigma^2 lambda_k.
``_step_estimates`` draws them once per snapshot, shape (trials, 2m), and adds
them to the noiseless order-0 coefficients of f(theta) (``tuning._coefficients``).
Both estimators are readouts of that one draw. The local readout is the
coefficient change weighted by the order-1 coefficients of f'(theta_ref) over
lambda_k (``tuning._gram_weights``) and divided by the information
I = sum_k w_k / lambda_k (``tuning._spectral_sum``): the projection of the
response change on C^-1 f'(theta_ref), over I. The phase readout reads each
snapshot's angle from the single active frequency's (cos, sin) pair, needing
no reference up to the mode's angular ambiguity, and wraps their difference
into one period. The tests read whole responses with a dense solve and
explicit cos/sin projections as the oracle of both. A snapshot costs 2m
normals per trial, whatever n. One noisy snapshot against a known mean bounds
the variance at 1/I, two noisy snapshots at 2/I. ``SimConfig`` is the one
description and validator of an experiment, and one step loop draws for both
runners: ``run_displacement_trials`` takes its first step and
``run_path_integration`` its first ``steps``, with the noise scales and the
information computed once per run.
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
    _Record,
)
from .tuning import TuningPopulation1D, _coefficients, _gram_weights, _spectral_sum
# not called here: perfbench/tests pin mcsim.mean_derivative as the traced tuning.mean_derivative
from .tuning import mean_derivative  # noqa: F401

Mode = Literal["known_reference", "two_snapshot"]
Estimator = Literal["local_linear", "phase"]

#: Linearization guard of the local estimator: warn when max frequency times displacement
#: exceeds this. The phase estimator warns from pi on, where its wrapped estimate aliases.
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
        turn = k_max * abs(self.delta_theta)
        if self.estimator == "local_linear" and turn > SMALL_DISPLACEMENT_LIMIT:
            problem = "the local estimator linearization degrades"
        elif self.estimator == "phase" and turn >= math.pi:
            problem = f"the phase estimate wraps into [-pi/{k_max}, pi/{k_max}) and aliases"
        else:
            return
        warnings.warn(
            f"displacement {self.delta_theta} is large for frequency {k_max}; {problem}",
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
    theta0 + s delta_theta, with noise drawn from one ``make_rng(seed)`` stream: the
    (trials, 2m) coefficient noise of the plus snapshot, then, in two_snapshot mode, of the
    reference snapshot. Both estimators read the same draws.

    Raises before any draw, in this order: SingularCovarianceError (local) unless every
    eigenvalue is positive, NotPositiveSemidefiniteError (phase) on a negative eigenvalue,
    ValueError unless the information is positive (no entry, or every power 0 or so small
    that the sum underflows), MultiModePopulationError (phase) unless one frequency is active.
    """
    pop, delta, trials = config.population, config.delta_theta, config.trials
    two_snapshot = config.mode == "two_snapshot"
    if config.estimator == "local_linear":
        weights = _gram_weights(pop)  # a singular covariance is named before the spectrum's sign
    info = _spectral_sum(pop.allocation, pop.decomp, 0)
    if not info > 0.0:
        raise ValueError(
            f"the population has no active frequency (information {info!r}), so no displacement is observable"
        )
    if config.estimator == "local_linear":

        def read(plus: np.ndarray, ref: np.ndarray, theta: float) -> np.ndarray:
            return (plus - ref) @ (_coefficients(pop, theta, 1) * weights) / info

    else:
        k, phase = _single_frequency(pop)
        period = TWO_PI / k

        def read(plus: np.ndarray, ref: np.ndarray, theta: float) -> np.ndarray:
            angle_change = _phase_angle(k, phase, *plus.T) - _phase_angle(k, phase, *ref.T)
            return (angle_change + period / 2.0) % period - period / 2.0

    active = [e.frequency for e in pop.allocation.entries]
    sd = config.noise_scale * np.repeat(_sqrt_eigenvalues(pop.decomp)[active], 2)

    def steps() -> Iterator[np.ndarray]:
        rng = make_rng(config.seed)
        for s in itertools.count():
            theta = config.theta0 + s * delta
            plus, ref = _coefficients(pop, np.array([theta + delta, theta]), 0)
            plus = plus + sd * rng.standard_normal((trials, sd.size))
            if two_snapshot:
                ref = ref + sd * rng.standard_normal((trials, sd.size))
            yield read(plus, ref, theta)

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
