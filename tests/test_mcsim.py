"""Monte Carlo displacement estimation against the Cramer-Rao bound."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringfisher import mcsim
from ringfisher.errors import (
    MultiModePopulationError,
    NotPositiveSemidefiniteError,
    SingularCovarianceError,
)
from ringfisher.mcsim import (
    NoiseModel,
    SimConfig,
    make_rng,
    run_displacement_trials,
    run_path_integration,
)
from ringfisher.spectral import (
    TWO_PI,
    CorrelationKernel,
    SpectralDecomposition,
    TorusCorrelation,
    apply_inverse,
    decompose,
    exponential_kernel,
    kernel_from_spectrum,
)
from ringfisher.tuning import (
    AllocationEntry,
    PowerAllocation,
    TuningPopulation1D,
    _coefficients,
    mean_derivative,
    optimal_tuning_1d,
)

from conftest import (
    assert_close_relative,
    column_eigenvalues,
    dense_basis,
    dense_ring_matrix,
    dense_torus_matrix,
    float_digest,
    mean_response,
    random_psd_kernel,
    white_kernel,
)
from test_tuning import single_mode_pop


def sample_response(
    pop: TuningPopulation1D,
    theta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Mean response at theta plus spectral Gaussian noise: one n-vector, or (size, n) when ``size`` is given."""
    mean = mean_response(pop, theta)
    if size is None:
        return mean + noise.sample(rng, 1)[0]
    return mean + noise.sample(rng, size)


class TestNoiseModel:
    def test_vanishing_noise_limit(self):
        decomp = decompose(white_kernel(4, sigma_sq=1e-18))
        pop = single_mode_pop(decomp)
        response = sample_response(pop, 0.3, NoiseModel(decomp), make_rng(1))
        assert np.max(np.abs(response - mean_response(pop, 0.3))) < 1e-7

    def test_sample_covariance_matches_kernel(self, n4_decomp):
        pop = single_mode_pop(n4_decomp)
        draws = sample_response(pop, 0.3, NoiseModel(n4_decomp), make_rng(42), size=100_000)
        sample_cov = np.cov(draws, rowvar=False)
        assert sample_cov[0, 1] == pytest.approx(0.5, abs=0.02)
        np.testing.assert_allclose(
            draws.mean(axis=0), mean_response(pop, 0.3), atol=0.02
        )
        dense = dense_ring_matrix(n4_decomp)
        tol = 5.0 * math.sqrt(2.0 / 100_000)
        np.testing.assert_allclose(sample_cov, dense, atol=tol * dense[0, 0])

    def test_fixed_seed_reproducible(self, n4_decomp):
        pop = single_mode_pop(n4_decomp)
        first = sample_response(pop, 0.1, NoiseModel(n4_decomp), make_rng(7))
        second = sample_response(pop, 0.1, NoiseModel(n4_decomp), make_rng(7))
        np.testing.assert_array_equal(first, second)

    def test_torus_sample_covariance(self, n4_decomp):
        draws = NoiseModel(TorusCorrelation(n4_decomp)).sample(make_rng(3), 40_000)
        assert draws.shape == (40_000, 16)
        dense = dense_torus_matrix(n4_decomp)
        sample_cov = np.cov(draws, rowvar=False)
        tol = 5.0 * math.sqrt(2.0 / 40_000)
        np.testing.assert_allclose(sample_cov, dense, atol=2.0 * tol * dense[0, 0])

    def test_zero_scale_is_deterministic(self, n4_decomp):
        draws = NoiseModel(n4_decomp, scale=0.0).sample(make_rng(0), 10)
        assert np.all(draws == 0.0)


class TestSampleMatchesDenseOracle:
    """Fixed-seed rfft draws equal the dense eigenbasis synthesis of the same normals."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 3.0))
    def test_ring_sample(self, n, seed, scale):
        decomp = decompose(random_psd_kernel(np.random.default_rng(seed), n))
        sigma = scale * np.sqrt(column_eigenvalues(decomp))
        z = make_rng(seed).standard_normal((5, n))
        expected = (z * sigma) @ dense_basis(decomp).T
        assert_close_relative(NoiseModel(decomp, scale=scale).sample(make_rng(seed), 5), expected)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
    def test_torus_sample(self, n, seed):
        decomp = decompose(random_psd_kernel(np.random.default_rng(seed), n))
        basis = dense_basis(decomp)
        sigma = np.sqrt(column_eigenvalues(decomp))
        z = make_rng(seed).standard_normal((3, n, n)) * np.outer(sigma, sigma)
        expected = (basis @ z @ basis.T).reshape(3, n * n)
        draws = NoiseModel(TorusCorrelation(decomp)).sample(make_rng(seed), 3)
        assert_close_relative(draws, expected)


class TestSampleDigests:
    """Fixed-seed draws keep every bit: float_digest of each, ring and torus."""

    RING = {
        4: "8b9912f58ae95041ec2716667dfc701de9c6fda6b36cc2a6c720740248d628c7",
        5: "dc9c199f578af8f53f715404c238718df857128e2ecee37613c8926daa29b78f",
        7: "f133b9dfc088d74d0c6f026df89431fa6cb312c39534c005ec4e2aea2bc32052",
        8: "5e7659e1627bac8d9280c1a895e72436780fa9b68b1e05f96b55d8848f05b976",
    }
    TORUS = {
        4: "a5959c591dc5de8c7cbf35e004acf1eadc62c4c7cd77b70973892536e94d1204",
        5: "a25b2c563ba142e9a6264d7f2f8de41c35e72597e3232a1003dd7cd573f2c9cd",
        7: "b35d563e536f6420daa56f70619d9037f6a293ef57a28392138f8a9e7803ebb0",
        8: "6bfc2a55d6714ffe194dda50b9716ba38cff9745e2414ce78655c64454e5bba1",
    }

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_ring_draws(self, n):
        decomp = decompose(exponential_kernel(n, rho=0.4))
        assert float_digest(NoiseModel(decomp, scale=1.3).sample(make_rng(n), 6)) == self.RING[n]

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_torus_draws(self, n):
        decomp = decompose(exponential_kernel(n, rho=0.4))
        draws = NoiseModel(TorusCorrelation(decomp), scale=0.7).sample(make_rng(n), 3)
        assert float_digest(draws) == self.TORUS[n]


def _peak_traced_mb(func) -> float:
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _random_population(seed: int, n: int, estimator: str) -> TuningPopulation1D:
    """Strictly positive random kernel; one to three active modes for local_linear, one strong mode for phase."""
    g = np.random.default_rng(seed)
    decomp = decompose(random_psd_kernel(g, n))
    paired = list(decomp.paired_frequencies)
    if estimator == "phase":
        k = int(g.choice(paired))
        # amplitude / k = 30 noise standard deviations: the readout never wraps
        entries = (AllocationEntry(k, (30.0 * k) ** 2, float(g.uniform(0.0, 6.0))),)
    else:
        ks = g.choice(paired, size=min(len(paired), int(g.integers(1, 4))), replace=False)
        entries = tuple(
            AllocationEntry(int(k), float(g.uniform(0.2, 2.0)) ** 2, float(g.uniform(0.0, 6.0))) for k in ks
        )
    return TuningPopulation1D(decomp, PowerAllocation(entries=entries))


def _estimates(config: SimConfig) -> np.ndarray:
    return run_displacement_trials(config, with_estimates=True)[1]


def _read_responses(config: SimConfig, r_ref: np.ndarray, r_plus: np.ndarray) -> np.ndarray:
    """Oracle: the configured estimator applied to whole responses, without the package's readouts.

    local_linear: the change projected on C^-1 f'(theta0) by a dense solve, over f'^T C^-1 f'.
    phase: the angle of each response's cos/sin projections on the active frequency, differenced
    and wrapped into one period.
    """
    pop = config.population
    if config.estimator == "local_linear":
        d = mean_derivative(pop, config.theta0)
        weighted = np.linalg.solve(dense_ring_matrix(pop.decomp), d)
        return (r_plus - r_ref) @ weighted / (d @ weighted)
    (entry,) = pop.allocation.entries
    k = entry.frequency
    x = 2.0 * math.pi * k * np.arange(pop.n) / pop.n
    readout = np.column_stack([np.cos(x), np.sin(x)])

    def angle(r: np.ndarray) -> np.ndarray:
        # f(theta) projects on (cos, sin) as (sin psi, -cos psi) times T/k, with psi = k theta + c
        a, b = (r @ readout).T
        return (np.arctan2(a, -b) - entry.phase) / k

    period = 2.0 * math.pi / k
    change = angle(r_plus) - angle(r_ref)
    return (change + period / 2.0) % period - period / 2.0


def _synthesized_estimates(config: SimConfig, seed: int) -> np.ndarray:
    """Oracle: synthesize every noisy response with ``sample`` and read it with ``_read_responses``."""
    pop, theta0 = config.population, config.theta0
    noise, rng = NoiseModel(pop.decomp, scale=config.noise_scale), make_rng(seed)
    f_ref = mean_response(pop, theta0)
    r_plus = mean_response(pop, theta0 + config.delta_theta) + noise.sample(rng, config.trials)
    r_ref = f_ref + noise.sample(rng, config.trials) if config.mode == "two_snapshot" else f_ref
    return _read_responses(config, r_ref, r_plus)


def _small_config(mode, estimator, n, seed, trials, scale) -> SimConfig:
    pop = _random_population(seed, n, estimator)
    return SimConfig(
        population=pop, delta_theta=0.05 / pop.allocation.max_frequency(), trials=trials,
        seed=seed, mode=mode, estimator=estimator, theta0=0.3, noise_scale=scale,
    )


#: n = 8 kernels: eigenvalues about 2.8, 1.28, 0 (exactly), 0.72, 1.2, and 1, 0.5, -0.1, 0.3, 0.2.
ZERO_AT_2 = CorrelationKernel(8, (1.0, 0.3, 0.5, 0.1, 0.0))
NEGATIVE_AT_2 = kernel_from_spectrum(8, np.array([1.0, 0.5, -0.1, 0.3, 0.2]))


class TestProjectedNoise:
    """The Monte Carlo path draws the noise projections on the estimator readout directly."""

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    @pytest.mark.parametrize("mode", ["known_reference", "two_snapshot"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
    def test_zero_noise_estimates_read_the_mean_responses(self, mode, estimator, n, seed):
        config = _small_config(mode, estimator, n, seed, trials=100, scale=0.0)
        pop, theta0 = config.population, config.theta0
        f_ref, f_plus = mean_response(pop, theta0), mean_response(pop, theta0 + config.delta_theta)
        expected = _read_responses(config, f_ref, f_plus)
        np.testing.assert_allclose(_estimates(config), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    @pytest.mark.parametrize("mode", ["known_reference", "two_snapshot"])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1))
    def test_estimates_distributed_like_synthesized_responses(self, mode, estimator, n, seed):
        # z = 5 on the difference of two independent sample means and of two sample variances
        trials = 20_000
        config = _small_config(mode, estimator, n, seed, trials=trials, scale=1.0)
        actual = _estimates(config)
        oracle = _synthesized_estimates(config, seed=seed + 1)
        v1, v2 = np.var(actual, ddof=1), np.var(oracle, ddof=1)
        assert abs(np.mean(actual) - np.mean(oracle)) <= 5.0 * math.sqrt((v1 + v2) / trials)
        assert abs(v1 - v2) <= 5.0 * math.sqrt(2.0 / (trials - 1)) * math.hypot(v1, v2)

    @pytest.mark.filterwarnings("ignore:divide by zero")  # the bound's information is infinite
    def test_readout_on_noiseless_modes_projects_to_zero(self):
        # lambda_2 = 0 exactly, so a phase run at k = 2 draws its noise with standard deviation 0
        pop = TuningPopulation1D(decompose(ZERO_AT_2), PowerAllocation.single(2, 1.0, phase=0.4))
        noisy, noiseless = (
            _estimates(
                SimConfig(
                    population=pop, trials=500, seed=0, mode="two_snapshot", estimator="phase",
                    theta0=0.3, noise_scale=scale,
                )
            )
            for scale in (1.0, 0.0)
        )
        np.testing.assert_array_equal(noisy, noiseless)
        np.testing.assert_allclose(noiseless, 1e-3, rtol=0, atol=1e-12)


class TestCovarianceErrors:
    """The Monte Carlo runs check the whole spectrum, not just the active frequencies."""

    @pytest.mark.parametrize("kernel", [ZERO_AT_2, NEGATIVE_AT_2], ids=["zero", "negative"])
    def test_local_linear_needs_every_eigenvalue_positive(self, kernel):
        pop = TuningPopulation1D(decompose(kernel), PowerAllocation.single(1, 1.0))
        with pytest.raises(SingularCovarianceError):
            run_displacement_trials(SimConfig(population=pop, trials=200, seed=1))
        with pytest.raises(SingularCovarianceError):
            run_path_integration(pop, steps=2, trials=200, seed=1)

    def test_phase_needs_psd_noise(self):
        pop = TuningPopulation1D(decompose(NEGATIVE_AT_2), PowerAllocation.single(1, 1.0))
        with pytest.raises(NotPositiveSemidefiniteError):
            run_displacement_trials(SimConfig(population=pop, trials=200, seed=1, estimator="phase"))
        with pytest.raises(NotPositiveSemidefiniteError):
            run_path_integration(pop, steps=2, trials=200, seed=1, estimator="phase")

    def test_phase_runs_with_a_zero_eigenvalue_at_an_inactive_frequency(self):
        # power 100 over lambda_1 = 1.28: s = 0.11 rad, so the phase bound applies and no warning fires
        pop = TuningPopulation1D(decompose(ZERO_AT_2), PowerAllocation.single(1, 100.0))
        result = run_displacement_trials(SimConfig(population=pop, trials=200, seed=1, estimator="phase"))
        assert result.empirical_variance > 0.0
        run_path_integration(pop, steps=2, trials=200, seed=1, estimator="phase")


class TestEmptyPopulation:
    """A population with no information, because no frequency is active or every power is 0
    or too small to add to it, is rejected before any draw."""

    RUNNERS = {
        "displacement": lambda pop, estimator: run_displacement_trials(
            SimConfig(population=pop, trials=200, seed=1, estimator=estimator)
        ),
        "path": lambda pop, estimator: run_path_integration(
            pop, steps=2, trials=200, seed=1, estimator=estimator
        ),
    }

    @staticmethod
    def no_draws(seed):
        raise AssertionError("drew noise for a population with no information")

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_rejected_before_drawing(self, monkeypatch, n6_decomp, runner, estimator):
        monkeypatch.setattr(mcsim, "make_rng", self.no_draws)
        pop = TuningPopulation1D(n6_decomp, PowerAllocation(entries=()))
        with pytest.raises(ValueError, match="no active frequency"):
            self.RUNNERS[runner](pop, estimator)

    # lambda_1 is 1.25 c0, so at c0 = 10 the smallest power, 5e-324, over lambda_1 rounds to 0
    @pytest.mark.parametrize("c0, power", [(1.0, 0.0), (10.0, 5e-324)], ids=["zero", "underflow"])
    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_zero_information_rejected_before_drawing(self, monkeypatch, runner, estimator, c0, power):
        monkeypatch.setattr(mcsim, "make_rng", self.no_draws)
        kernel = CorrelationKernel(6, tuple(c0 * c for c in (1.0, 0.4, 0.1, 0.05)))
        pop = TuningPopulation1D(decompose(kernel), PowerAllocation((AllocationEntry(1, power),)))
        with pytest.raises(ValueError, match=r"no active frequency \(information 0\.0\)"):
            self.RUNNERS[runner](pop, estimator)


class TestRefusedBeforeWarning:
    """``SimConfig`` judges the population before it warns, so a run it refuses emits no warning,
    though each of these would warn of its step or its noise."""

    @pytest.mark.parametrize("runner", sorted(TestEmptyPopulation.RUNNERS))
    @pytest.mark.parametrize("case", ["singular", "negative", "underflow", "multi-mode"])
    def test_refused_run_emits_no_warning(self, monkeypatch, n6_decomp, runner, case):
        monkeypatch.setattr(mcsim, "make_rng", TestEmptyPopulation.no_draws)
        underflow = decompose(CorrelationKernel(6, (10.0, 4.0, 1.0, 0.5)))  # 5e-324 / lambda_1 is 0
        error, pop, estimator = {
            "singular": (SingularCovarianceError, single_mode_pop(decompose(ZERO_AT_2), frequency=3), "local_linear"),
            "negative": (NotPositiveSemidefiniteError, single_mode_pop(decompose(NEGATIVE_AT_2)), "phase"),
            "underflow": (ValueError, single_mode_pop(underflow, power=5e-324), "phase"),
            "multi-mode": (
                MultiModePopulationError,
                TuningPopulation1D(n6_decomp, PowerAllocation((AllocationEntry(1, 0.64), AllocationEntry(2, 0.36)))),
                "phase",
            ),
        }[case]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(error):
                if runner == "displacement":
                    SimConfig(population=pop, delta_theta=0.05, trials=200, seed=1, estimator=estimator)
                else:
                    run_path_integration(pop, steps=2, step_delta=0.05, trials=200, seed=1, estimator=estimator)
        assert [str(w.message) for w in seen] == []


class TestMonteCarloPathStaysInModeSpace:
    """No response vector, eigenvector, inverse or FFT on the Monte Carlo path."""

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    @pytest.mark.parametrize("mode", ["known_reference", "two_snapshot"])
    def test_no_n_space_work(self, monkeypatch, n6_decomp, mode, estimator):
        # a phase run at power 100 has s <= 0.21 rad, well inside the wrap
        pop = optimal_tuning_1d(n6_decomp, 100.0 if estimator == "phase" else 1.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("n-space work on the Monte Carlo path")

        for owner, name in [
            (SpectralDecomposition, "cos_vector"),
            (SpectralDecomposition, "sin_vector"),
            (np.fft, "rfft"),
            (np.fft, "irfft"),
            (mcsim, "mean_derivative"),
        ]:
            monkeypatch.setattr(owner, name, forbidden)
        run_displacement_trials(
            SimConfig(population=pop, trials=200, seed=1, mode=mode, estimator=estimator)
        )
        run_path_integration(pop, steps=3, trials=200, seed=1, mode=mode, estimator=estimator)


def _multi_frequency_population(seed: int, n: int) -> TuningPopulation1D:
    """Two or three active frequencies with random amplitudes and phases on a random kernel."""
    g = np.random.default_rng(seed)
    decomp = decompose(random_psd_kernel(g, n))
    paired = list(decomp.paired_frequencies)
    ks = g.choice(paired, size=min(len(paired), int(g.integers(2, 4))), replace=False)
    entries = tuple(
        AllocationEntry(int(k), float(g.uniform(0.2, 2.0)) ** 2, float(g.uniform(0.1, 6.0))) for k in ks
    )
    return TuningPopulation1D(decomp, PowerAllocation(entries=entries))


class TestLocalReadoutMatchesDenseGls:
    """Zero-noise local_linear estimates equal the dense GLS readout (f+ - f0)^T C^-1 f' / f'^T C^-1 f'."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(6, 16),
        seed=st.integers(0, 2**32 - 1),
        theta0=st.sampled_from([0.0, 1.3, 2.0]),
        delta=st.sampled_from([1e-3, 0.05, 0.3]),
        mode=st.sampled_from(["known_reference", "two_snapshot"]),
    )
    def test_zero_noise_estimates(self, n, seed, theta0, delta, mode):
        pop = _multi_frequency_population(seed, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k * delta may pass the linearization guard
            config = SimConfig(
                population=pop, delta_theta=delta, trials=100, seed=seed, mode=mode,
                theta0=theta0, noise_scale=0.0,
            )
        d = mean_derivative(pop, theta0)
        weighted = np.linalg.solve(dense_ring_matrix(pop.decomp), d)
        change = mean_response(pop, theta0 + delta) - mean_response(pop, theta0)
        expected = change @ weighted / (d @ weighted)
        np.testing.assert_allclose(_estimates(config), expected, rtol=0, atol=1e-12)


class TestLocalReadoutSums:
    """The local readout's information is a sequential loop's sum bit for bit, and its noiseless
    estimate is that loop's shift / information to 1e-13.

    Independent of ``_coefficients``: the dense-oracle tests build f' with the same
    coefficients as the readout, so only this closed form catches a swapped cos/sin or a
    flipped sign in the order-1 coefficients.
    """

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 40),
        seed=st.integers(0, 2**32 - 1),
        theta0=st.sampled_from([0.0, 1.3, 5.9]),
        delta=st.sampled_from([1e-3, 0.05, -0.3]),
        mode=st.sampled_from(["known_reference", "two_snapshot"]),
    )
    def test_zero_noise_run_returns_shift_over_information_bit_for_bit(self, n, seed, theta0, delta, mode):
        g = np.random.default_rng(seed)
        decomp = decompose(random_psd_kernel(g, n))
        paired = list(decomp.paired_frequencies)
        ks = g.choice(paired, size=int(g.integers(3, len(paired) + 1)), replace=False)
        entries = tuple(AllocationEntry(int(k), float(g.uniform(0.2, 2.0)) ** 2, float(g.uniform(0.0, 6.0))) for k in ks)
        pop = TuningPopulation1D(decomp, PowerAllocation(entries=entries))
        info = shift = 0.0
        for e in entries:
            k, lam = e.frequency, decomp.eigenvalues[e.frequency]
            info += e.power / lam
            shift += e.power * math.sin(k * delta) / (k * lam)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k * delta may pass the linearization guard
            config = SimConfig(
                population=pop, delta_theta=delta, trials=100, seed=seed, mode=mode,
                theta0=theta0, noise_scale=0.0,
            )
        result, estimates = run_displacement_trials(config, with_estimates=True)
        assert result.fisher_information == info
        np.testing.assert_allclose(estimates, shift / info, rtol=0, atol=1e-13)


class TestMemoryBound:
    """No n x n matrix on the hot paths: one would be 128 MB at n = 4096."""

    N = 4096

    @pytest.fixture
    def big_decomp(self):
        return decompose(exponential_kernel(self.N))

    def test_sample_peak_under_16_mb(self, big_decomp):
        noise = NoiseModel(big_decomp)
        assert _peak_traced_mb(lambda: noise.sample(make_rng(0), 64)) < 16.0

    def test_apply_inverse_peak_under_16_mb(self, big_decomp):
        stack = np.random.default_rng(0).normal(size=(64, self.N))
        assert _peak_traced_mb(lambda: apply_inverse(big_decomp, stack)) < 16.0

    @pytest.mark.parametrize("trials", [2000, 20_000])
    def test_monte_carlo_peak_flat_in_trials(self, big_decomp, trials):
        # one (trials, n) array would be 64 MB at 2000 trials and 640 MB at 20 000
        config = SimConfig(
            population=optimal_tuning_1d(big_decomp, 1.0), delta_theta=1e-5, trials=trials, seed=3
        )
        assert _peak_traced_mb(lambda: run_displacement_trials(config)) < 16.0


class TestLinearizationLead:
    def test_optimal_population_at_n1024_attains_bound_despite_warning(self):
        # the exponential kernel puts k* = n/2 - 1 = 511, so k* * delta_theta = 0.511 > 0.1
        decomp = decompose(exponential_kernel(1024))
        pop = optimal_tuning_1d(decomp, 1.0)
        assert pop.allocation.max_frequency() == 511
        with pytest.warns(UserWarning, match="linearization"):
            config = SimConfig(population=pop, trials=2000, seed=5)
        result = run_displacement_trials(config)
        assert abs(result.empirical_variance - result.crb_reference) < 5.0 * result.variance_stderr


class TestLocalEstimator:
    def test_noiseless_recovers_displacement(self, n4_decomp):
        pop = single_mode_pop(n4_decomp)
        delta = 1e-4
        config = SimConfig(population=pop, delta_theta=delta, trials=100, noise_scale=0.0)
        (estimate,) = set(_estimates(config).tolist())
        # the linear readout of an exact response change is sin(k d)/k
        assert estimate == pytest.approx(math.sin(delta) / 1.0, rel=1e-12)
        assert estimate == pytest.approx(delta, rel=2.5e-9)

    def test_known_reference_attains_bound(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        config = SimConfig(population=pop, trials=100_000, seed=101)
        result = run_displacement_trials(config)
        assert result.crb_reference == pytest.approx(0.75)
        assert result.empirical_variance == pytest.approx(0.75, rel=0.05)

    def test_two_snapshot_doubles_variance(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        config = SimConfig(population=pop, trials=100_000, seed=102, mode="two_snapshot")
        result = run_displacement_trials(config)
        assert result.crb_reference == pytest.approx(1.5)
        assert result.empirical_variance == pytest.approx(1.5, rel=0.05)


class TestPhaseEstimator:
    def test_multi_mode_rejected(self, n6_decomp):
        alloc = PowerAllocation(
            entries=(AllocationEntry(1, 0.64), AllocationEntry(2, 0.36))
        )
        pop = TuningPopulation1D(n6_decomp, alloc)
        with pytest.raises(MultiModePopulationError):
            run_displacement_trials(SimConfig(population=pop, trials=100, estimator="phase"))

    def test_small_noise_variance_matches_local_bound(self):
        # scale the kernel down so the phase linearization error is negligible
        kernel = CorrelationKernel(4, (1e-4, 0.5e-4, 0.25e-4))
        decomp = decompose(kernel)
        pop = optimal_tuning_1d(decomp, 1.0)
        config = SimConfig(
            population=pop, trials=100_000, seed=55, mode="two_snapshot", estimator="phase"
        )
        result = run_displacement_trials(config)
        assert result.empirical_variance == pytest.approx(result.crb_reference, rel=0.10)


@st.composite
def _phase_projection_cases(draw):
    n = draw(st.integers(4, 256))
    k = draw(st.integers(1, (n - 1) // 2))
    power = draw(st.one_of(st.just(1.0), st.floats(1e-2, 1e9)))
    phase, theta = (draw(st.floats(-10.0, 10.0)) for _ in range(2))
    return n, k, power, phase, theta, draw(st.floats(-0.01, 0.01))


class TestPhaseProjections:
    """The phase readout's projections are the order-0 coefficients of ``tuning``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_phase_projection_cases())
    def test_match_the_inline_formula(self, case):
        n, k, power, phase, theta, delta = case
        pop = TuningPopulation1D(decompose(white_kernel(n)), PowerAllocation.single(k, power, phase))
        amplitude = pop.allocation.entries[0].amplitude
        thetas = np.array([theta + delta, theta])
        got = _coefficients(pop, thetas, 0)
        # reference: the projections in closed form, (T/k)(sin psi, -cos psi) with psi = k theta + c
        psi = k * thetas + phase
        expected = (amplitude / k) * np.column_stack([np.sin(psi), -np.cos(psi)])
        if power == 1.0 and all(0.0 <= t < TWO_PI for t in thetas):
            np.testing.assert_array_equal(got, expected)
        else:
            # _coefficients reduces theta mod 2 pi first and scales by T k^-1
            eps = 2.0**-52
            bound = 8 * eps * (k * (abs(theta) + abs(delta) + TWO_PI) + abs(phase)) * amplitude / k
            assert np.max(np.abs(got - expected)) <= bound


class TestRunDisplacementTrials:
    @pytest.mark.parametrize("mode", ["known_reference", "two_snapshot"])
    def test_efficiency_close_to_one(self, n4_decomp, mode):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        config = SimConfig(population=pop, trials=100_000, seed=7, mode=mode)
        result = run_displacement_trials(config)
        slack = 3.0 * math.sqrt(2.0 / config.trials)
        assert 0.95 <= result.efficiency <= 1.0 + slack

    def test_suboptimal_allocation_is_worse_by_eigenvalue_ratio(self, n6_decomp):
        lam = {k: n6_decomp.mode(k).eigenvalue for k in n6_decomp.paired_frequencies}
        k_max = max(lam, key=lam.get)
        best = run_displacement_trials(
            SimConfig(population=optimal_tuning_1d(n6_decomp, 1.0), trials=100_000, seed=9)
        )
        worst = run_displacement_trials(
            SimConfig(
                population=TuningPopulation1D(n6_decomp, PowerAllocation.single(k_max, 1.0)),
                trials=100_000,
                seed=9,
            )
        )
        assert worst.empirical_variance > best.empirical_variance
        ratio = worst.empirical_variance / best.empirical_variance
        assert ratio == pytest.approx(max(lam.values()) / min(lam.values()), rel=0.10)

    def test_smoke_at_minimum_trials(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        result = run_displacement_trials(SimConfig(population=pop, trials=100, seed=4))
        assert result.variance_stderr > 0.0
        assert result.trials == 100

    def test_too_few_trials_rejected(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        with pytest.raises(ValueError):
            SimConfig(population=pop, trials=99)

    def test_negative_seed_rejected(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            SimConfig(population=pop, trials=100, seed=-3)
        with pytest.raises(ValueError, match="seed"):
            run_path_integration(pop, steps=2, trials=100, seed=-1)

    def test_large_displacement_warns(self, n6_decomp):
        pop = single_mode_pop(n6_decomp, frequency=2)
        with pytest.warns(UserWarning):
            SimConfig(population=pop, trials=100, delta_theta=0.06)

    def test_linearization_warning_names_each_caller(self):
        # n = 64, k* = 31: 31 * 0.01 passes the guard. The default filter shows a warning
        # once per location, so two calls on two lines must warn at two lines of this file
        pop = optimal_tuning_1d(decompose(exponential_kernel(64, 1.0, 0.5)), 1.0)
        assert pop.allocation.max_frequency() == 31
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("default")
            SimConfig(pop, delta_theta=0.01)
            SimConfig(pop, delta_theta=0.01)
        assert [w.filename for w in seen] == [__file__, __file__]
        assert seen[0].lineno + 1 == seen[1].lineno

    def test_phase_run_past_the_linearization_guard_does_not_warn(self):
        # k* = 31, k* delta = 0.31: the phase readout has no linearization to degrade
        pop = optimal_tuning_1d(decompose(exponential_kernel(64, 1.0, 0.5)), 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SimConfig(pop, delta_theta=0.01, trials=2000, seed=3, estimator="phase")
            run_path_integration(pop, steps=2, step_delta=0.01, trials=200, estimator="phase")
        result = run_displacement_trials(config)
        assert abs(result.empirical_variance - result.crb_reference) < 5.0 * result.variance_stderr

    def test_phase_run_warns_where_the_wrapped_estimate_aliases(self):
        # k* delta = 3.41 >= pi: the step lies outside the wrapped interval (-pi/31, pi/31]
        pop = optimal_tuning_1d(decompose(exponential_kernel(64, 1.0, 0.5)), 1e6)
        aliases = r"wraps into \(-pi/31, pi/31\] and aliases"
        with pytest.warns(UserWarning, match=aliases):
            SimConfig(pop, delta_theta=0.11, trials=100, estimator="phase")
        with pytest.warns(UserWarning, match=aliases):
            run_path_integration(pop, steps=2, step_delta=0.11, trials=100, estimator="phase")

    def test_phase_run_warns_where_its_noise_reaches_the_wrap(self):
        # k* delta = 3.1 < pi, but the phase difference's sd s = 0.0179 rad puts pi 2.3 s away
        pop = optimal_tuning_1d(decompose(exponential_kernel(64, 1.0, 0.5)), 1e6)
        with pytest.warns(UserWarning, match=r"by 3\.1 rad, which with 6 phase-difference sds of 0\.0179 rad"):
            config = SimConfig(pop, delta_theta=0.1, trials=2000, seed=3, estimator="phase")
        assert run_displacement_trials(config).efficiency < 0.01

    @pytest.mark.parametrize("mode", ["known_reference", "two_snapshot"])
    def test_phase_difference_sd_matches_the_estimates(self, mode):
        pop = optimal_tuning_1d(decompose(exponential_kernel(64, 1.0, 0.5)), 1e6)
        config = SimConfig(pop, delta_theta=0.01, trials=20_000, seed=4, mode=mode, estimator="phase")
        _, estimates = run_displacement_trials(config, with_estimates=True)
        assert 31 * np.std(estimates) == pytest.approx(config._phase_difference_sd(), rel=0.03)

    def test_seed_determinism(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        first = run_displacement_trials(SimConfig(population=pop, trials=500, seed=77))
        second = run_displacement_trials(SimConfig(population=pop, trials=500, seed=77))
        assert first == second
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_crb_respected_and_bias_small(self, n4_decomp, n6_decomp):
        # the phase case runs at power 100 (s = 0.12 rad), where the bound applies to its wrapped estimate
        for decomp, mode, estimator, seed, power in [
            (n4_decomp, "known_reference", "local_linear", 1, 1.0),
            (n4_decomp, "two_snapshot", "local_linear", 2, 1.0),
            (n4_decomp, "two_snapshot", "phase", 3, 100.0),
            (n6_decomp, "known_reference", "local_linear", 4, 1.0),
        ]:
            pop = optimal_tuning_1d(decomp, power)
            config = SimConfig(
                population=pop, trials=20_000, seed=seed, mode=mode, estimator=estimator
            )
            result = run_displacement_trials(config)
            floor = result.crb_reference * (1.0 - 3.0 * math.sqrt(2.0 / config.trials))
            assert result.empirical_variance >= floor
            bias_tol = 3.0 * math.sqrt(result.empirical_variance / config.trials)
            assert abs(result.bias) < bias_tol + 1e-2 * config.delta_theta


class TestOverflowingNoise:
    """A noise scale near the largest double overflows the draws: both runners return the
    non-finite statistics, which the CLI reports, without a NumPy warning."""

    @pytest.mark.parametrize("scale", [1e154, 1.4e154, 1e200])
    def test_displacement_run(self, n4_decomp, scale):
        config = SimConfig(population=optimal_tuning_1d(n4_decomp, 1.0), trials=100, noise_scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_displacement_trials(config)
        assert result.empirical_variance == math.inf and result.variance_stderr == math.inf
        assert result.crb_reference == scale * scale / config.information  # inf once the square overflows

    def test_path_integration(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_path_integration(pop, steps=3, trials=100, noise_scale=1e200)
        assert report.variance_by_step == (math.inf,) * 3
        assert math.isnan(report.linear_growth_ratio)


class TestPathIntegration:
    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    @pytest.mark.parametrize("mode", ["known_reference", "two_snapshot"])
    def test_single_step_equals_displacement_run(self, n4_decomp, mode, estimator):
        # a phase run at power 100 has s <= 0.086 rad, well inside the wrap
        pop = optimal_tuning_1d(n4_decomp, 100.0 if estimator == "phase" else 1.0)
        run = {"trials": 5000, "seed": 21, "mode": mode, "estimator": estimator, "theta0": 0.3, "noise_scale": 0.7}
        direct, estimates = run_displacement_trials(SimConfig(population=pop, **run), with_estimates=True)
        path = run_path_integration(pop, steps=1, **run)
        # the path reports var(estimate - delta), the displacement run var(estimate)
        assert path.single_step_variance == np.var(estimates - direct.delta_theta, ddof=1)
        assert path.final_error_variance == path.single_step_variance
        assert path.single_step_variance == pytest.approx(direct.empirical_variance, rel=1e-12)

    def test_variance_grows_linearly(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        report = run_path_integration(pop, steps=100, trials=10_000, seed=22)
        assert 0.9 <= report.linear_growth_ratio <= 1.1
        assert len(report.variance_by_step) == 100

    def test_zero_noise_zero_drift(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        steps = 50
        report = run_path_integration(
            pop, steps=steps, trials=200, seed=1, noise_scale=0.0, mode="known_reference"
        )
        assert abs(report.mean_final_error) <= 1e-9 * steps
        assert report.final_error_variance <= 1e-20

    @pytest.mark.parametrize("step_delta", [0.04, 0.06], ids=["k-delta-0.08", "k-delta-0.12"])
    def test_warns_exactly_when_sim_config_does(self, n6_decomp, step_delta):
        pop = single_mode_pop(n6_decomp, frequency=2)
        caught = []
        for run in (
            lambda: SimConfig(population=pop, delta_theta=step_delta, trials=100),
            lambda: run_path_integration(pop, steps=2, step_delta=step_delta, trials=100),
        ):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                run()
            caught.append([str(w.message) for w in seen])
        assert caught[0] == caught[1]
        assert len(caught[0]) == (2 * step_delta > 0.1)

    def test_rejects_zero_steps(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        with pytest.raises(ValueError):
            run_path_integration(pop, steps=0, trials=200, seed=0)

    @pytest.mark.parametrize(
        "override",
        [
            {"estimator": "Phase"},
            {"mode": "two-snapshot"},
            {"trials": 1},
            {"trials": 99},
            {"noise_scale": -1.0},
            {"noise_scale": float("nan")},
            {"noise_scale": float("inf")},
        ],
        ids=[
            "estimator-Phase",
            "mode-two-snapshot",
            "trials-1",
            "trials-99",
            "noise_scale-minus1",
            "noise_scale-nan",
            "noise_scale-inf",
        ],
    )
    def test_rejects_what_sim_config_rejects(self, n4_decomp, override):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        settings = {"trials": 200, "seed": 0, **override}
        with pytest.raises(ValueError):
            SimConfig(population=pop, **settings)
        with pytest.raises(ValueError):
            run_path_integration(pop, steps=2, **settings)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("position", ["delta", "theta0"])
    def test_rejects_non_finite_positions(self, n4_decomp, position, value):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        config = {"delta_theta": value} if position == "delta" else {"theta0": value}
        path = {"step_delta": value} if position == "delta" else {"theta0": value}
        with pytest.raises(ValueError, match="must be finite"):
            SimConfig(population=pop, trials=200, seed=0, **config)
        with pytest.raises(ValueError, match="must be finite"):
            run_path_integration(pop, steps=2, trials=200, seed=0, **path)
