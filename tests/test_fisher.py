"""Fisher information: quadratic and spectral forms, derivative, torus terms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringfisher import fisher, spectral, tuning
from ringfisher.errors import NotPositiveSemidefiniteError
from ringfisher.fisher import (
    crb,
    fisher_1d,
    fisher_1d_spectral,
    fisher_2d,
    fisher_derivative,
    fisher_max_bound,
    fisher_report_1d,
)
from ringfisher.spectral import TWO_PI, apply_inverse, decompose, kernel_from_spectrum
from ringfisher.tuning import (
    AllocationEntry,
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    _basis,
    _coefficients,
    _gram_weights,
    mean_derivative,
    optimal_tuning_1d,
    optimal_tuning_2d,
)

from conftest import (
    INVALID_SPECTRA,
    ZERO_COMMON_MODE,
    dense_ring_matrix,
    mean_response,
    random_psd_kernel,
    white_kernel,
)
from test_tuning import random_population, single_mode_pop

IDENTITY_REL = 1e-9
FINITE_DIFFERENCE_REL = 1e-6
CROSS_TERM_ABS = 1e-9


def dense_fisher_1d_oracle(pop, theta):
    dense = dense_ring_matrix(pop.decomp)
    d = mean_derivative(pop, theta)
    return d @ np.linalg.solve(dense, d)


def dense_fisher_2d_oracle(pop2d, theta):
    """Quadratic forms on the full torus: n^2-dimensional derivative vectors."""
    theta_x, theta_y = theta
    dense = dense_ring_matrix(pop2d.x.decomp)
    torus = np.kron(dense, dense)
    gx = mean_derivative(pop2d.x, theta_x)
    fx = mean_response(pop2d.x, theta_x)
    gy = mean_derivative(pop2d.y, theta_y)
    fy = mean_response(pop2d.y, theta_y)
    dx = np.kron(gx, fy)
    dy = np.kron(fx, gy)
    solve = np.linalg.solve
    return (
        dx @ solve(torus, dx),
        dy @ solve(torus, dy),
        dx @ solve(torus, dy),
    )


class TestFisher1D:
    def test_n4_single_mode(self, n4_decomp):
        pop = single_mode_pop(n4_decomp)
        for theta in (0.0, 0.4, 2.9):
            value = fisher_1d(pop, theta)
            assert value == pytest.approx(4.0 / 3.0, rel=1e-12)
            assert value == pytest.approx(dense_fisher_1d_oracle(pop, theta), rel=1e-12)

    def test_white_noise(self, rng):
        sigma_sq = 2.5
        decomp = decompose(white_kernel(8, sigma_sq=sigma_sq))
        pop = random_population(rng, decomp, power=1.0)
        assert fisher_1d(pop, 0.7) == pytest.approx(1.0 / sigma_sq, rel=1e-12)

    def test_two_mode_contributions_sum(self):
        decomp = decompose(kernel_from_spectrum(6, [1.0, 0.75, 0.5, 0.9]))
        alloc = PowerAllocation(
            entries=(AllocationEntry(1, 0.5), AllocationEntry(2, 0.5))
        )
        pop = TuningPopulation1D(decomp, alloc)
        expected = 0.5 / 0.75 + 0.5 / 0.5  # direct summation oracle
        assert fisher_1d_spectral(alloc, decomp) == pytest.approx(expected, rel=1e-15)
        assert fisher_1d(pop, 1.3) == pytest.approx(expected, rel=1e-12)


class TestFisherSpectral:
    def test_concentration_reaches_bound(self, n6_decomp):
        power = 3.0
        pop = optimal_tuning_1d(n6_decomp, power)
        lam_min = min(n6_decomp.mode(k).eigenvalue for k in n6_decomp.paired_frequencies)
        assert fisher_1d_spectral(pop.allocation, n6_decomp) == pytest.approx(power / lam_min)
        assert fisher_max_bound(n6_decomp, power) == pytest.approx(power / lam_min)

    @pytest.mark.parametrize("power", [3.0, 9.096524])
    def test_concentration_equals_its_reported_bound(self, n6_decomp, power):
        # the spectral sum divides the entry's power and the bound the allocation's, both the power given
        report = fisher_report_1d(optimal_tuning_1d(n6_decomp, power), theta_samples=4)
        assert report.fi_spectral == report.fi_max_bound

    def test_uniform_split_over_equal_eigenvalues(self):
        decomp = decompose(white_kernel(8, sigma_sq=0.5))
        alloc = PowerAllocation.from_powers({1: 1.0 / 3, 2: 1.0 / 3, 3: 1.0 / 3})
        assert fisher_1d_spectral(alloc, decomp) == pytest.approx(1.0 / 0.5, rel=1e-12)

    def test_negative_eigenvalue_rejected(self):
        decomp = decompose(kernel_from_spectrum(8, (1.0, 0.5, -0.3, 1.0, 1.0)))
        with pytest.raises(NotPositiveSemidefiniteError, match="at frequency 2"):
            fisher_1d_spectral(PowerAllocation.single(2, 1.0), decomp)

    def test_linear_in_power(self, n6_decomp):
        one = optimal_tuning_1d(n6_decomp, 1.0)
        two = optimal_tuning_1d(n6_decomp, 2.0)
        assert fisher_1d_spectral(two.allocation, n6_decomp) == pytest.approx(
            2.0 * fisher_1d_spectral(one.allocation, n6_decomp)
        )


class TestFisherDerivative:
    def test_vanishes_for_optimal_population(self, n4_decomp, rng):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        for theta in rng.uniform(0.0, TWO_PI, size=32):
            assert abs(fisher_derivative(pop, theta)) < 1e-10

    def test_matches_finite_difference(self, n6_decomp, rng):
        pop = random_population(rng, n6_decomp)
        h = 1e-4
        for theta in rng.uniform(0.0, TWO_PI, size=8):
            closed = fisher_derivative(pop, theta)
            fd = (
                fisher_1d(pop, theta + h) - fisher_1d(pop, theta - h)
            ) / (2.0 * h)
            scale = max(1.0, fisher_1d(pop, theta))
            assert abs(closed - fd) < FINITE_DIFFERENCE_REL * scale

    def test_zero_allocation(self, n6_decomp):
        pop = TuningPopulation1D(n6_decomp, PowerAllocation(entries=()))
        assert fisher_derivative(pop, 0.3) == 0.0


class TestFisher2D:
    def test_n4_optimal_against_dense_oracle(self, n4_decomp):
        pop2d = optimal_tuning_2d(n4_decomp, 1.0)
        report = fisher_2d(pop2d)
        assert report.i_x == pytest.approx(16.0 / 9.0, rel=1e-12)
        assert report.i_y == pytest.approx(16.0 / 9.0, rel=1e-12)
        assert abs(report.i_xy) < 1e-12
        ix, iy, ixy = dense_fisher_2d_oracle(pop2d, (0.0, 0.0))
        assert report.i_x == pytest.approx(ix, rel=1e-10)
        assert report.i_y == pytest.approx(iy, rel=1e-10)
        assert abs(ixy) < 1e-10
        assert report.minimum_variance == pytest.approx((0.75 * 1.0 / 1.0) ** 2, rel=1e-12)

    def test_white_noise_unit(self):
        decomp = decompose(white_kernel(4))
        report = fisher_2d(optimal_tuning_2d(decomp, 1.0))
        assert report.i_x == pytest.approx(1.0, rel=1e-12)
        assert report.product_form == pytest.approx(1.0, rel=1e-12)

    def test_random_separable_populations_match_dense(self, rng):
        for _ in range(20):
            decomp = decompose(random_psd_kernel(rng, 6, lam_lo=0.2, lam_hi=2.0))
            pop2d = TuningPopulation2D(
                random_population(rng, decomp), phase_shift=float(rng.uniform(0.0, TWO_PI))
            )
            theta = tuple(rng.uniform(0.0, TWO_PI, size=2))
            report = fisher_2d(pop2d, theta=theta)
            ix, iy, ixy = dense_fisher_2d_oracle(pop2d, theta)
            assert report.i_x == pytest.approx(ix, rel=1e-8)
            assert report.i_y == pytest.approx(iy, rel=1e-8)
            assert report.i_xy == pytest.approx(ixy, abs=1e-8 * max(1.0, ix))
            assert report.product_form == pytest.approx(ix, rel=1e-8)

    def test_axes_agree_for_shared_spectrum(self, rng):
        decomp = decompose(random_psd_kernel(rng, 10, lam_lo=0.3))
        pop2d = TuningPopulation2D(random_population(rng, decomp), phase_shift=1.1)
        report = fisher_2d(pop2d, theta=(0.4, 5.1))
        assert report.i_x == pytest.approx(report.i_y, rel=IDENTITY_REL)

    def test_single_mode_cross_term_vanishes_any_phase(self, n6_decomp):
        pop = single_mode_pop(n6_decomp, frequency=2, phase=1.234)
        pop2d = TuningPopulation2D(pop, phase_shift=0.77)
        report = fisher_2d(pop2d, theta=(2.2, 0.9))
        assert abs(report.i_xy) < CROSS_TERM_ABS


class TestGram:
    """The Gram of the ``_basis`` rows is diag(1/lambda_k): every Fisher form weights by it."""

    def test_matches_dense_solve(self, rng):
        for n in (4, 5, 9, 16):
            decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.2))
            pop = random_population(rng, decomp)
            # the unit cos and sin rows from their definition, not from the package's eigenvectors
            angles = TWO_PI * np.outer([e.frequency for e in pop.allocation.entries], np.arange(n)) / n
            rows = math.sqrt(2.0 / n) * np.stack((np.cos(angles), np.sin(angles)), axis=1).reshape(-1, n)
            dense = rows @ np.linalg.solve(dense_ring_matrix(decomp), rows.T)
            np.testing.assert_allclose(
                np.diag(_gram_weights(pop)), dense, rtol=0, atol=1e-12 * np.abs(dense).max()
            )

    def test_empty_allocation_gives_empty_gram(self, n6_decomp):
        pop = TuningPopulation1D(n6_decomp, PowerAllocation(entries=()))
        assert _gram_weights(pop).shape == (0,)
        assert _coefficients(pop, np.zeros(3), 1).shape == (3, 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 40))
    def test_report_matches_per_theta_quadratic_form(self, n, seed, samples):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, decompose(random_psd_kernel(rng, n, lam_lo=0.2)))
        report = fisher_report_1d(pop, theta_samples=samples)
        expected = [fisher_1d(pop, t) for t in report.theta_samples]
        np.testing.assert_allclose(report.fi_theta, expected, rtol=1e-12, atol=0)

    def test_no_form_applies_the_inverse(self, monkeypatch, rng):
        decomp = decompose(random_psd_kernel(rng, 32, lam_lo=0.2))
        entries = tuple(AllocationEntry(k, 0.5 * 0.5, 0.3 * k) for k in (1, 4, 7))
        pop = TuningPopulation1D(decomp, PowerAllocation(entries=entries))
        calls = []

        def record(d, v):
            calls.append(v.shape)
            return apply_inverse(d, v)

        # every module that could hold its own reference to the inverse
        for module in (spectral, tuning, fisher):
            monkeypatch.setattr(module, "apply_inverse", record, raising=False)
        fisher_report_1d(pop, theta_samples=64)
        fisher_2d(TuningPopulation2D(pop, 0.4), theta=(0.2, 1.3))
        fisher_derivative(pop, 0.8)
        assert calls == []

    def test_second_order_coefficients_match_finite_difference(self, n6_decomp, rng):
        pop = random_population(rng, n6_decomp)
        h = 1e-5
        for theta in rng.uniform(0.0, TWO_PI, size=4):
            closed = _coefficients(pop, theta, 2) @ _basis(pop)
            fd = (mean_derivative(pop, theta + h) - mean_derivative(pop, theta - h)) / (2.0 * h)
            np.testing.assert_allclose(closed, fd, rtol=0, atol=FINITE_DIFFERENCE_REL * np.abs(closed).max())


class TestSpectrumGuard:
    """Every Fisher form judges the spectrum as the optima do: a negative eigenvalue anywhere
    and a paired one too small to divide by are refused, a zero singleton is read."""

    FORMS = {
        "fisher_report_1d": lambda pop: fisher_report_1d(pop, theta_samples=8),
        "fisher_2d": lambda pop: fisher_2d(TuningPopulation2D(pop, 0.4)),
        "fisher_derivative": lambda pop: fisher_derivative(pop, 0.3),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("spectrum", sorted(INVALID_SPECTRA))
    def test_invalid_spectrum_rejected(self, form, spectrum):
        lams, error = INVALID_SPECTRA[spectrum]
        # frequency 3 is active, so each form refuses an eigenvalue it would not divide by
        pop = TuningPopulation1D(decompose(kernel_from_spectrum(8, lams)), PowerAllocation.single(3, 1.0))
        with pytest.raises(error, match="at frequency"):
            self.FORMS[form](pop)

    def test_zero_common_mode_read(self):
        decomp = decompose(kernel_from_spectrum(8, ZERO_COMMON_MODE))
        report = fisher_report_1d(optimal_tuning_1d(decomp, 2.0), theta_samples=8)
        assert report.fi_spectral == report.fi_max_bound == 4.0
        np.testing.assert_allclose(report.fi_theta, 4.0, rtol=4 * np.finfo(float).eps, atol=0)
        torus = fisher_2d(optimal_tuning_2d(decomp, 2.0), theta=(0.2, 1.3))
        assert torus.product_form == 16.0
        assert torus.i_x == pytest.approx(16.0, rel=1e-15)
        assert torus.i_xy == pytest.approx(0.0, abs=1e-15)


class TestDiagonalGramExactness:
    """Weighting by 1/lambda_k keeps every form at the rounding of its closed form, at any n."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(4, 4096), seed=st.integers(0, 2**32 - 1), power=st.floats(1e-3, 1e3))
    def test_optimum_report_within_4_ulp_of_spectral(self, n, seed, power):
        rng = np.random.default_rng(seed)
        pop = optimal_tuning_1d(decompose(random_psd_kernel(rng, n)), power)
        report = fisher_report_1d(pop)
        ulps = np.abs(np.array(report.fi_theta) - report.fi_spectral) / np.spacing(report.fi_spectral)
        assert ulps.max() <= 4

    def test_derivative_vanishes_at_n_2_20(self, exp1m_decomp):
        pop = optimal_tuning_1d(exp1m_decomp, 1.0)
        info = fisher_1d_spectral(pop.allocation, exp1m_decomp)
        for theta in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            assert abs(fisher_derivative(pop, theta)) <= 1e-9 * info

    def test_torus_information_is_the_product_form_at_n_2_20(self, exp1m_decomp):
        report = fisher_2d(TuningPopulation2D(optimal_tuning_1d(exp1m_decomp, 1.0)))
        assert report.i_x == report.product_form
        assert report.i_xy == 0.0


class TestCrb:
    def test_reciprocal(self):
        assert crb(4.0 / 3.0) == pytest.approx(0.75, rel=1e-15)
        assert crb(1.0) == 1.0

    def test_bound_of_concentration(self, n6_decomp):
        power = 2.0
        lam_min = min(n6_decomp.mode(k).eigenvalue for k in n6_decomp.paired_frequencies)
        assert crb(power / lam_min) == pytest.approx(lam_min / power, rel=1e-12)

    def test_nonpositive_information_has_an_infinite_bound(self):
        assert crb(0.0) == crb(-1.0) == math.inf


class TestFisherProperties:
    def test_theta_constancy_for_any_allocation(self, rng):
        decomp = decompose(random_psd_kernel(rng, 12, lam_lo=0.2))
        pop = random_population(rng, decomp)
        values = [fisher_1d(pop, t) for t in np.linspace(0.0, TWO_PI, 256, endpoint=False)]
        spread = (max(values) - min(values)) / min(values)
        assert spread < IDENTITY_REL

    def test_bound_over_random_allocations(self, rng):
        decomp = decompose(random_psd_kernel(rng, 16, lam_lo=0.1))
        freqs = decomp.paired_frequencies
        lam_min = min(decomp.mode(k).eigenvalue for k in freqs)
        shares = rng.dirichlet(np.ones(len(freqs)), size=1000)
        for row in shares:
            alloc = PowerAllocation.from_powers(dict(zip(freqs, row)))
            assert fisher_1d_spectral(alloc, decomp) <= (1.0 / lam_min) * (1.0 + 1e-12)

    def test_spectral_matches_dense_inverse_up_to_n32(self, rng):
        for n in (4, 9, 16, 32):
            decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.2))
            pop = random_population(rng, decomp)
            theta = float(rng.uniform(0.0, TWO_PI))
            assert fisher_1d(pop, theta) == pytest.approx(
                dense_fisher_1d_oracle(pop, theta), rel=IDENTITY_REL
            )

    def test_phase_independence(self, n6_decomp, rng):
        amplitudes = {1: 0.7, 2: math.sqrt(1.0 - 0.49)}
        baseline = None
        for _ in range(5):
            entries = tuple(
                AllocationEntry(k, a * a, float(rng.uniform(0.0, TWO_PI)))
                for k, a in amplitudes.items()
            )
            pop = TuningPopulation1D(n6_decomp, PowerAllocation(entries=entries))
            value = fisher_1d(pop, theta=0.42)
            baseline = value if baseline is None else baseline
            assert value == pytest.approx(baseline, rel=1e-12)

    def test_report_invariants(self, n6_decomp, rng):
        pop = random_population(rng, n6_decomp)
        report = fisher_report_1d(pop, theta_samples=64)
        bound = report.fi_max_bound * (1.0 + 1e-9)
        assert all(v <= bound for v in report.fi_theta)
        assert max(abs(v - report.fi_spectral) for v in report.fi_theta) < 1e-9 * report.fi_spectral
        assert report.crb == pytest.approx(1.0 / report.fi_spectral)
        payload = report.to_dict()
        assert set(payload) == {"fi_theta", "theta_samples", "fi_spectral", "fi_max_bound", "crb"}
