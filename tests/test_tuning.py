"""Tuning populations: responses, derivatives, power, optima, fields, shifts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringfisher.errors import ConditionViolatedError, ParameterRangeError
from ringfisher.spectral import TWO_PI, decompose, kernel_from_spectrum
from ringfisher.tuning import (
    AllocationEntry,
    _lattice_waveform,
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    mean_derivative,
    optimal_tuning_1d,
    optimal_tuning_2d,
    sample_firing_field,
)

from conftest import count_toroidal_maxima, dense_ring_matrix, mean_response, random_psd_kernel, white_kernel


def single_mode_pop(decomp, frequency=1, power=1.0, phase=0.0):
    return TuningPopulation1D(decomp, PowerAllocation.single(frequency, power, phase))


def random_population(rng, decomp, power=1.0):
    paired = list(decomp.paired_frequencies)
    count = int(rng.integers(1, len(paired) + 1))
    chosen = sorted(rng.choice(paired, size=count, replace=False).tolist())
    shares = rng.dirichlet(np.ones(count)) * power
    entries = tuple(
        AllocationEntry(int(k), float(s), float(rng.uniform(0.0, TWO_PI)))
        for k, s in zip(chosen, shares)
    )
    return TuningPopulation1D(decomp, PowerAllocation(entries=entries))


class TestAllocation:
    def test_power_is_sum_of_squares(self):
        alloc = PowerAllocation(
            entries=(AllocationEntry(1, 0.6 * 0.6), AllocationEntry(2, 0.8 * 0.8))
        )
        assert alloc.power == pytest.approx(1.0, abs=1e-12)

    def test_power_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            PowerAllocation(entries=(AllocationEntry(1, 1.0),), power=1.0)

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(entries=(AllocationEntry(1, 0.5), AllocationEntry(1, 0.5)))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(entries=(AllocationEntry(1, -0.5),))

    @pytest.mark.parametrize(
        "powers,largest",
        [((1e308, 1.5e308), "frequency 2, power 1.5e+308")],
        ids=["sum-overflows"],
    )
    def test_overflowing_power_rejected_naming_the_largest_entry(self, powers, largest):
        entries = tuple(AllocationEntry(k, w) for k, w in enumerate(powers, start=1))
        with pytest.raises(ValueError, match=f"power .* is not finite; largest entry: {re.escape(largest)}$"):
            PowerAllocation(entries=entries)

    @pytest.mark.parametrize("power", [-1e-300, math.inf, math.nan])
    def test_entry_rejects_a_power_not_finite_and_nonnegative(self, power):
        with pytest.raises(ValueError, match="power must be finite and >= 0, got .* at frequency 3$"):
            AllocationEntry(3, power)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.7e308))
    def test_entry_stores_its_power_and_derives_the_amplitude(self, power):
        entry = AllocationEntry(2, power)
        assert entry.power == power and entry.amplitude == math.sqrt(power)
        assert PowerAllocation((entry,)).power == power

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            PowerAllocation(entries=(AllocationEntry(1, 0.5, phase),))

    def test_frequency_zero_rejected(self):
        with pytest.raises(ValueError, match="frequencies must be >= 1"):
            PowerAllocation(entries=(AllocationEntry(0, 0.5),))

    def test_single_needs_positive_power(self):
        with pytest.raises(ValueError, match="power must be positive"):
            PowerAllocation.single(1, 0.0)

    def test_unpaired_frequency_rejected_on_population(self, n4_decomp):
        with pytest.raises(ValueError):
            TuningPopulation1D(n4_decomp, PowerAllocation.single(2, 1.0))


class TestMeanResponse:
    def test_at_zero_is_negative_sine_vector(self, n4_decomp):
        pop = single_mode_pop(n4_decomp)
        np.testing.assert_allclose(
            mean_response(pop, 0.0), -n4_decomp.sin_vector(1), atol=1e-12
        )

    def test_quarter_period_is_cosine_vector(self, n4_decomp):
        pop = single_mode_pop(n4_decomp)
        np.testing.assert_allclose(
            mean_response(pop, math.pi / 2.0), n4_decomp.cos_vector(1), atol=1e-12
        )

    def test_amplitude_scales_inversely_with_frequency(self, n6_decomp):
        pop = single_mode_pop(n6_decomp, frequency=2, power=1.0)
        for theta in (0.0, 0.3, 1.7):
            assert np.linalg.norm(mean_response(pop, theta)) == pytest.approx(0.5, abs=1e-12)

    def test_periodicity_exact_at_representable_angles(self, n6_decomp, rng):
        pop = random_population(rng, n6_decomp)
        # 2*pi and its float multiples reduce exactly
        np.testing.assert_array_equal(mean_response(pop, 2.0 * TWO_PI), mean_response(pop, 0.0))
        theta = 0.7
        np.testing.assert_allclose(
            mean_response(pop, theta + TWO_PI), mean_response(pop, theta), atol=1e-13
        )

    def test_single_mode_shift_is_index_roll(self):
        decomp = decompose(white_kernel(8))
        pop = single_mode_pop(decomp, frequency=2)
        theta = 0.37
        shifted = mean_response(pop, theta + TWO_PI / 8)
        np.testing.assert_allclose(shifted, np.roll(mean_response(pop, theta), 1), atol=1e-12)


class TestMeanDerivative:
    def test_at_zero_aligns_with_cosine_vector(self, n4_decomp):
        pop = single_mode_pop(n4_decomp, power=4.0)
        np.testing.assert_allclose(
            mean_derivative(pop, 0.0), 2.0 * n4_decomp.cos_vector(1), atol=1e-12
        )

    def test_finite_difference_oracle(self, n6_decomp, rng):
        pop = random_population(rng, n6_decomp)
        h = 1e-5
        for theta in rng.uniform(0.0, TWO_PI, size=16):
            closed = mean_derivative(pop, theta)
            fd = (mean_response(pop, theta + h) - mean_response(pop, theta - h)) / (2.0 * h)
            assert np.linalg.norm(closed - fd) / np.linalg.norm(closed) < 1e-7

    def test_two_mode_norm_is_power(self, n6_decomp):
        alloc = PowerAllocation(
            entries=(AllocationEntry(1, 0.5), AllocationEntry(2, 0.5))
        )
        pop = TuningPopulation1D(n6_decomp, alloc)
        for theta in (0.0, 0.9, 4.2):
            d = mean_derivative(pop, theta)
            assert d @ d == pytest.approx(1.0, abs=1e-12)

    def test_derivative_consistency_for_many_allocations(self, rng):
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(6, 24))
            decomp = decompose(random_psd_kernel(rng, n))
            pop = random_population(rng, decomp)
            theta = float(rng.uniform(0.0, TWO_PI))
            closed = mean_derivative(pop, theta)
            fd = (mean_response(pop, theta + h) - mean_response(pop, theta - h)) / (2.0 * h)
            assert np.linalg.norm(closed - fd) / np.linalg.norm(closed) < 1e-6


class TestSignalPower:
    """The squared norm of the derivative profile equals the power budget at any theta."""

    def test_constant_over_theta(self, n6_decomp, rng):
        pop = random_population(rng, n6_decomp, power=1.0)
        for theta in np.linspace(0.0, TWO_PI, 256, endpoint=False):
            d = mean_derivative(pop, theta)
            assert d @ d == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_in_amplitude(self, n6_decomp):
        doubled = TuningPopulation1D(n6_decomp, PowerAllocation((AllocationEntry(1, 2.0 * 2.0),)))
        d = mean_derivative(doubled, 0.3)
        assert d @ d == pytest.approx(4.0, abs=1e-9)

    def test_empty_allocation(self, n6_decomp):
        pop = TuningPopulation1D(n6_decomp, PowerAllocation(entries=()))
        d = mean_derivative(pop, 1.0)
        assert d @ d == 0.0


class TestOptimalTuning1D:
    def test_n4_concentrates_on_only_paired_mode(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        (entry,) = pop.allocation.entries
        assert entry.frequency == 1
        assert entry.amplitude == pytest.approx(1.0)
        assert entry.phase == 0.0

    def test_white_noise_tie_breaks_to_one(self):
        pop = optimal_tuning_1d(decompose(white_kernel(8)), 2.0)
        (entry,) = pop.allocation.entries
        assert entry.frequency == 1
        assert entry.amplitude == pytest.approx(math.sqrt(2.0))

    def test_matches_rayleigh_quotient_oracle(self, rng):
        from ringfisher.spectral import exponential_kernel

        kernel = exponential_kernel(8, rho=0.5)
        decomp = decompose(kernel)
        dense = dense_ring_matrix(kernel)
        # oracle: per-frequency eigenvalue as a Rayleigh quotient of the dense matrix
        quotients = {
            k: decomp.cos_vector(k) @ dense @ decomp.cos_vector(k)
            for k in decomp.paired_frequencies
        }
        expected = min(quotients, key=quotients.get)
        pop = optimal_tuning_1d(decomp, 1.0)
        assert pop.allocation.entries[0].frequency == expected


class TestOptimalTuning2D:
    def test_n4_rectangular_grid(self, n4_decomp):
        pop2d = optimal_tuning_2d(n4_decomp, 1.0)
        assert pop2d.x.allocation.entries[0].frequency == 1
        assert pop2d.y.allocation.entries[0].frequency == 1
        assert pop2d.phase_shift == 0.0

    def test_white_noise_picks_lowest_frequency(self):
        pop2d = optimal_tuning_2d(decompose(white_kernel(8)), 1.0)
        assert pop2d.x.allocation.entries[0].frequency == 1

    def test_aligned_orderings_by_construction(self):
        # eigenvalues 0.2 at k=1 and 0.3 at k=2: weighted scores 0.2 and 1.2 agree
        decomp = decompose(kernel_from_spectrum(6, [1.0, 0.2, 0.3, 0.9]))
        pop2d = optimal_tuning_2d(decomp, 1.0)
        assert pop2d.x.allocation.entries[0].frequency == 1

    def test_disagreeing_orderings_rejected(self):
        # eigenvalue minimizer k=2 but weighted minimizer k=1
        decomp = decompose(kernel_from_spectrum(6, [1.2, 1.0, 0.5, 0.8]))
        with pytest.raises(ConditionViolatedError):
            optimal_tuning_2d(decomp, 1.0)

    def test_phase_offset_relation(self, n6_decomp):
        x = random_population(np.random.default_rng(7), n6_decomp)
        shift = 0.7
        pop2d = TuningPopulation2D(x, shift)
        assert pop2d.y.decomp is x.decomp
        assert pop2d.y.allocation.entries == tuple(
            AllocationEntry(e.frequency, e.power, e.phase + e.frequency * shift)
            for e in x.allocation.entries
        )

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_shift_rejected(self, n6_decomp, shift):
        with pytest.raises(ValueError, match="phase_shift must be finite"):
            TuningPopulation2D(single_mode_pop(n6_decomp), shift)

    @pytest.mark.parametrize("shift", [3e15, -3e15, 1e300])
    def test_phase_shift_past_2_pow_52_at_the_largest_frequency_rejected(self, n6_decomp, shift):
        # at frequency 2 the y phase moves by 6e15 >= 2**52, where doubles lie 1 rad apart
        with pytest.raises(ValueError, match="2\\*\\*52"):
            TuningPopulation2D(single_mode_pop(n6_decomp, frequency=2), shift)

    def test_phase_shift_below_2_pow_52_at_the_largest_frequency_accepted(self, n6_decomp):
        pop2d = TuningPopulation2D(single_mode_pop(n6_decomp, frequency=2), 1e15)
        assert pop2d.y.allocation.entries[0].phase == 2e15


class TestFiringField:
    def test_separability_exact(self, n4_decomp):
        pop2d = optimal_tuning_2d(n4_decomp, 1.0)
        cx, cy = sample_firing_field(pop2d, (0, 0), 64, offset=0.0)
        thetas = TWO_PI * np.arange(64) / 64
        # oracle: axis curves read straight off the mean population responses
        fx = mean_response(pop2d.x, thetas)[:, 0]
        fy = mean_response(pop2d.y, thetas)[:, 0]
        np.testing.assert_allclose(np.outer(cx, cy), np.outer(fx, fy), atol=1e-12)

    @pytest.mark.parametrize("resolution", [8, 30, 61])
    def test_axis_curves_match_population_columns(self, n6_decomp, rng, resolution):
        pop2d = TuningPopulation2D(random_population(rng, n6_decomp), 1.3)
        cx, cy = sample_firing_field(pop2d, (4, 1), resolution, offset=0.5)
        thetas = TWO_PI * np.arange(resolution) / resolution
        np.testing.assert_allclose(cx, mean_response(pop2d.x, thetas)[:, 4] + 0.5, rtol=0, atol=1e-14)
        np.testing.assert_allclose(cy, mean_response(pop2d.y, thetas)[:, 1] + 0.5, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("offset", [None, 0.0, -0.75])
    @pytest.mark.parametrize("n, resolution", [(6, 48), (8, 8), (12, 96)])
    def test_axis_curves_are_shifted_copies_when_n_divides_resolution(self, rng, offset, n, resolution):
        pop2d = TuningPopulation2D(random_population(rng, decompose(random_psd_kernel(rng, n))), 0.9)
        cx0, cy0 = sample_firing_field(pop2d, (0, 0), resolution, offset)
        step = resolution // n
        for i in range(n):
            cx, cy = sample_firing_field(pop2d, (i, i), resolution, offset)
            np.testing.assert_array_equal(cx, np.roll(cx0, i * step))
            np.testing.assert_array_equal(cy, np.roll(cy0, i * step))

    def test_positive_bump_lattice_counts(self):
        lams = np.ones(7)
        lams[2] = 0.01
        decomp = decompose(kernel_from_spectrum(12, lams))
        pop2d = optimal_tuning_2d(decomp, 1.0)
        lifted = np.outer(*sample_firing_field(pop2d, (0, 0), 128))
        assert count_toroidal_maxima(lifted) == 4
        # the signed product interleaves a second lattice of equal-height bumps
        signed = np.outer(*sample_firing_field(pop2d, (0, 0), 128, offset=0.0))
        assert count_toroidal_maxima(signed) == 8

    def test_zero_allocation_field(self, n6_decomp):
        empty = TuningPopulation1D(n6_decomp, PowerAllocation(entries=()))
        pop2d = TuningPopulation2D(empty)
        field = np.outer(*sample_firing_field(pop2d, (0, 0), 32, offset=0.0))
        assert np.all(field == 0.0)
        assert count_toroidal_maxima(field) == 0

    @pytest.mark.parametrize("resolution", [7, 5000])
    def test_resolution_range(self, n4_decomp, resolution):
        pop2d = optimal_tuning_2d(n4_decomp, 1.0)
        with pytest.raises(ParameterRangeError):
            sample_firing_field(pop2d, (0, 0), resolution)


def shifted_curves(pop, samples_per_neuron=32):
    """Tuning curves (thetas x neurons) on a grid of a whole number of samples per spacing."""
    grid = samples_per_neuron * pop.n
    return mean_response(pop, TWO_PI * np.arange(grid) / grid)


def shift_error(curves):
    """Largest gap between each neuron's curve and its predecessor's shifted by one spacing.

    The last neuron wraps around to the first.
    """
    step = curves.shape[0] // curves.shape[1]
    return float(np.max(np.abs(np.roll(curves, -1, axis=1) - np.roll(curves, step, axis=0))))


class TestParameterRangeError:
    """Every tuning value out of its range raises the one range error, a ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda decomp: AllocationEntry(0, 1.0),
            lambda decomp: single_mode_pop(decomp, frequency=3),
            lambda decomp: TuningPopulation2D(single_mode_pop(decomp, frequency=2), 3e15),
            lambda decomp: sample_firing_field(TuningPopulation2D(single_mode_pop(decomp)), (0, 0), 7),
            lambda decomp: _lattice_waveform(single_mode_pop(decomp), 2**62, np.zeros(1, dtype=np.int64)),
        ],
        ids=["allocation-frequency-0", "unpaired-frequency", "phase-shift", "resolution", "int64-lattice"],
    )
    def test_parameter_range_error(self, n6_decomp, call):
        with pytest.raises(ValueError) as caught:
            call(n6_decomp)
        assert type(caught.value) is ParameterRangeError

    def test_unpaired_frequency_names_the_paired_range(self, n6_decomp):
        with pytest.raises(ParameterRangeError, match=r"^frequency 3 is not a paired mode of the n=6 ring \(paired: 1..2\)$"):
            single_mode_pop(n6_decomp, frequency=3)


class TestShiftedCopies:
    def test_optimal_population_passes(self):
        decomp = decompose(white_kernel(8))
        assert shift_error(shifted_curves(optimal_tuning_1d(decomp, 1.0))) <= 1e-9

    def test_multi_mode_population_passes(self, n6_decomp, rng):
        assert shift_error(shifted_curves(random_population(rng, n6_decomp))) <= 1e-9

    def test_perturbed_curves_fail(self, n6_decomp, rng):
        curves = shifted_curves(random_population(rng, n6_decomp))
        curves[:, 3] *= 1.01  # one neuron's amplitude off by 1%
        assert shift_error(curves) > 1e-9
