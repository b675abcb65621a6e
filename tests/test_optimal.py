"""Allocation search: closed forms, vertex-edge enumeration, audit oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringfisher import optimal
from ringfisher.errors import ConditionViolatedError, SingularCovarianceError
from ringfisher.fisher import fisher_max_bound
from ringfisher.optimal import (
    audit_random_allocations,
    check_condition,
    maximize_fisher_1d,
    maximize_fisher_2d,
)
from ringfisher.spectral import decompose, exponential_kernel, kernel_from_spectrum
from ringfisher.tuning import PowerAllocation, optimal_tuning_1d, optimal_tuning_2d

from conftest import INVALID_SPECTRA, dense_ring_matrix, random_psd_kernel, white_kernel


def torus_search_oracle(decomp, power):
    """Brute force: the best vertex, then the closed-form maximum on every edge of the simplex.

    Returns the achieved information and the method label, following the same
    vertex tie rule and strict-improvement rule as the search under test.
    """
    freqs = np.array(decomp.paired_frequencies)
    lams = np.array([decomp.mode(int(k)).eigenvalue for k in freqs])
    u = 1.0 / lams
    v = u / freqs.astype(float) ** 2
    m = freqs.size
    best_w = np.zeros(m)
    best_w[int(np.argmax(u * v))] = power
    best_val = float((best_w @ u) * (best_w @ v))
    method = "closed_form" if check_condition(decomp).concentration_valid else "vertex_edge"
    for i in range(m):
        for j in range(i + 1, m):
            quad = (u[i] - u[j]) * (v[i] - v[j])
            lin = (u[i] - u[j]) * v[j] + u[j] * (v[i] - v[j])
            if quad < 0.0:
                t = -lin / (2.0 * quad)
                if 0.0 < t < 1.0:
                    w = np.zeros(m)
                    w[i], w[j] = power * t, power * (1.0 - t)
                    val = float((w @ u) * (w @ v))
                    if val > best_val:
                        best_val, method = val, "vertex_edge"
    return best_val, method


def vector_search_oracle(decomp, power):
    """The torus search scoring every candidate as an m-vector of weights, each sum by einsum.

    Returns the allocation, the achieved information and the method label, for a
    bit-for-bit comparison with the two-weight closed form of the search under test.
    """
    freqs, u, v = optimal._objective_coefficients(decomp)

    def value(w):
        return float(np.einsum("j,j->", w, u) * np.einsum("j,j->", w, v))

    best_w = np.zeros(freqs.size)
    best_w[int(np.argmax(u * v))] = power
    best_val = value(best_w)
    method = "closed_form" if check_condition(decomp).concentration_valid else "vertex_edge"
    hull = optimal._upper_hull(u, v)
    for a, b in zip(hull, hull[1:]):
        i, j = min(a, b), max(a, b)
        quad = (u[i] - u[j]) * (v[i] - v[j])
        lin = (u[i] - u[j]) * v[j] + u[j] * (v[i] - v[j])
        if quad < 0.0:
            t = -lin / (2.0 * quad)
            if 0.0 < t < 1.0:
                w = np.zeros(freqs.size)
                w[i], w[j] = power * t, power * (1.0 - t)
                val = value(w)
                if val > best_val:
                    best_val, best_w, method = val, w, "vertex_edge"
    keep = best_w > 1e-15 * power
    allocation = PowerAllocation.from_powers({int(k): float(w) for k, w in zip(freqs[keep], best_w[keep])})
    return allocation, best_val, method


@st.composite
def torus_spectra(draw):
    """Spectra with up to 40 paired modes, some with eigenvalue ties or collinear hull points."""
    n = draw(st.integers(4, 82))
    half = n // 2
    paired = (n + 1) // 2 - 1
    lams = draw(st.lists(st.floats(0.05, 2.0), min_size=half + 1, max_size=half + 1))
    if paired >= 2 and draw(st.booleans()):
        # tie two paired eigenvalues exactly
        a = draw(st.integers(1, paired))
        b = draw(st.integers(1, paired).filter(lambda k: k != a))
        lams[b] = lams[a]
    if paired >= 3 and draw(st.booleans()):
        # frequencies a < b < c with (u_b, v_b) on the segment between the other two
        # points, which trade off u against v: the c point has the largest u of all
        a, b, c = sorted(draw(st.lists(st.integers(1, paired), min_size=3, max_size=3, unique=True)))
        lams[c] = draw(st.floats(0.01, 0.05))
        lams[a] = lams[c] * draw(st.floats(1.01, 0.99 * c * c / (a * a)))
        ua, va, uc, vc = 1.0 / lams[a], 1.0 / (a * a * lams[a]), 1.0 / lams[c], 1.0 / (c * c * lams[c])
        s = (ua / (b * b) - va) / ((vc - va) - (uc - ua) / (b * b))
        lams[b] = 1.0 / (ua + s * (uc - ua))
    return n, lams


class TestMaximize1D:
    def test_n4_concentration(self, n4_decomp):
        result = maximize_fisher_1d(n4_decomp, 1.0)
        assert result.achieved_fi == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert result.method == "closed_form"
        assert result.allocation.entries[0].frequency == 1
        assert audit_random_allocations(n4_decomp, 1.0, "fi1d", 10_000, 5) - result.achieved_fi <= 1e-12

    def test_white_noise_flat_objective(self):
        decomp = decompose(white_kernel(8, sigma_sq=2.0))
        result = maximize_fisher_1d(decomp, 1.0)
        assert result.achieved_fi == pytest.approx(0.5, rel=1e-12)
        assert abs(audit_random_allocations(decomp, 1.0, "fi1d", 2000, 1) - result.achieved_fi) < 1e-12

    def test_exponential_kernel_argmin(self):
        kernel = exponential_kernel(8, rho=0.5)
        decomp = decompose(kernel)
        dense = dense_ring_matrix(kernel)
        quotients = {
            k: decomp.cos_vector(k) @ dense @ decomp.cos_vector(k)
            for k in decomp.paired_frequencies
        }
        expected = min(quotients, key=quotients.get)
        result = maximize_fisher_1d(decomp, 1.0)
        assert result.allocation.entries[0].frequency == expected


class TestMaximize2D:
    def test_n4_single_paired_mode(self, n4_decomp):
        result = maximize_fisher_2d(n4_decomp, 1.0)
        assert result.achieved_fi == pytest.approx(16.0 / 9.0, rel=1e-12)
        assert result.method == "closed_form"
        assert audit_random_allocations(n4_decomp, 1.0, "fi2d_x", 2000, 9) - result.achieved_fi <= 1e-9

    def test_white_noise_concentrates_at_lowest_frequency(self):
        sigma_sq = 2.0
        decomp = decompose(white_kernel(8, sigma_sq=sigma_sq))
        result = maximize_fisher_2d(decomp, 1.0)
        (entry,) = result.allocation.entries
        assert entry.frequency == 1
        assert result.achieved_fi == pytest.approx((1.0 / sigma_sq) ** 2, rel=1e-12)
        assert audit_random_allocations(decomp, 1.0, "fi2d_x", 5000, 2) - result.achieved_fi <= 1e-9

    def test_disagreeing_orderings_split_power(self):
        # eigenvalues 1.0 (k=1) and 0.5 (k=2): the 50/50 split beats both vertices
        decomp = decompose(kernel_from_spectrum(6, [1.2, 1.0, 0.5, 0.8]))
        result = maximize_fisher_2d(decomp, 1.0)
        assert result.method == "vertex_edge"
        assert result.achieved_fi == pytest.approx(1.125, rel=1e-9)
        weights = {e.frequency: e.amplitude**2 for e in result.allocation.entries}
        assert weights[1] == pytest.approx(0.5, rel=1e-9)
        assert weights[2] == pytest.approx(0.5, rel=1e-9)
        # beats both single-frequency vertices and every audited point
        assert result.achieved_fi > 1.0
        assert audit_random_allocations(decomp, 1.0, "fi2d_x", 100_000, 13) - result.achieved_fi <= 1e-9

    def test_power_scaling(self, n6_decomp):
        base = maximize_fisher_2d(n6_decomp, 1.0)
        scaled = maximize_fisher_2d(n6_decomp, 3.0)
        assert scaled.achieved_fi == pytest.approx(9.0 * base.achieved_fi, rel=1e-9)
        base_1d = maximize_fisher_1d(n6_decomp, 1.0)
        scaled_1d = maximize_fisher_1d(n6_decomp, 3.0)
        assert scaled_1d.achieved_fi == pytest.approx(3.0 * base_1d.achieved_fi, rel=1e-12)
        for b, s in zip(base.allocation.entries, scaled.allocation.entries):
            assert s.amplitude**2 / 3.0 == pytest.approx(b.amplitude**2, rel=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spectrum=torus_spectra(), power=st.sampled_from([1.0, 2.5]))
    def test_matches_brute_force_edge_enumeration(self, spectrum, power):
        decomp = decompose(kernel_from_spectrum(*spectrum))
        expected_fi, expected_method = torus_search_oracle(decomp, power)
        result = maximize_fisher_2d(decomp, power)
        assert result.achieved_fi == pytest.approx(expected_fi, rel=1e-12, abs=0.0)
        assert result.method == expected_method

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spectrum=torus_spectra(), power=st.sampled_from([1.0, 2.5, 0.3]))
    def test_two_weight_scores_match_the_vector_search_bit_for_bit(self, spectrum, power):
        decomp = decompose(kernel_from_spectrum(*spectrum))
        allocation, achieved_fi, method = vector_search_oracle(decomp, power)
        result = maximize_fisher_2d(decomp, power)
        assert result.achieved_fi.hex() == achieved_fi.hex()
        assert result.method == method
        assert result.allocation == allocation

    def test_nonpositive_paired_eigenvalue_rejected(self):
        decomp = decompose(kernel_from_spectrum(6, [1.0, 0.8, 0.0, 0.5]))
        with pytest.raises(SingularCovarianceError):
            maximize_fisher_2d(decomp, 1.0)


class TestCheckCondition:
    def test_exponential_kernel_report(self):
        decomp = decompose(exponential_kernel(16, rho=0.9))
        report = check_condition(decomp)
        freqs = decomp.paired_frequencies
        lams = [decomp.mode(k).eigenvalue for k in freqs]
        weighted = [k * k * l for k, l in zip(freqs, lams)]
        assert report.argmin_lambda == freqs[int(np.argmin(lams))]
        assert report.argmin_k2lambda == freqs[int(np.argmin(weighted))]
        assert report.concentration_valid == (report.argmin_lambda == report.argmin_k2lambda)

    def test_white_noise_ties(self):
        report = check_condition(decompose(white_kernel(8)))
        assert not report.lambda_order_ok
        assert report.argmin_lambda == 1
        assert report.argmin_k2lambda == 1
        assert report.concentration_valid

    def test_single_paired_mode_trivially_valid(self):
        report = check_condition(decompose(decompose_kernel_n4()))
        assert report.lambda_order_ok and report.k2lambda_order_ok
        assert report.concentration_valid


class TestOneOrderingDecision:
    """The constructions and the searches read the orderings that ``check_condition`` reports."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spectrum=torus_spectra(), power=st.sampled_from([1.0, 2.5]))
    def test_torus_construction_follows_the_report(self, spectrum, power):
        decomp = decompose(kernel_from_spectrum(*spectrum))
        report = check_condition(decomp)
        if not report.concentration_valid:
            with pytest.raises(ConditionViolatedError):
                optimal_tuning_2d(decomp, power)
            return
        (entry,) = optimal_tuning_2d(decomp, power).x.allocation.entries
        assert entry.frequency == report.argmin_lambda

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spectrum=torus_spectra(), power=st.sampled_from([1.0, 2.5, 0.3]))
    def test_ring_search_is_the_ring_construction(self, spectrum, power):
        decomp = decompose(kernel_from_spectrum(*spectrum))
        result = maximize_fisher_1d(decomp, power)
        allocation = optimal_tuning_1d(decomp, power).allocation
        assert result.allocation == allocation
        assert result.achieved_fi == power / decomp.eigenvalues[allocation.entries[0].frequency]


def decompose_kernel_n4():
    from ringfisher.spectral import CorrelationKernel

    return CorrelationKernel(4, (1.0, 0.45, 0.05))


class TestAudit:
    def test_n4_bounded_by_closed_form(self, n4_decomp):
        assert audit_random_allocations(n4_decomp, 1.0, "fi1d", 10_000, seed=31) <= 4.0 / 3.0 + 1e-12

    def test_white_noise_constant_objective(self):
        decomp = decompose(white_kernel(8, sigma_sq=2.0))
        assert audit_random_allocations(decomp, 1.0, "fi1d", 500, seed=8) == pytest.approx(0.5, abs=1e-12)

    def test_seed_determinism(self, n6_decomp):
        first = audit_random_allocations(n6_decomp, 1.0, "fi2d_x", 1000, seed=77)
        second = audit_random_allocations(n6_decomp, 1.0, "fi2d_x", 1000, seed=77)
        assert first == second

    def test_rejects_zero_trials(self, n6_decomp):
        with pytest.raises(ValueError):
            audit_random_allocations(n6_decomp, 1.0, "fi1d", 0, seed=0)


class TestOptimalityProperties:
    def test_1d_concentration_dominates_audits(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 65))
            decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.05))
            seed = int(rng.integers(0, 2**31))
            result = maximize_fisher_1d(decomp, 1.0)
            assert audit_random_allocations(decomp, 1.0, "fi1d", 2000, seed) - result.achieved_fi <= 1e-9

    def test_2d_concentration_when_orderings_agree(self, rng):
        checked = 0
        while checked < 10:
            n = int(rng.integers(6, 33))
            decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.05))
            condition = check_condition(decomp)
            if not condition.concentration_valid:
                continue
            checked += 1
            result = maximize_fisher_2d(decomp, 1.0)
            (entry,) = result.allocation.entries
            k = entry.frequency
            lam = decomp.mode(k).eigenvalue
            assert k == condition.argmin_lambda
            assert result.achieved_fi == pytest.approx((1.0 / (k * lam)) ** 2, rel=1e-9)
            assert audit_random_allocations(decomp, 1.0, "fi2d_x", 2000, checked) - result.achieved_fi <= 1e-9

    def test_2d_search_dominates_audits_even_when_orderings_disagree(self, rng):
        found = 0
        while found < 5:
            n = int(rng.integers(6, 33))
            decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.05))
            if check_condition(decomp).concentration_valid:
                continue
            found += 1
            result = maximize_fisher_2d(decomp, 1.0)
            assert audit_random_allocations(decomp, 1.0, "fi2d_x", 20_000, found) - result.achieved_fi <= 1e-9


def one_shot_draw(decomp, power, objective, trials, seed):
    """Objective values of the audit as a single draw of every trial, each row summed on its own:
    the oracle for the streamed blocks."""
    freqs = np.array(decomp.paired_frequencies)
    lams = decomp.eigenvalues[freqs]
    u = 1.0 / lams
    v = u / freqs.astype(float) ** 2
    rng = np.random.Generator(np.random.Philox(seed))
    weights = power * rng.dirichlet(np.ones(freqs.size), size=trials)
    fi = np.add.reduce(weights * u, axis=1)
    return fi if objective == "fi1d" else fi * np.add.reduce(weights * v, axis=1)


class TestStreamedAudit:
    @pytest.mark.parametrize("n", [4, 9, 64, 300])
    @pytest.mark.parametrize("trials", [1, 255, 257, 1001])
    @pytest.mark.parametrize("budget", [1, 1000, 2**16, 2**20])
    def test_blocks_reproduce_one_draw_exactly(self, monkeypatch, n, trials, budget):
        # a budget of 1 value holds one row per block
        monkeypatch.setattr(optimal, "_AUDIT_BLOCK_VALUES", budget)
        decomp = decompose(exponential_kernel(n, rho=0.7))
        for objective in ("fi1d", "fi2d_x"):
            expected = one_shot_draw(decomp, 1.3, objective, trials, 11).max()
            assert audit_random_allocations(decomp, 1.3, objective, trials, seed=11) == expected

    @pytest.mark.parametrize("trials", [1, 2, 257])
    @pytest.mark.parametrize("budget", [1, 2 * 16_383, 2**16])
    def test_large_m_blocks_reproduce_one_draw_exactly(self, monkeypatch, trials, budget):
        # m = 16 383: blocks of one, two and four rows, where einsum's row sums change with the block
        monkeypatch.setattr(optimal, "_AUDIT_BLOCK_VALUES", budget)
        decomp = decompose(exponential_kernel(32_768, rho=0.5))
        for objective in ("fi1d", "fi2d_x"):
            expected = one_shot_draw(decomp, 1.0, objective, trials, 4).max()
            assert audit_random_allocations(decomp, 1.0, objective, trials, seed=4) == expected

    @pytest.mark.parametrize("objective", ["fi1d", "fi2d_x"])
    @pytest.mark.parametrize("n", [1024, 32_768, 32_770])
    def test_row_values_keep_their_bits_in_any_block(self, objective, n):
        # a BLAS matrix-vector product may group the last rows of a call differently, and
        # einsum gives a lone row other bits than the same row in a block from m = 16 383 on
        decomp = decompose(exponential_kernel(n, rho=0.5))
        _, u, v = optimal._objective_coefficients(decomp)
        weights = np.random.Generator(np.random.Philox(3)).dirichlet(np.ones(u.size), size=257)
        alone = np.array([optimal._objective_values(w, u, v, objective) for w in weights])
        for block in (1, 2, 3, 256, 257):
            values = np.concatenate(
                [optimal._objective_values(weights[s : s + block], u, v, objective) for s in range(0, 257, block)]
            )
            assert values.tobytes() == alone.tobytes(), block

    def test_peak_memory_is_a_few_m_length_arrays(self):
        # one block of 256 rows at m = 65 535 would hold 134 MB; value-sized blocks hold one row
        decomp = decompose(exponential_kernel(2**17, rho=0.5))
        m_bytes = (2**16 - 1) * 8
        tracemalloc.start()
        try:
            audit_random_allocations(decomp, 1.0, "fi2d_x", 256, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * m_bytes, peak / m_bytes

    def test_peak_memory_flat_in_trials(self):
        decomp = decompose(exponential_kernel(1024, rho=0.5))
        peaks = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                audit_random_allocations(decomp, 1.0, "fi2d_x", trials, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        # one draw of 20 000 trials over 511 frequencies would hold 78 MB, twice
        assert peaks[1] < 1.5 * peaks[0] + 1.0
        assert peaks[1] < 8.0

    def test_negative_seed_rejected_before_any_draw(self, n6_decomp, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "Philox", no_draw)
        with pytest.raises(ValueError, match="seed"):
            audit_random_allocations(n6_decomp, 1.0, "fi1d", 10, seed=-1)


class TestSpectrumGuards:
    """Every optimum and ordering reads the paired spectrum through the same two guards."""

    READERS = {
        "optimal_tuning_1d": lambda d: optimal_tuning_1d(d, 1.0),
        "optimal_tuning_2d": lambda d: optimal_tuning_2d(d, 1.0),
        "maximize_fisher_1d": lambda d: maximize_fisher_1d(d, 1.0),
        "maximize_fisher_2d": lambda d: maximize_fisher_2d(d, 1.0),
        "check_condition": check_condition,
        "audit_fi1d": lambda d: audit_random_allocations(d, 1.0, "fi1d", 10, seed=0),
        "audit_fi2d_x": lambda d: audit_random_allocations(d, 1.0, "fi2d_x", 10, seed=0),
        "fisher_max_bound": lambda d: fisher_max_bound(d, 1.0),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("spectrum", sorted(INVALID_SPECTRA))
    def test_invalid_spectrum_rejected(self, reader, spectrum):
        lams, error = INVALID_SPECTRA[spectrum]
        decomp = decompose(kernel_from_spectrum(8, lams))
        with pytest.raises(error, match="at frequency"):
            self.READERS[reader](decomp)

    def test_zero_singleton_still_allowed(self):
        # the optima divide by the paired eigenvalues only, so lambda_0 = 0 is fine
        decomp = decompose(kernel_from_spectrum(8, [0.0, 0.5, 1.0, 1.0, 1.0]))
        assert maximize_fisher_1d(decomp, 1.0).allocation.entries[0].frequency == 1
        assert check_condition(decomp).argmin_lambda == 1
