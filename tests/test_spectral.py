"""Spectral decomposition, inversion, rotation, and torus separability."""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringfisher.errors import (
    MalformedKernelError,
    NotPositiveSemidefiniteError,
    ParameterRangeError,
    SingularCovarianceError,
)
from ringfisher import io as rio
from ringfisher.fisher import fisher_1d, fisher_1d_spectral
from ringfisher.mcsim import make_rng
from ringfisher.spectral import (
    TWO_PI,
    CorrelationKernel,
    SpectralDecomposition,
    apply_inverse,
    decompose,
    exponential_kernel,
    gaussian_kernel,
    kernel_from_spectrum,
    mode_coefficients,
    rotate_pattern,
    synthesize,
    validate_psd,
)
from ringfisher.tuning import optimal_tuning_1d

from conftest import (
    assert_close_relative,
    column_eigenvalues,
    cosine_sum_eigenvalues,
    dense_basis,
    dense_eigenvalues,
    dense_ring_matrix,
    dense_torus_matrix,
    eigenvalue_multiset,
    float_digest,
    modes,
    random_psd_kernel,
    separable_torus_inverse,
    white_kernel,
)


class TestDecompose:
    def test_n4_closed_form(self, n4_decomp):
        by_freq = {m.frequency: m for m in modes(n4_decomp)}
        assert by_freq[0].eigenvalue == pytest.approx(2.25, abs=1e-12)
        assert by_freq[1].eigenvalue == pytest.approx(0.75, abs=1e-12)
        assert by_freq[2].eigenvalue == pytest.approx(0.25, abs=1e-12)
        assert not by_freq[0].paired and by_freq[1].paired and not by_freq[2].paired
        # cross-check against the dense symmetric eigensolver oracle
        np.testing.assert_allclose(
            eigenvalue_multiset(n4_decomp), dense_eigenvalues(n4_decomp), atol=1e-12
        )

    def test_white_noise_flat_spectrum(self):
        decomp = decompose(white_kernel(8, sigma_sq=4.0))
        assert all(m.eigenvalue == pytest.approx(4.0, abs=0) for m in modes(decomp))

    def test_n6_matches_dense_oracle(self, n6_decomp):
        np.testing.assert_allclose(
            eigenvalue_multiset(n6_decomp), dense_eigenvalues(n6_decomp), atol=1e-10
        )

    def test_modes_sorted_and_complete(self, n6_decomp):
        freqs = [m.frequency for m in modes(n6_decomp)]
        assert freqs == sorted(freqs) == [0, 1, 2, 3]
        assert sum(2 if m.paired else 1 for m in modes(n6_decomp)) == 6

    @pytest.mark.parametrize("frequency", [-1, 4])
    def test_mode_out_of_range_raises_key_error(self, n6_decomp, frequency):
        with pytest.raises(KeyError):
            n6_decomp.mode(frequency)

    @pytest.mark.parametrize("values", [(1.0, 0.5), (1.0, 0.5, 0.25, 0.1)])
    def test_wrong_value_count_rejected(self, values):
        with pytest.raises(MalformedKernelError):
            CorrelationKernel(4, values)

    def test_nonpositive_c0_rejected(self):
        with pytest.raises(MalformedKernelError):
            CorrelationKernel(4, (0.0, 0.1, 0.1))

    def test_small_ring_rejected(self):
        with pytest.raises(MalformedKernelError):
            CorrelationKernel(3, (1.0, 0.1))


class TestValidatePsd:
    def test_n4_valid(self, n4_decomp):
        report = validate_psd(n4_decomp)
        assert report.valid and report.strictly_positive
        assert report.min_eigenvalue == pytest.approx(0.25, abs=1e-12)

    def test_identity_kernel(self):
        report = validate_psd(decompose(white_kernel(4)))
        assert report.valid
        assert report.min_eigenvalue == pytest.approx(1.0, abs=0)

    def test_boundary_and_invalid(self):
        ok = validate_psd(decompose(CorrelationKernel(4, (1.0, 0.9, 0.9))))
        assert ok.valid
        assert ok.min_eigenvalue == pytest.approx(0.1, abs=1e-12)
        bad = validate_psd(decompose(CorrelationKernel(4, (1.0, 1.2, 0.0))))
        assert not bad.valid
        assert 2 in bad.negative_frequencies
        assert bad.min_eigenvalue == pytest.approx(1.0 - 2.4, abs=1e-12)


class TestMaterializeDense:
    """The dense oracle ``dense_ring_matrix`` against hand-written rows."""

    def test_n4_row(self, n4_kernel):
        np.testing.assert_allclose(dense_ring_matrix(n4_kernel)[0], [1.0, 0.5, 0.25, 0.5])

    def test_identity(self):
        np.testing.assert_allclose(dense_ring_matrix(white_kernel(4)), np.eye(4))

    def test_n6_row(self, n6_kernel):
        np.testing.assert_allclose(
            dense_ring_matrix(n6_kernel)[0], [1.0, 0.4, 0.1, 0.05, 0.1, 0.4]
        )


class TestApplyInverse:
    def test_white_noise_scales(self, rng):
        decomp = decompose(white_kernel(8, sigma_sq=2.0))
        v = rng.normal(size=8)
        np.testing.assert_allclose(apply_inverse(decomp, v), v / 2.0, atol=1e-12)

    def test_eigenvector_input(self, n4_decomp):
        w1 = n4_decomp.cos_vector(1)
        np.testing.assert_allclose(apply_inverse(n4_decomp, w1), w1 / 0.75, atol=1e-12)

    def test_matches_dense_solve_oracle(self, n6_decomp, rng):
        v = rng.normal(size=6)
        expected = np.linalg.solve(dense_ring_matrix(n6_decomp), v)
        np.testing.assert_allclose(apply_inverse(n6_decomp, v), expected, atol=1e-9)

    def test_stacked_input(self, n6_decomp, rng):
        vs = rng.normal(size=(5, 6))
        expected = np.linalg.solve(dense_ring_matrix(n6_decomp), vs.T).T
        np.testing.assert_allclose(apply_inverse(n6_decomp, vs), expected, atol=1e-9)

    def test_singular_rejected(self):
        decomp = decompose(white_kernel(4, sigma_sq=1e-13))
        with pytest.raises(SingularCovarianceError):
            apply_inverse(decomp, np.ones(4))

    @pytest.mark.parametrize("length", [5, 7])
    def test_wrong_length_rejected(self, n6_decomp, length):
        # a length-7 rfft has as many bins as a length-6 one
        with pytest.raises(ValueError):
            apply_inverse(n6_decomp, np.ones(length))
        with pytest.raises(ValueError):
            mode_coefficients(n6_decomp, np.ones(length))


class TestRotatePattern:
    def test_thirty_degree_weights(self, n6_decomp):
        rotated = rotate_pattern(n6_decomp, {1: (1.0, 0.0)}, math.radians(30.0))
        a, b = rotated[1]
        assert round(a, 3) == 0.866
        assert round(b, 3) == 0.5

    def test_zero_angle_identity(self, n6_decomp):
        coeffs = {1: (0.3, -1.1), 2: (0.7, 0.2)}
        assert rotate_pattern(n6_decomp, coeffs, 0.0) == coeffs

    def test_half_turn_at_double_frequency(self, n6_decomp):
        rotated = rotate_pattern(n6_decomp, {2: (1.0, 0.0)}, math.pi / 2.0)
        np.testing.assert_allclose(rotated[2], (-1.0, 0.0), atol=1e-12)

    @pytest.mark.parametrize("frequency", [0, 3])
    def test_singletons_rejected(self, n6_decomp, frequency):
        with pytest.raises(ParameterRangeError):
            rotate_pattern(n6_decomp, {frequency: (1.0, 0.0)}, 0.1)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        theta1=st.floats(-10.0, 10.0),
        theta2=st.floats(-10.0, 10.0),
        a=st.floats(-5.0, 5.0),
        b=st.floats(-5.0, 5.0),
    )
    def test_composition_additive_and_norm_preserving(self, theta1, theta2, a, b):
        decomp = decompose(CorrelationKernel(6, (1.0, 0.4, 0.1, 0.05)))
        coeffs = {1: (a, b), 2: (b, -a)}
        once = rotate_pattern(decomp, rotate_pattern(decomp, coeffs, theta1), theta2)
        combined = rotate_pattern(decomp, coeffs, theta1 + theta2)
        for k in coeffs:
            np.testing.assert_allclose(once[k], combined[k], atol=1e-12)
            assert math.hypot(*combined[k]) == pytest.approx(math.hypot(*coeffs[k]), abs=1e-12)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_integer_rotation_equals_index_roll(self, n, rng):
        decomp = decompose(random_psd_kernel(rng, n))
        v = rng.normal(size=n)
        coeffs = mode_coefficients(decomp, v)
        for shift in (1, 2, n - 1):
            paired = {k: coeffs[k] for k in decomp.paired_frequencies}
            rotated = rotate_pattern(decomp, paired, TWO_PI * shift / n)
            rotated[0] = coeffs[0]
            if n % 2 == 0:
                nyquist = n // 2
                rotated[nyquist] = (coeffs[nyquist][0] * (-1.0) ** shift, 0.0)
            np.testing.assert_allclose(
                synthesize(decomp, rotated), np.roll(v, shift), atol=1e-12
            )

    def test_coefficient_roundtrip(self, n6_decomp, rng):
        v = rng.normal(size=6)
        np.testing.assert_allclose(
            synthesize(n6_decomp, mode_coefficients(n6_decomp, v)), v, atol=1e-12
        )


class TestUnpairedFrequencyRange:
    """Every spectral call that needs a sine eigenvector raises the one range error, a ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda decomp: decomp.sin_vector(3),
            lambda decomp: synthesize(decomp, {0: (1.0, 0.5)}),
            lambda decomp: rotate_pattern(decomp, {3: (1.0, 0.0)}, 0.1),
        ],
        ids=["sin_vector", "synthesize", "rotate_pattern"],
    )
    def test_parameter_range_error(self, n6_decomp, call):
        with pytest.raises(ValueError) as caught:
            call(n6_decomp)
        assert type(caught.value) is ParameterRangeError


class TestTorusInverse:
    """``apply_inverse`` along both axes of an (n^2, n, n) view against dense Kronecker inversion."""

    def test_n4(self, n4_decomp):
        expected = np.linalg.inv(dense_torus_matrix(n4_decomp))
        np.testing.assert_allclose(separable_torus_inverse(n4_decomp), expected, rtol=0, atol=1e-8)

    def test_white_noise_diagonal(self):
        sigma_sq = 2.0
        decomp = decompose(white_kernel(4, sigma_sq=sigma_sq))
        np.testing.assert_allclose(
            separable_torus_inverse(decomp), np.eye(16) / sigma_sq**2, atol=1e-12
        )

    def test_n6(self, n6_decomp):
        expected = np.linalg.inv(dense_torus_matrix(n6_decomp))
        np.testing.assert_allclose(separable_torus_inverse(n6_decomp), expected, rtol=0, atol=1e-8)

    def test_dense_entries_separable(self, n4_kernel):
        c = dense_ring_matrix(n4_kernel)
        dense = dense_torus_matrix(n4_kernel)
        for i, j, k, l in [(0, 1, 2, 3), (1, 1, 1, 1), (3, 0, 2, 1)]:
            assert dense[i * 4 + j, k * 4 + l] == pytest.approx(c[i, k] * c[j, l], abs=1e-15)


class TestSpectralProperties:
    @pytest.mark.parametrize("n", [4, 9, 16, 33, 64])
    def test_eigenvector_residuals(self, n, rng):
        decomp = decompose(random_psd_kernel(rng, n))
        dense = dense_ring_matrix(decomp)
        for m in modes(decomp):
            w = decomp.cos_vector(m.frequency)
            np.testing.assert_allclose(dense @ w, m.eigenvalue * w, atol=1e-10)
            if m.paired:
                wp = decomp.sin_vector(m.frequency)
                np.testing.assert_allclose(dense @ wp, m.eigenvalue * wp, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 7, 16, 64])
    def test_orthonormal_basis(self, n, rng):
        decomp = decompose(random_psd_kernel(rng, n))
        basis = dense_basis(decomp)
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_spectral_reconstruction(self, n, rng):
        decomp = decompose(random_psd_kernel(rng, n))
        basis, lams = dense_basis(decomp), column_eigenvalues(decomp)
        rebuilt = (basis * lams) @ basis.T
        np.testing.assert_allclose(rebuilt, dense_ring_matrix(decomp), atol=1e-10)

    def test_closed_form_matches_dense_for_random_kernels(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 65))
            decomp = decompose(random_psd_kernel(rng, n))
            np.testing.assert_allclose(
                eigenvalue_multiset(decomp), dense_eigenvalues(decomp), atol=1e-9
            )

    def test_spectrum_roundtrip(self, rng):
        for n in (6, 9, 16):
            lams = rng.uniform(0.1, 3.0, size=n // 2 + 1)
            decomp = decompose(kernel_from_spectrum(n, lams))
            np.testing.assert_allclose(decomp.eigenvalues, lams, atol=1e-12)


ORACLE_SIZES = st.integers(4, 64)
SEEDS = st.integers(0, 2**32 - 1)
ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class TestFftMatchesDenseOracle:
    """Each rfft/irfft path against the dense eigenbasis, odd and even n in 4..64."""

    @ORACLE_SETTINGS
    @given(n=ORACLE_SIZES, seed=SEEDS)
    def test_eigenvalues_match_cosine_sum(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=n // 2 + 1)
        values[0] = 1.0 + abs(values[0])
        kernel = CorrelationKernel(n, tuple(values))
        assert_close_relative(decompose(kernel).eigenvalues, cosine_sum_eigenvalues(kernel))

    @ORACLE_SETTINGS
    @given(n=ORACLE_SIZES, seed=SEEDS)
    def test_apply_inverse_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        decomp = decompose(random_psd_kernel(rng, n))
        vs = rng.normal(size=(3, n))
        expected = np.linalg.solve(dense_ring_matrix(decomp), vs.T).T
        assert_close_relative(apply_inverse(decomp, vs), expected)

    @ORACLE_SETTINGS
    @given(n=ORACLE_SIZES, seed=SEEDS)
    def test_mode_coefficients_match_dot_products(self, n, seed):
        rng = np.random.default_rng(seed)
        decomp = decompose(random_psd_kernel(rng, n))
        v = rng.normal(size=n)
        expected = dense_basis(decomp).T @ v
        coeffs = mode_coefficients(decomp, v)
        got = [c for m in modes(decomp) for c in coeffs[m.frequency][: 2 if m.paired else 1]]
        assert_close_relative(got, expected)
        for m in modes(decomp):
            if not m.paired:
                assert coeffs[m.frequency][1] == 0.0

    @ORACLE_SETTINGS
    @given(n=ORACLE_SIZES, seed=SEEDS)
    def test_synthesize_matches_weighted_columns(self, n, seed):
        rng = np.random.default_rng(seed)
        decomp = decompose(random_psd_kernel(rng, n))
        coeffs = {
            m.frequency: (rng.normal(), rng.normal() if m.paired else 0.0)
            for m in modes(decomp)
            if rng.random() < 0.7
        }
        expected = np.zeros(n)
        for k, (a, b) in coeffs.items():
            expected += a * decomp.cos_vector(k)
            if k in decomp.paired_frequencies:
                expected += b * decomp.sin_vector(k)
        assert_close_relative(synthesize(decomp, coeffs), expected)

    @pytest.mark.parametrize("n", [4, 7])
    def test_sine_weight_on_singleton_rejected(self, n):
        decomp = decompose(white_kernel(n))
        singletons = [m.frequency for m in modes(decomp) if not m.paired]
        for k in singletons:
            with pytest.raises(ParameterRangeError):
                synthesize(decomp, {k: (1.0, 0.5)})

    def test_eigenvalues_read_only_and_shared(self, n6_decomp):
        lams = n6_decomp.eigenvalues
        assert lams is n6_decomp.eigenvalues
        with pytest.raises(ValueError):
            lams[0] = 0.0


class TestBinLayout:
    """Eigen-coefficients meet the rfft bins through one scale per frequency."""

    # float_digest of each output below: a change to the layout must leave every bit
    COEFFICIENT_DIGESTS = {
        4: "de72d36c39a5f0b008cff6580e74fd04a4a0eed1959b0c69895e5ef3f24ebf05",
        5: "63b8a06c28cc50efc73434c5d3da8ee663e46eb99d0c619a186b9755a834d528",
        7: "012ac756774e380a2af28d0930c7ec454d1e0ad5c26ed234f4c5f86eab2613dc",
        8: "38756f31e65a41413848312d6922178200a8b8c595583bb7e6c913c67f353ab0",
    }
    SYNTHESIS_DIGESTS = {
        4: "0ae664c1b2a6d325a61f827a0862b630021ac75ad16e4d666e4bc5a835551471",
        5: "465bf8895d70df8234651125c7052f3db4ae58ce54322ac7ab35beb85e311684",
        7: "c65229b648f0f7a4a63fd91435b7c6143e65ab05af8dfcf5146b7512726b86b4",
        8: "ae317f3b30ff160fae64d870210630ddd7dd27ff00926656ad63ad309ec29cac",
    }

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_coefficients_keep_their_bits(self, n):
        decomp = decompose(exponential_kernel(n, rho=0.4))
        coeffs = mode_coefficients(decomp, make_rng(100 + n).standard_normal(n))
        assert float_digest([c for k in sorted(coeffs) for c in coeffs[k]]) == self.COEFFICIENT_DIGESTS[n]

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_synthesis_keeps_its_bits(self, n):
        decomp = decompose(exponential_kernel(n, rho=0.4))
        z = make_rng(200 + n).standard_normal(n)
        coeffs = {k: (z[k], z[n - 1 - k] if k in decomp.paired_frequencies else 0.0) for k in range(n // 2 + 1)}
        assert float_digest(synthesize(decomp, coeffs)) == self.SYNTHESIS_DIGESTS[n]

    @pytest.mark.parametrize("n", [7, 8])
    def test_no_mode_objects_built(self, tmp_path, monkeypatch, n):
        decomp = decompose(exponential_kernel(n, rho=0.4))
        v = make_rng(n).standard_normal(n)
        coeffs_before = mode_coefficients(decomp, v)
        rio.write_decomposition_csv(decomp, tmp_path / "before.csv")

        def refuse(self, frequency):
            raise AssertionError("a per-frequency mode object was built")

        monkeypatch.setattr(SpectralDecomposition, "mode", refuse)
        assert mode_coefficients(decomp, v) == coeffs_before
        rio.write_decomposition_csv(decomp, tmp_path / "after.csv")
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()

    @pytest.mark.parametrize("n", [7, 8])
    def test_frequency_out_of_range_rejected_by_synthesis(self, n):
        decomp = decompose(exponential_kernel(n, rho=0.4))
        for k in (-1, n // 2 + 1):
            with pytest.raises(KeyError):
                synthesize(decomp, {k: (1.0, 0.0)})


class TestKernelFamilies:
    def test_exponential_decay_and_psd(self):
        kernel = exponential_kernel(8, c0=1.0, rho=0.5)
        assert kernel.values[2] == pytest.approx(0.25)
        assert validate_psd(decompose(kernel)).valid

    def test_exponential_rejects_bad_rho(self):
        with pytest.raises(MalformedKernelError):
            exponential_kernel(8, rho=1.5)

    def test_gaussian_narrow_is_psd(self):
        assert validate_psd(decompose(gaussian_kernel(8, length=1.0))).valid

    def test_gaussian_wide_rejected(self):
        # wide ring-Gaussian kernels lose positive semidefiniteness
        with pytest.raises(NotPositiveSemidefiniteError):
            gaussian_kernel(8, length=4.0)

    @pytest.mark.parametrize("c0", [1.0, 2.5])
    def test_gaussian_whose_two_length_squared_underflows_is_its_limit(self, c0):
        # 2 length^2 is 0.0 at length 1e-200 and the subnormal 2e-320 at 1e-160, where every
        # quotient but the one at d = 0 overflows to -inf: both kernels are (c0, 0, ..., 0)
        narrow = gaussian_kernel(8, c0=c0, length=1e-200)
        assert narrow.values == gaussian_kernel(8, c0=c0, length=1e-160).values == (c0, 0.0, 0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(length=st.floats(1e-161, 1.5), c0=st.floats(0.1, 10.0))
    @example(length=1e-160, c0=1.0)  # 2 length^2 is subnormal
    def test_gaussian_keeps_the_bits_of_its_formula(self, length, c0):
        expected = tuple(c0 * math.exp(-(d * d) / (2.0 * length * length)) for d in range(9))
        assert gaussian_kernel(16, c0=c0, length=length).values == expected

    def test_spectrum_of_the_wrong_length_rejected(self):
        with pytest.raises(MalformedKernelError, match="need 5 eigenvalues for n=8"):
            kernel_from_spectrum(8, [1.0, 0.5, 0.25, 0.1])

    @pytest.mark.parametrize("frequency", [0, 3])
    def test_singleton_has_no_sine_vector(self, n6_decomp, frequency):
        with pytest.raises(ParameterRangeError):
            n6_decomp.sin_vector(frequency)


class TestOneSpectrumPerKernel:
    """The spectrum is transformed once, when the kernel is built, and shared from then on."""

    @pytest.mark.parametrize(
        "definition",
        [
            {"n": 64, "family": "exponential", "params": {"c0": 1.0, "rho": 0.5}},
            {"n": 64, "family": "gaussian", "params": {"c0": 1.0, "length": 2.0}},
            {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
        ],
        ids=["exponential", "gaussian", "explicit"],
    )
    def test_loading_and_decomposing_a_file_runs_one_rfft(self, tmp_path, monkeypatch, definition):
        from ringfisher import io as rio

        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(definition))
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        decomp = decompose(rio.load_kernel(path))
        assert validate_psd(decomp).valid
        assert decomp.mode(1).eigenvalue > 0.0
        assert len(calls) == 1

    def test_a_kernel_is_its_own_decomposition(self, n6_kernel):
        assert SpectralDecomposition is CorrelationKernel
        assert decompose(n6_kernel) is n6_kernel
        assert not n6_kernel.eigenvalues.flags.writeable

    def test_spectrum_outside_equality_hashing_and_repr(self):
        first = CorrelationKernel(4, (1.0, 0.5, 0.25))
        second = CorrelationKernel(4, [1, np.float32(0.5), 0.25])
        assert first == second
        assert hash(first) == hash(second)
        assert second.values == (1.0, 0.5, 0.25)
        assert all(type(v) is float for v in second.values)
        assert "eigenvalues" not in repr(first)

    def test_copies_and_pickles_keep_the_spectrum_read_only(self, n6_kernel):
        for clone in (copy.copy(n6_kernel), copy.deepcopy(n6_kernel), pickle.loads(pickle.dumps(n6_kernel))):
            assert clone == n6_kernel
            assert not clone.eigenvalues.flags.writeable
            np.testing.assert_array_equal(clone.eigenvalues, n6_kernel.eigenvalues)

    def test_values_keep_their_bits(self):
        values = (1.0, -0.0, 0.1 + 0.2, 5e-324)
        kernel = CorrelationKernel(6, values)
        assert [v.hex() for v in kernel.values] == [v.hex() for v in values]

    @pytest.mark.parametrize(
        "n, values, frequency",
        [
            (4, (1e308, 1e308, 1e308), 0),  # spectrum (inf, 0, nan)
            (4, (1e308, -6e307, 0.0), 2),  # only the alternating sum overflows
            (8, tuple(1e308 * 0.9**d for d in range(5)), 0),
        ],
    )
    def test_overflowing_spectrum_rejected(self, n, values, frequency):
        with pytest.raises(MalformedKernelError, match=f"overflow the spectrum: eigenvalue .* at frequency {frequency}$"):
            CorrelationKernel(n, values)

    def test_overflowing_family_rejected_before_its_psd_check(self):
        with pytest.raises(MalformedKernelError, match="at frequency 0"):
            exponential_kernel(8, c0=1e308, rho=0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(MalformedKernelError, match="finite"):
            CorrelationKernel(4, (1.0, bad, 0.25))


class TestEigenvectorsAtLargeN:
    """k i is reduced mod n in integers before it becomes an angle, so the eigenvectors
    of the optimum at n = 2**20 stay unit and the n-space quadratic form stays exact."""

    K = 2**19 - 1

    def test_unit_norms(self, exp1m_decomp):
        for vec in (exp1m_decomp.cos_vector(self.K), exp1m_decomp.sin_vector(self.K)):
            assert abs(vec @ vec - 1.0) <= 1e-15

    def test_quadratic_form_matches_spectral(self, exp1m_decomp):
        pop = optimal_tuning_1d(exp1m_decomp, 1.0)
        assert pop.allocation.entries[0].frequency == self.K
        spectral = fisher_1d_spectral(pop.allocation, exp1m_decomp)
        for theta in (0.0, 0.3, 1.7, 4.1):
            assert fisher_1d(pop, theta) == pytest.approx(spectral, rel=4e-15, abs=0)
