"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from ringfisher.cli import main
from ringfisher.mcsim import SimConfig, run_displacement_trials
from ringfisher.optimal import maximize_fisher_1d
from ringfisher.spectral import (
    TWO_PI,
    CorrelationKernel,
    decompose,
    kernel_from_spectrum,
    mode_coefficients,
    rotate_pattern,
    synthesize,
)
from ringfisher.tuning import (
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    optimal_tuning_1d,
    optimal_tuning_2d,
)
from ringfisher.fisher import fisher_1d, fisher_2d, fisher_derivative
from test_fisher import dense_fisher_2d_oracle
from test_tuning import random_population, single_mode_pop
from conftest import (
    count_toroidal_maxima,
    dense_torus_matrix,
    random_psd_kernel,
    read_field_csv,
    separable_torus_inverse,
)


def test_criterion_1_one_dimensional_optimum(rng):
    start = time.perf_counter()
    power = 1.0
    for i in range(100):
        n = int(rng.integers(4, 65))
        decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.05, lam_hi=2.0))
        result = maximize_fisher_1d(decomp, power, audit_trials=10_000, seed=i)
        lam_min = min(decomp.mode(k).eigenvalue for k in decomp.paired_frequencies)
        assert result.achieved_fi == pytest.approx(power / lam_min, rel=1e-12)
        assert result.audit_margin <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 1: 1D concentration optimal for 100 kernels ({elapsed:.1f}s)")


def test_criterion_2_theta_constancy_and_zero_derivative(rng):
    start = time.perf_counter()
    cases = [
        (decompose(CorrelationKernel(4, (1.0, 0.5, 0.25))), 1),
        (decompose(CorrelationKernel(12, tuple([1.0, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01]))), 3),
    ]
    for decomp, frequency in cases:
        pop = single_mode_pop(decomp, frequency=frequency, power=2.0)
        values = [
            fisher_1d(pop, t) for t in np.linspace(0.0, TWO_PI, 256, endpoint=False)
        ]
        assert (max(values) - min(values)) / min(values) < 1e-9
        for theta in rng.uniform(0.0, TWO_PI, size=32):
            assert abs(fisher_derivative(pop, theta)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: FI flat over positions, derivative zero ({elapsed:.2f}s)")


def test_criterion_3_torus_product_form(rng):
    start = time.perf_counter()
    for i in range(20):
        n = int(rng.choice([6, 8]))
        decomp = decompose(random_psd_kernel(rng, n, lam_lo=0.2, lam_hi=2.0))
        pop2d = TuningPopulation2D(
            random_population(rng, decomp), phase_shift=float(rng.uniform(0.0, TWO_PI))
        )
        theta = tuple(rng.uniform(0.0, TWO_PI, size=2))
        report = fisher_2d(pop2d, theta=theta)
        ix, iy, ixy = dense_fisher_2d_oracle(pop2d, theta)
        assert report.product_form == pytest.approx(ix, rel=1e-8)
        assert report.i_x == pytest.approx(ix, rel=1e-8)
        assert report.i_y == pytest.approx(iy, rel=1e-8)
    decomp = decompose(CorrelationKernel(4, (1.0, 0.5, 0.25)))
    power = 1.0
    report = fisher_2d(optimal_tuning_2d(decomp, power))
    lam = decomp.mode(1).eigenvalue
    expected = (power / (1 * lam)) ** 2
    assert report.i_x == pytest.approx(expected, rel=1e-9)
    assert report.i_y == pytest.approx(expected, rel=1e-9)
    assert abs(report.i_xy) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 3: product form matches dense torus quadratic form ({elapsed:.1f}s)")


def test_criterion_4_cramer_rao_attainment():
    start = time.perf_counter()
    decomp = decompose(CorrelationKernel(4, (1.0, 0.5, 0.25)))
    pop = optimal_tuning_1d(decomp, 1.0)
    known = run_displacement_trials(
        SimConfig(population=pop, trials=100_000, seed=20240809, mode="known_reference")
    )
    assert known.empirical_variance == pytest.approx(0.75, rel=0.05)
    double = run_displacement_trials(
        SimConfig(population=pop, trials=100_000, seed=20240809, mode="two_snapshot")
    )
    assert double.empirical_variance == pytest.approx(1.5, rel=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(
        "PASS criterion 4: variance "
        f"{known.empirical_variance:.4f} vs 0.75 and {double.empirical_variance:.4f} vs 1.5 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_suboptimality_separation():
    start = time.perf_counter()
    decomp = decompose(CorrelationKernel(6, (1.0, 0.4, 0.1, 0.05)))
    lams = {k: decomp.mode(k).eigenvalue for k in decomp.paired_frequencies}
    k_max = max(lams, key=lams.get)
    seed = 424242
    best = run_displacement_trials(
        SimConfig(population=optimal_tuning_1d(decomp, 1.0), trials=100_000, seed=seed)
    )
    worst = run_displacement_trials(
        SimConfig(
            population=TuningPopulation1D(decomp, PowerAllocation.single(k_max, 1.0)),
            trials=100_000,
            seed=seed,
        )
    )
    assert worst.empirical_variance >= lams[k_max] * (1.0 - 3.0 * math.sqrt(2.0 / 100_000))
    assert worst.empirical_variance > best.empirical_variance
    ratio = worst.empirical_variance / best.empirical_variance
    expected = max(lams.values()) / min(lams.values())
    assert ratio == pytest.approx(expected, rel=0.10)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(f"PASS criterion 5: variance ratio {ratio:.3f} vs {expected:.3f} ({elapsed:.1f}s)")


def test_criterion_6_shift_theorem_exactness(rng):
    for n in (8, 12, 15):
        decomp = decompose(random_psd_kernel(rng, n))
        v = rng.normal(size=n)
        coeffs = mode_coefficients(decomp, v)
        for shift in (1, 3, n - 2):
            rotated = rotate_pattern(
                decomp,
                {k: coeffs[k] for k in decomp.paired_frequencies},
                TWO_PI * shift / n,
            )
            rotated[0] = coeffs[0]
            if n % 2 == 0:
                rotated[n // 2] = (coeffs[n // 2][0] * (-1.0) ** shift, 0.0)
            np.testing.assert_allclose(synthesize(decomp, rotated), np.roll(v, shift), atol=1e-12)
    decomp = decompose(CorrelationKernel(8, (1.0, 0.4, 0.2, 0.1, 0.05)))
    (a, b) = rotate_pattern(decomp, {1: (1.0, 0.0)}, math.radians(30.0))[1]
    assert round(a, 3) == 0.866
    assert round(b, 3) == 0.5
    print("PASS criterion 6: coefficient rotation matches index rolls and 30-degree weights")


def test_criterion_7_grid_field_geometry(tmp_path):
    for k in (1, 2, 3, 4):
        lams = np.ones(7)
        lams[k] = 0.001
        kernel = kernel_from_spectrum(12, lams)
        kernel_file = tmp_path / f"kernel_{k}.json"
        kernel_file.write_text(
            json.dumps(
                {"n": 12, "family": "explicit", "params": {"values": list(kernel.values)}}
            )
        )
        pgm = tmp_path / f"field_{k}.pgm"
        csv_out = tmp_path / f"field_{k}.csv"
        code = main(
            ["field2d", str(kernel_file), str(pgm), str(csv_out), "--optimal", "--res", "128"]
        )
        assert code == 0
        field = read_field_csv(csv_out)
        assert count_toroidal_maxima(field) == k * k
    print("PASS criterion 7: optimal frequency-k fields show k^2 toroidal maxima, k in 1..4")


def test_criterion_8_kronecker_inverse(rng):
    decomps = [decompose(random_psd_kernel(rng, n, lam_lo=0.1, lam_hi=2.0)) for n in (4, 6, 8)]
    decomps += [
        decompose(CorrelationKernel(4, (1.0, 0.5, 0.25))),
        decompose(CorrelationKernel(6, (1.0, 0.4, 0.1, 0.05))),
    ]
    for decomp in decomps:
        dense_inverse = np.linalg.inv(dense_torus_matrix(decomp.kernel))
        err = float(np.max(np.abs(separable_torus_inverse(decomp) - dense_inverse)))
        assert err <= 1e-8, f"n={decomp.n}: max error {err:.3e}"
    print("PASS criterion 8: separable torus inverse equals dense inversion for n in 4, 6, 8")


def test_criterion_9_simulation_determinism(tmp_path):
    from test_cli import demo_config_path

    out = tmp_path / "result.json"
    manifest = tmp_path / "result.json.manifest.json"
    runs = []
    for _ in range(2):
        assert main(["simulate", demo_config_path(), str(out)]) == 0
        runs.append((out.read_bytes(), manifest.read_bytes()))
    assert runs[0] == runs[1]
    print("PASS criterion 9: fixed-seed simulation reruns reproduce result and manifest bytes")
