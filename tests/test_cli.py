"""CLI surface: artifacts, exit codes, warnings, manifests, determinism."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ringfisher
from ringfisher import io as rio
from ringfisher.cli import _OUTPUT_ARGS, load_sim_config, main
from ringfisher.errors import MalformedKernelError
from ringfisher.mcsim import SimConfig
from ringfisher.spectral import decompose, exponential_kernel
from conftest import INVALID_SPECTRA, ZERO_COMMON_MODE, count_toroidal_maxima, modes, read_field_csv


def write_kernel(path, n, values):
    payload = {"n": n, "family": "explicit", "params": {"values": list(values)}}
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def n4_kernel_file(tmp_path):
    return write_kernel(tmp_path / "kernel.json", 4, [1.0, 0.5, 0.25])


def spectrum_kernel_file(tmp_path, n, lams, name="spectral.json"):
    from ringfisher.spectral import kernel_from_spectrum

    kernel = kernel_from_spectrum(n, lams)
    return write_kernel(tmp_path / name, n, kernel.values)


class TestDecomposeCommand:
    def test_explicit_kernel_csv(self, tmp_path, n4_kernel_file, capsys):
        out = tmp_path / "decomp.csv"
        assert main(["decompose", str(n4_kernel_file), str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "k,lambda,paired"
        assert len(rows) == 1 + 3
        report = json.loads(capsys.readouterr().out)
        assert report["min_eigenvalue"] == pytest.approx(0.25)

    def test_exponential_family_matches_module(self, tmp_path, capsys):
        kernel_file = tmp_path / "exp.json"
        kernel_file.write_text(
            json.dumps({"n": 8, "family": "exponential", "params": {"c0": 1.0, "rho": 0.5}})
        )
        out = tmp_path / "decomp.csv"
        assert main(["decompose", str(kernel_file), str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        expected = decompose(exponential_kernel(8, c0=1.0, rho=0.5))
        for row, mode in zip(rows, modes(expected)):
            k, lam, paired = row.split(",")
            assert int(k) == mode.frequency
            assert float(lam) == pytest.approx(mode.eigenvalue, rel=1e-15)
            assert paired == str(mode.paired).lower()

    def test_integral_float_n_reads_as_the_integer(self, tmp_path):
        for n in (8, 8.0):
            (tmp_path / f"k{n}.json").write_text(json.dumps({"n": n, "family": "exponential", "params": {"rho": 0.5}}))
            assert main(["decompose", str(tmp_path / f"k{n}.json"), str(tmp_path / f"d{n}.csv")]) == 0
        assert (tmp_path / "d8.0.csv").read_bytes() == (tmp_path / "d8.csv").read_bytes()

    def test_invalid_kernel_exit_3_names_frequency(self, tmp_path, capsys):
        kernel_file = write_kernel(tmp_path / "bad.json", 4, [1.0, 1.2, 0.0])
        out = tmp_path / "decomp.csv"
        assert main(["decompose", str(kernel_file), str(out)]) == 3
        assert "k = 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path / "nope.json"), str(tmp_path / "o.csv")]) == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", str(bad), str(tmp_path / "o.csv")]) == 2


class TestUnparsableJson:
    """JSON that the parser cannot hold exits 2 naming the file, from every command."""

    #: The arguments of each command after its input file.
    REST = {
        "decompose": ["d.csv"],
        "optimize": ["o.json"],
        "fisher": ["f.json"],
        "field2d": ["f.pgm", "f.csv", "--optimal"],
        "simulate": ["r.json"],
    }

    @pytest.mark.parametrize("text", [
        '{"n": 1' + "0" * 5000 + "}",
        "[" * 100_000,
    ], ids=["integer-beyond-the-digit-limit", "nesting-too-deep"])
    @pytest.mark.parametrize("command", list(REST))
    def test_exit_2_cannot_read(self, tmp_path, capsys, monkeypatch, command, text):
        (tmp_path / "input.json").write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main([command, "input.json", *self.REST[command]]) == 2
        noun = "simulation config" if command == "simulate" else "kernel file"
        assert capsys.readouterr().err.startswith(f"error: cannot read {noun} input.json: ")
        assert [p.name for p in tmp_path.iterdir()] == ["input.json"]


class TestOptimizeCommand:
    def test_dim1_result(self, tmp_path, n4_kernel_file, capsys):
        out = tmp_path / "opt.json"
        assert main(["optimize", str(n4_kernel_file), str(out), "--dim", "1"]) == 0
        payload = json.loads(out.read_text())
        (entry,) = payload["search"]["allocation"]["entries"]
        assert entry["frequency"] == 1
        assert entry["amplitude"] == pytest.approx(1.0)
        assert payload["search"]["achieved_fi"] == pytest.approx(4.0 / 3.0)
        assert payload["condition"]["concentration_valid"] is True

    def test_dim2_reports_cross_term(self, tmp_path, n4_kernel_file):
        out = tmp_path / "opt2.json"
        assert main(["optimize", str(n4_kernel_file), str(out), "--dim", "2"]) == 0
        payload = json.loads(out.read_text())
        assert payload["search"]["achieved_fi"] == pytest.approx(16.0 / 9.0)
        assert payload["fisher"]["i_x"] == pytest.approx(16.0 / 9.0)
        assert abs(payload["fisher"]["i_xy"]) < 1e-9

    def test_white_noise_tie_warning(self, tmp_path, capsys):
        kernel_file = write_kernel(tmp_path / "white.json", 8, [1.0, 0, 0, 0, 0])
        out = tmp_path / "opt.json"
        assert main(["optimize", str(kernel_file), str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "tie" in err
        payload = json.loads(out.read_text())
        assert payload["search"]["allocation"]["entries"][0]["frequency"] == 1

    def test_curves_export_with_offset(self, tmp_path, n4_kernel_file):
        out = tmp_path / "opt.json"
        curves = tmp_path / "curves.csv"
        assert (
            main(
                [
                    "--offset",
                    "2.0",
                    "optimize",
                    str(n4_kernel_file),
                    str(out),
                    "--curves-out",
                    str(curves),
                    "--curves-samples",
                    "32",
                ]
            )
            == 0
        )
        rows = curves.read_text().strip().splitlines()
        assert rows[0] == "theta,neuron_0,neuron_1,neuron_2,neuron_3"
        assert len(rows) == 33
        values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        assert values.mean() == pytest.approx(2.0, abs=1e-9)  # sinusoids average out


class TestFisherCommand:
    def test_gaussian_whose_two_length_squared_underflows_runs(self, tmp_path):
        # 2 length^2 underflows to 0 at length 1e-200: the kernel is the length-1e-160 one, (1, 0, ..., 0)
        for length in (1e-200, 1e-160):
            kernel_file = tmp_path / f"gauss-{length}.json"
            kernel_file.write_text(json.dumps({"n": 8, "family": "gaussian", "params": {"length": length}}))
            assert main(["fisher", str(kernel_file), str(tmp_path / f"fisher-{length}.json")]) == 0
        assert (tmp_path / "fisher-1e-200.json").read_bytes() == (tmp_path / "fisher-1e-160.json").read_bytes()

    def test_report_schema(self, tmp_path, n4_kernel_file):
        out = tmp_path / "fisher.json"
        assert main(["fisher", str(n4_kernel_file), str(out), "--dim", "2"]) == 0
        payload = json.loads(out.read_text())
        for field in (
            "fi_spectral",
            "fi_theta",
            "fi_max_bound",
            "crb",
            "i_x",
            "i_y",
            "i_xy",
            "ordering_condition",
        ):
            assert field in payload
        assert payload["fi_spectral"] == pytest.approx(4.0 / 3.0)
        assert payload["crb"] == pytest.approx(0.75)
        assert payload["i_x"] == pytest.approx(16.0 / 9.0)

    def test_dim1_leaves_torus_fields_null(self, tmp_path, n4_kernel_file):
        out = tmp_path / "fisher.json"
        assert main(["fisher", str(n4_kernel_file), str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["i_x"] is None

    def test_unpaired_frequency_exit_5(self, tmp_path, n4_kernel_file, capsys):
        out = tmp_path / "fisher.json"
        assert main(["fisher", str(n4_kernel_file), str(out), "--k", "2"]) == 5
        assert "(paired: 1..1)" in capsys.readouterr().err
        # the message names the range, not each of the 2047 paired frequencies
        big = tmp_path / "exp4096.json"
        big.write_text(json.dumps({"n": 4096, "family": "exponential", "params": {"rho": 0.5}}))
        assert main(["fisher", str(big), str(out), "--k", "2048"]) == 5
        err = capsys.readouterr().err
        assert "(paired: 1..2047)" in err
        assert len(err) < 200

    def test_non_optimal_paired_k_on_the_torus(self, tmp_path, monkeypatch):
        from ringfisher import fisher, spectral, tuning

        # the smallest eigenvalue is at k = 2, so k = 1 is paired but not the optimum
        kernel_file = spectrum_kernel_file(tmp_path, 8, [2.0, 0.5, 0.25, 1.0, 3.0])
        calls = []
        apply_inverse = spectral.apply_inverse

        def record(d, v):
            calls.append(v.shape)
            return apply_inverse(d, v)

        # every module that could hold its own reference to the inverse
        for module in (spectral, tuning, fisher):
            monkeypatch.setattr(module, "apply_inverse", record, raising=False)
        out = tmp_path / "fisher.json"
        assert main(["fisher", str(kernel_file), str(out), "--k", "1", "--dim", "2", "--power", "2"]) == 0
        payload = json.loads(out.read_text())
        assert payload["fi_spectral"] == pytest.approx(2.0 / 0.5, rel=1e-12)
        np.testing.assert_allclose(payload["fi_theta"], payload["fi_spectral"], rtol=1e-12, atol=0)
        assert payload["i_x"] == pytest.approx(payload["product_form"], rel=1e-12)
        # the report and the torus terms weight coefficients by 1/lambda_k: no n-space inverse
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["fisher", "{kernel}", "{out}", "--dim", "2"],
            ["fisher", "{kernel}", "{out}", "--k", "3", "--dim", "2"],
            ["--seed", "3", "optimize", "{kernel}", "{out}", "--dim", "2", "--audit-trials", "50"],
        ],
        ids=["fisher-optimal", "fisher-k3", "optimize-audit"],
    )
    def test_torus_commands_build_no_eigenvector(self, tmp_path, monkeypatch, argv):
        from ringfisher import fisher, spectral, tuning

        def refuse(*args, **kwargs):
            raise AssertionError("n-space work in a Fisher form")

        for owner, name in [
            (spectral, "apply_inverse"), (fisher, "apply_inverse"), (tuning, "_basis"),
            (spectral.CorrelationKernel, "cos_vector"), (spectral.CorrelationKernel, "sin_vector"),
        ]:
            monkeypatch.setattr(owner, name, refuse)
        kernel_file = tmp_path / "exp64.json"
        kernel_file.write_text(json.dumps({"n": 64, "family": "exponential", "params": {"rho": 0.5}}))
        out = tmp_path / "out.json"
        assert main([a.format(kernel=kernel_file, out=out) for a in argv]) == 0
        assert out.exists()


class TestExactPower:
    """A power budget P is stored as given: on the demo kernel ``fisher --power P`` reports
    P / lambda_k* as one division, and ``optimize --power P`` writes P with the amplitude sqrt(P)."""

    @staticmethod
    def check(out_dir, power):
        kernel_file = resources.files("ringfisher").joinpath("data/demo_kernel.json")
        lam = float(rio.load_kernel(kernel_file).eigenvalues[1])  # k* = 1, the n = 4 ring's one paired frequency
        fisher_out, optimize_out = out_dir / "fisher.json", out_dir / "opt.json"
        assert main(["fisher", str(kernel_file), str(fisher_out), "--power", repr(power)]) == 0
        report = json.loads(fisher_out.read_text())
        assert report["fi_spectral"] == report["fi_max_bound"] == power / lam
        assert main(["optimize", str(kernel_file), str(optimize_out), "--power", repr(power), "--dim", "1"]) == 0
        allocation = json.loads(optimize_out.read_text())["search"]["allocation"]
        (entry,) = allocation["entries"]
        assert allocation["power"] == entry["power"] == power
        assert entry["amplitude"] == math.sqrt(power)

    @pytest.mark.parametrize("power", range(1, 21))
    def test_integer_powers(self, tmp_path, capsys, power):
        self.check(tmp_path, float(power))

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(power=st.floats(1e-300, 1e300))
    def test_any_power(self, tmp_path, capsys, power):
        self.check(tmp_path, power)


class TestField2dCommand:
    def test_single_bump(self, tmp_path, n4_kernel_file):
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        code = main(["field2d", str(n4_kernel_file), str(pgm), str(csv_out), "--k", "1", "--res", "64"])
        assert code == 0
        field = read_field_csv(csv_out)
        assert field.shape == (64, 64)
        assert count_toroidal_maxima(field) == 1

    def test_nine_bumps_at_frequency_three(self, tmp_path):
        lams = np.ones(7)
        lams[3] = 0.001
        kernel_file = spectrum_kernel_file(tmp_path, 12, lams)
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        code = main(["field2d", str(kernel_file), str(pgm), str(csv_out), "--k", "3", "--res", "128"])
        assert code == 0
        assert count_toroidal_maxima(read_field_csv(csv_out)) == 9

    def test_tiny_resolution_header(self, tmp_path, n4_kernel_file):
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        code = main(["field2d", str(n4_kernel_file), str(pgm), str(csv_out), "--k", "1", "--res", "8"])
        assert code == 0
        header = pgm.read_bytes()[:11].split()
        assert header == [b"P5", b"8", b"8", b"255"]
        assert pgm.stat().st_size == 11 + 64

    def test_signed_export_shows_checkerboard(self, tmp_path, n4_kernel_file):
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        code = main(
            ["--offset", "0", "field2d", str(n4_kernel_file), str(pgm), str(csv_out), "--k", "1", "--res", "64"]
        )
        assert code == 0
        assert count_toroidal_maxima(read_field_csv(csv_out)) == 2

    def test_explicit_offset_shifts_each_axis_curve(self, tmp_path, n4_kernel_file):
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        argv = ["--offset", "2.5", "field2d", str(n4_kernel_file), str(pgm), str(csv_out)]
        assert main(argv + ["--k", "1", "--res", "16", "--neuron", "1", "2"]) == 0
        # oracle: at k = 1 and unit power, neuron i's curve is sqrt(2/n) sin(theta - 2 pi i / n)
        thetas = 2.0 * np.pi * np.arange(16) / 16
        fx = np.sqrt(2.0 / 4) * np.sin(thetas - 2.0 * np.pi * 1 / 4) + 2.5
        fy = np.sqrt(2.0 / 4) * np.sin(thetas - 2.0 * np.pi * 2 / 4) + 2.5
        np.testing.assert_allclose(read_field_csv(csv_out), np.outer(fx, fy), rtol=0, atol=1e-12)

    def test_large_offset_keeps_the_graymap_contrast(self, tmp_path):
        # the field spans 1e20 +- 5e10: a relative spread of 1e-9, but not a constant field
        kernel = tmp_path / "k8.json"
        kernel.write_text(json.dumps({"n": 8, "family": "exponential", "params": {"rho": 0.5}}))
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        argv = ["--offset", "1e10", "field2d", str(kernel), str(pgm), str(csv_out), "--k", "2", "--res", "8"]
        assert main(argv) == 0
        assert len(np.unique(read_field_csv(csv_out))) > 1
        pixels = pgm.read_bytes()[-64:]
        assert (min(pixels), max(pixels)) == (0, 255)

    @pytest.mark.parametrize("neuron", [["4", "0"], ["0", "4"], ["-1", "0"]], ids=["n-0", "0-n", "minus1-0"])
    def test_neuron_out_of_range_exit_5(self, tmp_path, n4_kernel_file, neuron):
        code = main(
            ["field2d", str(n4_kernel_file), str(tmp_path / "f.pgm"), str(tmp_path / "f.csv"), "--k", "1", "--neuron", *neuron]
        )
        assert code == 5
        assert not (tmp_path / "f.pgm").exists()

    def test_resolution_out_of_range_exit_5(self, tmp_path, n4_kernel_file):
        code = main(
            ["field2d", str(n4_kernel_file), str(tmp_path / "f.pgm"), str(tmp_path / "f.csv"), "--k", "1", "--res", "7"]
        )
        assert code == 5

    def test_unpaired_frequency_exit_5(self, tmp_path, n4_kernel_file, capsys):
        code = main(
            ["field2d", str(n4_kernel_file), str(tmp_path / "f.pgm"), str(tmp_path / "f.csv"), "--k", "2"]
        )
        assert code == 5
        assert "(paired: 1..1)" in capsys.readouterr().err

    def test_condition_violation_exit_4(self, tmp_path):
        kernel_file = spectrum_kernel_file(tmp_path, 6, [1.2, 1.0, 0.5, 0.8])
        code = main(
            ["field2d", str(kernel_file), str(tmp_path / "f.pgm"), str(tmp_path / "f.csv"), "--optimal"]
        )
        assert code == 4


def demo_config_path() -> str:
    return str(resources.files("ringfisher").joinpath("data/demo_simulation.json"))


class TestSimulateCommand:
    def test_demo_config_efficiency(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["simulate", demo_config_path(), str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["efficiency"] >= 0.95
        assert payload["mode"] == "known_reference"

    def test_fixed_seed_rerun_reproduces_bytes(self, tmp_path):
        out, dump = tmp_path / "r.json", tmp_path / "trials.csv"
        manifest = tmp_path / "r.json.manifest.json"
        argv = ["--seed", "11", "simulate", demo_config_path(), str(out), "--dump-trials", str(dump)]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append((out.read_bytes(), dump.read_bytes(), manifest.read_bytes()))
        assert runs[0] == runs[1]

    def test_seed_override_changes_results(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["simulate", demo_config_path(), str(out1)])
        main(["--seed", "1", "simulate", demo_config_path(), str(out2)])
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert a["seed"] != b["seed"]
        assert a["mean_estimate"] != b["mean_estimate"]

    def test_large_displacement_warns_but_runs(self, tmp_path, capsys):
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "optimal",
            "delta_theta": 0.2,
            "trials": 200,
            "seed": 3,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 0
        assert "warning" in capsys.readouterr().err

    def test_dump_trials(self, tmp_path):
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "optimal",
            "trials": 150,
            "seed": 3,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        dump = tmp_path / "trials.csv"
        assert main(["simulate", str(config_file), str(tmp_path / "r.json"), "--dump-trials", str(dump)]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "trial,estimate"
        assert len(lines) == 151
        for i, line in enumerate(lines[1:]):
            trial, estimate = line.split(",")
            assert int(trial) == i
            float(estimate)  # plain decimal numbers, not numpy scalar reprs

    def test_bad_estimator_exit_6(self, tmp_path):
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "optimal",
            "trials": 200,
            "estimator": "oracle",
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 6

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    def test_invalid_inline_kernel_exit_3(self, tmp_path, capsys, estimator):
        # eigenvalues 1, 0.5, -0.1, 0.3, 0.2: singular for the local readout, not PSD for phase
        values = [0.325, 0.1353553390593274, 0.175, 0.06464466094067263, -0.07500000000000001]
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": values}},
            "allocation": [{"frequency": 1, "amplitude": 1.0}],
            "trials": 200,
            "estimator": estimator,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 3
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_allocation_power_exit_6_without_output(self, tmp_path, capsys):
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25, 0.125, 0.0625]}},
            "allocation": [{"frequency": 1, "amplitude": 1e200}],
            "trials": 200,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: allocation power") and "frequency 1, amplitude 1e+200" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_negative_amplitude_exit_6_without_output(self, tmp_path, capsys):
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25, 0.125, 0.0625]}},
            "allocation": [{"frequency": 2, "amplitude": -0.5}],
            "trials": 200,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 6
        assert "frequency 2, amplitude -0.5" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(amplitude=st.just(0.0) | st.floats(2.0**-511, 1.3e154))
    def test_config_amplitude_round_trips(self, tmp_path, amplitude):
        # an amplitude a stands for the power a * a, whose square root is a again while a * a is
        # a normal float (from 2**-511 up to sqrt of the largest double, 1.34e154)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25, 0.125, 0.0625]}},
            "allocation": [{"frequency": 3, "amplitude": amplitude, "phase": 0.5}],
        }))
        if amplitude == 0.0:
            # power 0 carries no information, which SimConfig refuses as the config is loaded
            with pytest.raises(ValueError, match=r"no active frequency \(information 0\.0\)"):
                load_sim_config(config_file)
            return
        (entry,) = load_sim_config(config_file)[0].population.allocation.entries
        assert (entry.frequency, entry.power, entry.amplitude, entry.phase) == (3, amplitude * amplitude, amplitude, 0.5)

    def test_power_beside_an_allocation_list_exit_2(self, tmp_path, capsys):
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.45, 0.2, 0.1, 0.05]}},
            "allocation": [{"frequency": 1, "amplitude": 0.8}],
            "power": 5.0,
            "trials": 200,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "'power'" in err and "'allocation'" in err and "'optimal'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_negative_config_seed_exit_6(self, tmp_path, capsys):
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "trials": 200,
            "seed": -3,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 6
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_bytes(b"\xff\xfe")
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        assert f"cannot read simulation config {config_file}" in capsys.readouterr().err

    def test_omitted_fields_take_the_sim_config_defaults(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"kernel_file": "k.json"}))
        write_kernel(tmp_path / "k.json", 4, [1.0, 0.5, 0.25])
        config, _ = load_sim_config(config_file)
        defaults = {f.name: f.default for f in dataclasses.fields(SimConfig) if f.name != "population"}
        assert {name: getattr(config, name) for name in defaults} == defaults

    def test_seed_override_skips_the_config_seed(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"kernel_file": "k.json", "seed": "not a seed"}))
        write_kernel(tmp_path / "k.json", 4, [1.0, 0.5, 0.25])
        assert load_sim_config(config_file, seed_override=3)[0].seed == 3
        with pytest.raises(MalformedKernelError, match="seed must be a number"):
            load_sim_config(config_file)

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("scale", [-1.0, float("inf")], ids=["minus1", "inf"])
    def test_bad_noise_scale_exit_6(self, tmp_path, capsys, scale):
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "optimal",
            "trials": 200,
            "noise_scale": scale,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 6
        assert "noise_scale" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field", ["delta_theta", "theta0"])
    def test_non_finite_position_exit_6(self, tmp_path, capsys, field):
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "optimal",
            "trials": 200,
            field: float("nan"),
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 6
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_phase_exit_6(self, tmp_path, capsys, phase):
        # json accepts the NaN and Infinity literals
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.45, 0.2, 0.1, 0.05]}},
            "allocation": [{"frequency": 1, "amplitude": 1.0, "phase": phase}],
            "trials": 200,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv = ["simulate", str(config_file), str(tmp_path / "r.json"), "--dump-trials", str(tmp_path / "t.csv")]
        assert main(argv) == 6
        assert "phase must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    def test_empty_allocation_exit_6(self, tmp_path, capsys, estimator):
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.45, 0.2, 0.1, 0.05]}},
            "allocation": [],
            "trials": 200,
            "estimator": estimator,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv = ["simulate", str(config_file), str(tmp_path / "r.json"), "--dump-trials", str(tmp_path / "t.csv")]
        assert main(argv) == 6
        assert "no active frequency" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("amplitude", [0.0, 1e-200], ids=["zero", "underflow"])
    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    def test_zero_power_allocation_exit_6(self, tmp_path, capsys, estimator, amplitude):
        # the square of 1e-200 underflows to a power of 0: no information, as with no entry
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.45, 0.2, 0.1, 0.05]}},
            "allocation": [{"frequency": 1, "amplitude": amplitude}],
            "trials": 200,
            "estimator": estimator,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv = ["simulate", str(config_file), str(tmp_path / "r.json"), "--dump-trials", str(tmp_path / "t.csv")]
        assert main(argv) == 6
        assert "no active frequency (information 0.0)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_noiseless_active_frequency_exit_6(self, tmp_path, capsys):
        # eigenvalue 0 at k = 2: the phase readout is exact and the information infinite
        config = {
            "kernel": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0.3, 0.5, 0.1, 0.0]}},
            "allocation": [{"frequency": 2, "amplitude": 1.0}],
            "trials": 200,
            "estimator": "phase",
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv = ["simulate", str(config_file), str(tmp_path / "r.json"), "--dump-trials", str(tmp_path / "t.csv")]
        assert main(argv) == 6
        err = capsys.readouterr().err
        assert "fisher_information = inf" in err and "warning" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("mode, sd", [("known_reference", "2.02"), ("two_snapshot", "2.86")])
    def test_low_signal_phase_run_warns(self, tmp_path, capsys, mode, sd):
        # the golden ring-8 phase runs (efficiency 1.917 and 2.909): their noise alone reaches the wrap
        write_kernel(tmp_path / "ring8.json", 8, [1.0, 0.45, 0.2, 0.1, 0.05])
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"kernel_file": "ring8.json", "allocation": "optimal", "trials": 100,
                                           "seed": 5, "estimator": "phase", "mode": mode}))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 0
        expected = ("warning: displacement 0.001 turns frequency 3's phase by 0.003 rad, "
                    f"which with 6 phase-difference sds of {sd} rad reaches pi")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["local_linear", "phase"])
    def test_unallocatable_trial_count_exit_6(self, tmp_path, capsys, estimator):
        # 1e15 trials need petabytes: beyond a 47-bit address space under any overcommit setting
        config = {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "trials": 1e15,
            "estimator": estimator,
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv = ["simulate", str(config_file), str(tmp_path / "r.json"), "--dump-trials", str(tmp_path / "t.csv")]
        assert main(argv) == 6
        assert capsys.readouterr().err.startswith("error: cannot allocate memory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestInvalidSpectrum:
    """Every command that reads the spectrum exits 3 and writes nothing on a kernel with a
    negative eigenvalue, or a non-positive one that it divides by; decompose reports."""

    @staticmethod
    def commands(tmp_path, kernel_file):
        config = tmp_path / "config.json"
        definition = json.loads(kernel_file.read_text())
        config.write_text(json.dumps({"kernel": definition, "allocation": "optimal", "trials": 200}))
        k, out = str(kernel_file), tmp_path / "out"
        return {
            "optimize": (["optimize", k, str(out)], [out]),
            "optimize_dim2": (["optimize", k, str(out), "--dim", "2"], [out]),
            "optimize_audit": (["optimize", k, str(out), "--audit-trials", "50"], [out]),
            "fisher": (["fisher", k, str(out)], [out]),
            "fisher_dim2": (["fisher", k, str(out), "--dim", "2"], [out]),
            "field2d_optimal": (["field2d", k, str(out), str(tmp_path / "f.csv"), "--optimal", "--res", "8"],
                                [out, tmp_path / "f.csv"]),
            "simulate": (["simulate", str(config), str(out)], [out]),
        }

    @pytest.mark.parametrize("command", ["optimize", "optimize_dim2", "optimize_audit", "fisher",
                                         "fisher_dim2", "field2d_optimal", "simulate"])
    @pytest.mark.parametrize("spectrum", sorted(INVALID_SPECTRA))
    def test_exit_3_and_no_output(self, tmp_path, capsys, spectrum, command):
        lams, _ = INVALID_SPECTRA[spectrum]
        kernel_file = spectrum_kernel_file(tmp_path, 8, lams)
        argv, outputs = self.commands(tmp_path, kernel_file)[command]
        assert main(argv) == 3
        assert "at frequency" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)
        assert not any(p.name.endswith(".manifest.json") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("spectrum, code", [("negative_paired", 3), ("negative_k0", 3), ("tiny_paired", 0)])
    def test_decompose_reports(self, tmp_path, capsys, spectrum, code):
        lams, _ = INVALID_SPECTRA[spectrum]
        kernel_file = spectrum_kernel_file(tmp_path, 8, lams)
        out = tmp_path / "decomp.csv"
        assert main(["decompose", str(kernel_file), str(out)]) == code
        assert len(out.read_text().splitlines()) == 1 + 5
        assert (tmp_path / "decomp.csv.manifest.json").exists()


class TestZeroCommonMode:
    """On a spectrum with lambda_0 = 0 every command that divides by the paired eigenvalues
    only runs; the local readout, which divides by all of them, exits 3 naming frequency 0."""

    @pytest.mark.parametrize("command", ["optimize", "optimize_dim2", "optimize_audit", "fisher",
                                         "fisher_dim2", "field2d_optimal"])
    def test_exit_0_with_output(self, tmp_path, capsys, command):
        kernel_file = spectrum_kernel_file(tmp_path, 8, ZERO_COMMON_MODE)
        argv, outputs = TestInvalidSpectrum.commands(tmp_path, kernel_file)[command]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert all(path.exists() for path in outputs)

    @pytest.mark.parametrize("estimator, code", [("local_linear", 3), ("phase", 0)])
    def test_simulate(self, tmp_path, capsys, estimator, code):
        kernel_file = spectrum_kernel_file(tmp_path, 8, ZERO_COMMON_MODE)
        config, out = tmp_path / "config.json", tmp_path / "r.json"
        config.write_text(json.dumps(
            {"kernel_file": kernel_file.name, "allocation": "optimal", "trials": 200, "estimator": estimator}))
        assert main(["simulate", str(config), str(out)]) == code
        if code:
            assert "eigenvalue 0 at frequency 0" in capsys.readouterr().err
        assert out.exists() == (code == 0)


class TestOverflowingSpectrum:
    """Finite covariances whose spectrum overflows exit 2, naming the frequency, before any
    output or manifest is written; the inf/nan eigenvalues would pass every sign guard."""

    KERNELS = {
        "explicit": {"n": 4, "family": "explicit", "params": {"values": [1e308, 1e308, 1e308]}},
        "exponential": {"n": 8, "family": "exponential", "params": {"c0": 1e308, "rho": 0.9}},
    }

    @pytest.mark.parametrize("command", ["decompose", "optimize", "optimize_dim2", "fisher",
                                         "field2d_optimal", "simulate"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_exit_2_and_no_output(self, tmp_path, capsys, kernel, command):
        kernel_file = tmp_path / "kernel.json"
        kernel_file.write_text(json.dumps(self.KERNELS[kernel]))
        commands = TestInvalidSpectrum.commands(tmp_path, kernel_file)
        commands["decompose"] = (["decompose", str(kernel_file), str(tmp_path / "out")], [])
        argv, _ = commands[command]
        assert main(argv) == 2
        assert "overflow the spectrum: eigenvalue inf at frequency 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "kernel.json"]


class TestMalformedFieldTypes:
    """JSON fields of the wrong type exit 2 with a message, not a traceback or a silent cast."""

    @pytest.mark.parametrize(
        "family,params",
        [
            ("exponential", [1]),
            ("exponential", None),
            ("exponential", {"rho": None}),
            ("exponential", {"rho": "0.5"}),
            ("exponential", {"c0": True, "rho": 0.5}),
            ("explicit", {"values": [1.0, None, 0.25, 0.1, 0.05]}),
            ("gaussian", {"length": 0}),
        ],
        ids=["params-list", "params-null", "rho-null", "rho-string", "c0-bool", "value-null", "length-zero"],
    )
    def test_kernel_exit_2(self, tmp_path, capsys, family, params):
        kernel_file = tmp_path / "kernel.json"
        kernel_file.write_text(json.dumps({"n": 8, "family": family, "params": params}))
        assert main(["decompose", str(kernel_file), str(tmp_path / "o.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"trials": None},
            {"trials": 1000.9},
            {"seed": 2.5},
            {"delta_theta": None},
            {"power": "1"},
            {"allocation": [1]},
            {"allocation": [{"amplitude": 1.0}]},
            {"kernel_file": 5},
        ],
        ids=lambda fields: "-".join(f"{k}={json.dumps(v)}" for k, v in fields.items()),
    )
    def test_sim_config_exit_2(self, tmp_path, capsys, fields):
        config = {"trials": 200, **fields}
        if "kernel_file" not in config:
            config["kernel"] = {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}}
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key, value, code, message", [
        ("mode", 5, 2, "mode must be a string, got 5"),
        ("estimator", None, 2, "estimator must be a string, got null"),
        ("mode", "both", 6, "unknown mode 'both'"),
    ])
    def test_mode_and_estimator_must_be_known_strings(self, tmp_path, capsys, key, value, code, message):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "trials": 200, key: value,
        }))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_allocation_names_both_forms(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "best", "trials": 200,
        }))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "'optimal'" in err and "list of {frequency, amplitude, phase}" in err
        assert not (tmp_path / "r.json").exists()


class TestUnknownKeys:
    """A key that no reader knows exits 2 naming it, at every level of a kernel or simulate
    file, instead of leaving its field at the default; nothing is written."""

    KERNEL = {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}}

    @pytest.mark.parametrize("config, key", [
        ({"trails": 500}, "'trails'"),
        ({"allocation": [{"frequency": 1, "amplitude": 1.0, "phse": 0.4}]}, "'phse'"),
        ({"kernel": {**KERNEL, "famliy": "explicit"}}, "'famliy'"),
        ({"kernel": {**KERNEL, "params": {"values": [1.0, 0.5, 0.25], "value": [1.0]}}}, "'value'"),
    ], ids=["top-level", "allocation-entry", "kernel", "kernel-params"])
    def test_simulate_config_exit_2(self, tmp_path, capsys, config, key):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"kernel": self.KERNEL, "trials": 200, **config}))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        assert f"unknown key {key}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_kernel_and_kernel_file_together_exit_2(self, tmp_path, capsys):
        write_kernel(tmp_path / "kernel.json", 8, [1.0, 0.45, 0.2, 0.1, 0.05])
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"kernel": self.KERNEL, "kernel_file": "kernel.json", "trials": 200}))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "'kernel'" in err and "'kernel_file'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "kernel.json"]

    @pytest.mark.parametrize("definition, key", [
        ({"n": 8, "family": "exponential", "params": {"rho": 0.5}, "size": 8}, "'size'"),
        ({"n": 8, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25, 0.1, 0.05], "c0": 2.0}}, "'c0'"),
        ({"n": 8, "family": "exponential", "params": {"C0": 2.0, "rho": 0.5}}, "'C0'"),
        ({"n": 8, "family": "gaussian", "params": {"length": 1.0, "rho": 0.5}}, "'rho'"),
    ], ids=["kernel", "explicit-params", "exponential-params", "gaussian-params"])
    def test_kernel_file_exit_2(self, tmp_path, capsys, definition, key):
        kernel_file = tmp_path / "kernel.json"
        kernel_file.write_text(json.dumps(definition))
        assert main(["fisher", str(kernel_file), str(tmp_path / "f.json")]) == 2
        assert f"unknown key {key}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["kernel.json"]

    def test_simulate_known_keys_are_the_sim_config_fields(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"kernel": self.KERNEL, "trails": 500}))
        assert main(["simulate", str(config_file), str(tmp_path / "r.json")]) == 2
        known = capsys.readouterr().err.rstrip("\n").split("; known keys: ")[1].split(", ")
        fields = [f.name for f in dataclasses.fields(SimConfig) if f.name != "population"]
        assert sorted(known) == sorted(["kernel", "kernel_file", "allocation", "power", *fields])


class TestOverlappingOutputs:
    """Two outputs, or an output and the manifest, that name one file exit 2 naming both
    arguments, and nothing is written."""

    @pytest.mark.parametrize("argv, names", [
        (["field2d", "kernel.json", "same.out", "same.out", "--k", "1"], "out_pgm and out_csv"),
        (["optimize", "kernel.json", "o.json", "--curves-out", "o.json"], "out and --curves-out"),
        (["simulate", "config.json", "r.json", "--dump-trials", "r.json.manifest.json"], "--dump-trials and the manifest"),
        (["field2d", "kernel.json", "link.csv", "f.csv", "--k", "1"], "out_pgm and out_csv"),
        (["--out-dir", "sub", "field2d", "kernel.json", "f.pgm", "../sub/f.pgm", "--k", "1"], "out_pgm and out_csv"),
    ], ids=["field2d", "optimize-curves", "simulate-manifest", "symlink", "out-dir"])
    def test_exit_2_before_any_file_is_written(self, tmp_path, n4_kernel_file, capsys, monkeypatch, argv, names):
        (tmp_path / "config.json").write_text(json.dumps({"kernel_file": "kernel.json", "trials": 200}))
        (tmp_path / "link.csv").symlink_to("f.csv")
        (tmp_path / "sub").mkdir()
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {names} name one file, {tmp_path.resolve()}")
        assert sorted(tmp_path.rglob("*")) == before


class TestOutputNamesAnInput:
    """An output that names a file the command read (a symlink's target too) exits 2 naming
    both, and every file keeps its bytes."""

    @pytest.mark.parametrize("argv, names", [
        (["decompose", "kernel.json", "kernel.json"], "out and the input kernel.json"),
        (["optimize", "kernel.json", "o.json", "--curves-out", "kernel.json"], "--curves-out and the input kernel.json"),
        (["simulate", "config.json", "kernel.json"], "out and the input kernel.json"),
        (["decompose", "kernel.json", "link.json"], "out and the input kernel.json"),
    ], ids=["decompose", "optimize-curves", "simulate-kernel-file", "symlink"])
    def test_exit_2_and_the_input_keeps_its_bytes(self, tmp_path, n4_kernel_file, capsys, monkeypatch, argv, names):
        (tmp_path / "config.json").write_text(json.dumps({"kernel_file": "kernel.json", "trials": 200}))
        (tmp_path / "link.json").symlink_to("kernel.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == f"error: {names} name one file, {tmp_path.resolve() / 'kernel.json'}"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert (tmp_path / "link.json").is_symlink()


class TestOverflowingNoiseScale:
    """A noise scale whose square, or whose draws' moments, overflow exits 6 with the error
    line alone (and the intended aliasing warning of a phase run), writing nothing."""

    @pytest.mark.parametrize("scale, mode, estimator", [
        (1.4e154, "known_reference", "local_linear"),
        (1e154, "known_reference", "local_linear"),
        (1e160, "two_snapshot", "phase"),
    ])
    def test_exit_6_without_a_numpy_warning(self, tmp_path, capsys, scale, mode, estimator):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kernel": {"n": 8, "family": "exponential", "params": {"c0": 1.0, "rho": 0.5}},
            "trials": 100, "noise_scale": scale, "mode": mode, "estimator": estimator,
        }))
        argv = ["simulate", str(config), str(tmp_path / "r.json"), "--dump-trials", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 6
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("error: the result is not finite: ") and "empirical_variance" in lines[-1]
        assert len(lines) == 1 + (estimator == "phase") and all(line.endswith("and aliases") for line in lines[:-1])
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestParameterRanges:
    """Counts and powers outside their documented ranges exit 5 before any output is written."""

    OUTPUTS = {"optimize": ["o.json"], "fisher": ["f.json"], "field2d": ["f.pgm", "f.csv"]}
    REQUIRED = {"field2d": ["--k", "1"]}

    def run(self, tmp_path, kernel_file, command, *flags):
        outputs = [tmp_path / name for name in self.OUTPUTS[command]]
        argv = [command, str(kernel_file), *map(str, outputs), *self.REQUIRED.get(command, []), *flags]
        code = main(argv)
        assert not any(path.exists() for path in outputs)
        return code

    @pytest.mark.parametrize("power", ["-1", "0", "nan"])
    @pytest.mark.parametrize("command", ["optimize", "fisher", "field2d"])
    def test_nonpositive_power_exit_5(self, tmp_path, n4_kernel_file, capsys, command, power):
        assert self.run(tmp_path, n4_kernel_file, command, f"--power={power}") == 5
        assert "--power" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_theta_samples_below_one_exit_5(self, tmp_path, n4_kernel_file, capsys, samples):
        assert self.run(tmp_path, n4_kernel_file, "fisher", f"--theta-samples={samples}") == 5
        assert "--theta-samples" in capsys.readouterr().err

    def test_unallocatable_theta_samples_exit_5(self, tmp_path, n4_kernel_file, capsys):
        # 10**15 positions need petabytes: beyond a 47-bit address space under any overcommit setting
        assert self.run(tmp_path, n4_kernel_file, "fisher", f"--theta-samples={10**15}") == 5
        assert capsys.readouterr().err.startswith("error: cannot allocate memory")

    def test_negative_audit_trials_exit_5(self, tmp_path, n4_kernel_file, capsys):
        assert self.run(tmp_path, n4_kernel_file, "optimize", "--audit-trials=-5") == 5
        assert "--audit-trials" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_curves_samples_below_one_exit_5(self, tmp_path, n4_kernel_file, capsys, samples):
        curves = tmp_path / "c.csv"
        flags = ("--curves-out", str(curves), f"--curves-samples={samples}")
        assert self.run(tmp_path, n4_kernel_file, "optimize", *flags) == 5
        assert "--curves-samples" in capsys.readouterr().err
        assert not curves.exists()

    def test_unallocatable_curves_samples_exit_5(self, tmp_path, n4_kernel_file, capsys):
        out, curves = tmp_path / "o.json", tmp_path / "c.csv"
        argv = ["optimize", str(n4_kernel_file), str(out), "--curves-out", str(curves)]
        assert main([*argv, f"--curves-samples={10**15}"]) == 5
        assert capsys.readouterr().err.startswith("error: cannot allocate memory")
        assert not out.exists()
        assert not curves.exists()
        assert not (tmp_path / "o.json.manifest.json").exists()

    @pytest.mark.parametrize("command", ["decompose", "optimize", "fisher", "field2d", "simulate"])
    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_non_finite_offset_exit_5(self, tmp_path, n4_kernel_file, capsys, command, offset):
        # checked for every command before any file is read: simulate never opens its missing config
        out = tmp_path / "out"
        argv = {
            "decompose": ["decompose", str(n4_kernel_file), str(out)],
            "optimize": ["optimize", str(n4_kernel_file), str(out), "--curves-out", str(tmp_path / "c.csv")],
            "fisher": ["fisher", str(n4_kernel_file), str(out)],
            "field2d": ["field2d", str(n4_kernel_file), str(out), str(tmp_path / "f.csv"), "--k", "1"],
            "simulate": ["simulate", str(tmp_path / "missing.json"), str(out)],
        }[command]
        assert main([f"--offset={offset}", *argv]) == 5
        assert "--offset" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [n4_kernel_file.name]

    @pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
    def test_non_finite_phase_shift_exit_5(self, tmp_path, n4_kernel_file, capsys, shift):
        assert self.run(tmp_path, n4_kernel_file, "field2d", f"--phase-shift={shift}") == 5
        assert "--phase-shift" in capsys.readouterr().err

    @pytest.mark.parametrize("select", [["--k", "2"], ["--optimal"]], ids=["k2", "optimal"])
    def test_phase_shift_overflowing_at_the_largest_frequency_exit_5(self, tmp_path, capsys, select):
        # 1e308 is finite, but the y axis moves the frequency-2 phase by 2e308 = inf
        kernel = write_kernel(tmp_path / "torus15.json", 15, TestGoldenOutputs.TORUS_VALUES)
        argv = ["field2d", str(kernel), str(tmp_path / "f.pgm"), str(tmp_path / "f.csv"), *select]
        assert main([*argv, "--phase-shift", "1e308", "--res", "8"]) == 5
        assert "--phase-shift" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["torus15.json"]

    def test_phase_shift_overflow_names_the_shift_and_the_frequency(self, tmp_path, capsys):
        kernel = write_kernel(tmp_path / "k8.json", 8, [1.0, 0.45, 0.2, 0.1, 0.05])
        argv = ["field2d", str(kernel), str(tmp_path / "a.pgm"), str(tmp_path / "a.csv"), "--k", "2"]
        assert main([*argv, "--phase-shift", "1e308"]) == 5
        assert "--phase-shift 1e+308 times frequency 2 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("shift, code", [("3e15", 5), ("-3e15", 5), ("1e15", 0)])
    def test_phase_shift_bounded_by_2_pow_52_over_the_frequency(self, tmp_path, capsys, shift, code):
        # at frequency 2, a shift of 3e15 moves the y phase past 2**52, where doubles lie 1 rad apart
        kernel = write_kernel(tmp_path / "k8.json", 8, [1.0, 0.45, 0.2, 0.1, 0.05])
        outputs = [tmp_path / "a.pgm", tmp_path / "a.csv"]
        argv = ["field2d", str(kernel), *map(str, outputs), "--k", "2", "--res", "8"]
        assert main([*argv, f"--phase-shift={shift}"]) == code
        if code:
            assert f"--phase-shift {float(shift)!r} times frequency 2" in capsys.readouterr().err
        assert all(path.exists() for path in outputs) == (code == 0)

    @pytest.mark.parametrize(
        "command", [["decompose"], ["optimize", "--audit-trials", "5"]], ids=["decompose", "optimize"]
    )
    def test_negative_seed_exit_5(self, tmp_path, n4_kernel_file, capsys, command):
        out = tmp_path / "out"
        assert main(["--seed", "-1", command[0], str(n4_kernel_file), str(out), *command[1:]]) == 5
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernel", [
        None, {"n": 8, "family": "gaussian", "params": {"length": 2.0}}, {"n": 8, "family": "mystery"},
    ], ids=["missing-2", "not-psd-3", "malformed-2"])
    @pytest.mark.parametrize("flag", [["--power", "-1"], ["--theta-samples", "0"]], ids=["power", "theta-samples"])
    def test_bad_flag_beside_a_bad_kernel_exit_5(self, tmp_path, capsys, kernel, flag):
        # the flag is checked before the kernel file is read; the id names the kernel's own exit code
        kernel_file = tmp_path / "kernel.json"
        if kernel is not None:
            kernel_file.write_text(json.dumps(kernel))
        assert self.run(tmp_path, kernel_file, "fisher", *flag) == 5
        assert capsys.readouterr().err.startswith(f"error: {flag[0]} must be ")

    @pytest.mark.parametrize("argv, code", [
        (["fisher", "kernel.json", "f.json", "--k", "0"], 5),
        (["fisher", "kernel.json", "f.json", "--k", "-1"], 5),
        (["fisher", "kernel.json", "f.json", "--k", "2"], 5),
        (["field2d", "kernel.json", "f.pgm", "f.csv", "--k", "2"], 5),
        (["field2d", "kernel.json", "f.pgm", "f.csv", "--k", "1", "--res", "7"], 5),
        (["simulate", "frequency-0.json", "r.json"], 6),
        (["simulate", "frequency-2.json", "r.json"], 6),
    ], ids=["fisher-k-0", "fisher-k-minus1", "fisher-k-half-n", "field2d-k-unpaired", "field2d-res-7",
            "simulate-frequency-0", "simulate-unpaired"])
    def test_value_out_of_range_exit_code(self, tmp_path, n4_kernel_file, capsys, monkeypatch, argv, code):
        # on the n = 4 ring only frequency 1 is paired
        for frequency in (0, 2):
            (tmp_path / f"frequency-{frequency}.json").write_text(json.dumps({
                "kernel_file": "kernel.json", "trials": 200,
                "allocation": [{"frequency": frequency, "amplitude": 1.0}],
            }))
        before = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("frequency, message", [
        (0, "allocation frequencies must be >= 1, got 0"),
        (2, "frequency 2 is not a paired mode of the n=4 ring (paired: 1..1)"),
    ], ids=["frequency-0", "unpaired"])
    def test_simulate_frequency_out_of_range_message(self, tmp_path, n4_kernel_file, capsys, frequency, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel_file": "kernel.json", "allocation": [{"frequency": frequency, "amplitude": 1.0}]}))
        assert main(["simulate", str(config), str(tmp_path / "r.json")]) == 6
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_fisher_k_0_names_the_allocation_range(self, tmp_path, n4_kernel_file, capsys):
        assert main(["fisher", str(n4_kernel_file), str(tmp_path / "f.json"), "--k", "0"]) == 5
        assert capsys.readouterr().err == "error: allocation frequencies must be >= 1, got 0\n"

    def test_zero_audit_trials_still_skips_the_audit(self, tmp_path, n4_kernel_file):
        out = tmp_path / "o.json"
        assert main(["optimize", str(n4_kernel_file), str(out), "--audit-trials", "0"]) == 0


class TestOverflowingResults:
    """Accepted --power and --offset values whose results overflow: exit 5, no file and no
    Python warning, or, when only the graymap's scaling overflowed, the exact image."""

    @pytest.fixture
    def kernel(self, tmp_path):
        kernel = tmp_path / "K.json"
        kernel.write_text(json.dumps({"n": 64, "family": "exponential", "params": {"c0": 1.0, "rho": 0.5}}))
        return kernel

    @staticmethod
    def run(argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        return code

    @pytest.mark.parametrize(
        "argv, flag, keys",
        [
            (
                ["--offset", "1.7e308", "field2d", "K.json", "g.pgm", "g.csv", "--k", "2", "--res", "8"],
                "--offset 1.7e+308",
                "field max = inf",
            ),
            (["fisher", "K.json", "o.json", "--power", "1e308"], "--power 1e+308", "fi_spectral = inf"),
            (["fisher", "K.json", "o.json", "--dim", "2", "--power", "1e200"], "--power 1e+200", "i_x = inf"),
            (["fisher", "K.json", "o.json", "--dim", "2", "--power", "1e-200"], "--power 1e-200", "minimum_variance = inf"),
            (["optimize", "K.json", "o.json", "--power", "1e308"], "--power 1e+308", "search.achieved_fi = inf"),
            (["optimize", "K.json", "o.json", "--power", "1e-320"], "--power 1e-320", "fisher.crb = inf"),
        ],
        ids=["field2d-offset", "fisher-1d", "fisher-2d-large", "fisher-2d-small", "optimize-large", "optimize-small"],
    )
    def test_non_finite_result_exit_5(self, tmp_path, kernel, capsys, argv, flag, keys):
        assert self.run([str(tmp_path / a) if a.endswith((".json", ".pgm", ".csv")) else a for a in argv]) == 5
        err = capsys.readouterr().err
        assert "error: the result is not finite at --power" in err and flag in err and keys in err
        assert "Warning" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["K.json"]

    @pytest.mark.parametrize(
        "command, keys",
        [("optimize", "fisher.crb = inf"), ("fisher", "crb = inf")],
        ids=["optimize", "fisher"],
    )
    def test_zero_information_exit_5(self, tmp_path, capsys, command, keys):
        # lambda_1 of this kernel exceeds 1, so the smallest power over it rounds to 0
        kernel = tmp_path / "K10.json"
        kernel.write_text(json.dumps({"n": 8, "family": "exponential", "params": {"c0": 10, "rho": 0.5}}))
        assert self.run([command, str(kernel), str(tmp_path / "o.json"), "--power", "5e-324"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: the result is not finite at --power 5e-324: ") and keys in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["K10.json"]

    def test_graymap_of_a_finite_field_whose_range_overflows_is_exact(self, tmp_path, kernel, capsys):
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        argv = ["field2d", str(kernel), str(pgm), str(csv_out), "--k", "3", "--power", "1e308", "--res", "8"]
        assert self.run(argv) == 0
        assert "Warning" not in capsys.readouterr().err
        field = read_field_csv(csv_out)
        lo, hi = float(field.min()), float(field.max())
        assert np.isfinite(field).all() and not math.isfinite(255.0 * (hi - lo))
        pixels = np.frombuffer(pgm.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        lo, hi = Fraction(lo), Fraction(hi)
        expected = [round(255 * (Fraction(f) - lo) / (hi - lo)) for f in field.ravel().tolist()]
        assert pixels.tolist() == expected
        assert {186, 218, 255} <= set(expected)


class TestFailedRunOutputs:
    """A failed command removes every output file it created and leaves files that were there."""

    @pytest.mark.parametrize(
        "parent, message",
        [("missing", "No such file or directory"), ("kernel.json", "Not a directory")],
        ids=["missing-directory", "under-a-file"],
    )
    @pytest.mark.parametrize("command", ["optimize", "field2d", "simulate"])
    def test_unwritable_second_output_exit_2(self, tmp_path, n4_kernel_file, capsys, command, parent, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel_file": "kernel.json", "trials": 200}))
        k, unwritable = str(n4_kernel_file), tmp_path / parent
        argv = {
            "optimize": ["optimize", k, str(tmp_path / "o.json"), "--curves-out", str(unwritable / "c.csv")],
            "field2d": ["field2d", k, str(tmp_path / "f.pgm"), str(unwritable / "f.csv"), "--k", "1", "--res", "8"],
            "simulate": ["simulate", str(config), str(tmp_path / "r.json"), "--dump-trials", str(unwritable / "t.csv")],
        }[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "kernel.json"]

    def test_existing_outputs_keep_their_bytes(self, tmp_path, n4_kernel_file, capsys):
        out, manifest = tmp_path / "f.json", tmp_path / "f.json.manifest.json"
        out.write_bytes(b"earlier report\n")
        manifest.write_bytes(b"earlier manifest\n")
        assert main(["fisher", str(n4_kernel_file), str(out), "--power", "-1"]) == 5
        assert "--power" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier report\n"
        assert manifest.read_bytes() == b"earlier manifest\n"

    def test_failure_after_the_first_output_keeps_every_existing_byte(self, tmp_path, n4_kernel_file, capsys):
        out, manifest = tmp_path / "o.json", tmp_path / "o.json.manifest.json"
        assert main(["optimize", str(n4_kernel_file), str(out)]) == 0
        before = {path: path.read_bytes() for path in (out, manifest)}
        curves = tmp_path / "missing" / "c.csv"
        assert main(["optimize", str(n4_kernel_file), str(out), "--dim", "2", "--curves-out", str(curves)]) == 2
        assert f"No such file or directory: '{curves}'" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kernel.json", "o.json", "o.json.manifest.json"]

    def test_parameter_error_precedes_an_unwritable_output(self, tmp_path, n4_kernel_file):
        argv = ["optimize", str(n4_kernel_file), str(tmp_path / "o.json"), "--power", "-1",
                "--curves-out", str(tmp_path / "missing" / "c.csv")]
        assert main(argv) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kernel.json"]

    def test_symlinked_output_updates_its_target(self, tmp_path, n4_kernel_file):
        target, link = tmp_path / "real" / "f.json", tmp_path / "f.json"
        target.parent.mkdir()
        target.write_bytes(b"earlier report\n")
        link.symlink_to(target)
        assert main(["fisher", str(n4_kernel_file), str(link)]) == 0
        assert link.is_symlink() and json.loads(target.read_text())["fi_spectral"] == pytest.approx(4.0 / 3.0)
        manifest = json.loads((tmp_path / "f.json.manifest.json").read_text())
        assert manifest["outputs"] == {str(link): rio.sha256_file(target)}
        assert sorted(p.name for p in target.parent.iterdir()) == ["f.json"]

    def test_symlink_loop_output_exit_2_and_stays_a_link(self, tmp_path, n4_kernel_file, capsys):
        loop = tmp_path / "f.json"
        loop.symlink_to(loop)
        assert main(["fisher", str(n4_kernel_file), str(loop)]) == 2
        assert f"Too many levels of symbolic links: '{loop}'" in capsys.readouterr().err
        assert loop.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "kernel.json"]

    def test_staging_names_skip_existing_files(self, tmp_path, n4_kernel_file, monkeypatch):
        # the first staging name drawn is taken by a file the run must not touch
        taken = tmp_path / f".ringfisher-{bytes(6).hex()}.tmp"
        taken.write_bytes(b"someone else's\n")
        for power in ("1", "-1"):
            draws = iter(range(100))
            monkeypatch.setattr("os.urandom", lambda size: next(draws).to_bytes(size, "big"))
            main(["fisher", str(n4_kernel_file), str(tmp_path / "f.json"), "--power", power])
            assert taken.read_bytes() == b"someone else's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [taken.name, "f.json", "f.json.manifest.json", "kernel.json"]
        )

    def test_interrupt_removes_the_files_written_so_far(self, tmp_path, monkeypatch):
        def interrupt(estimates, path):
            raise KeyboardInterrupt

        monkeypatch.setattr(rio, "write_trials_csv", interrupt)
        out = tmp_path / "r.json"
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", demo_config_path(), str(out), "--dump-trials", str(tmp_path / "t.csv")])
        assert list(tmp_path.iterdir()) == []


class TestManifests:
    def test_outputs_listed_with_digests(self, tmp_path, n4_kernel_file):
        out = tmp_path / "decomp.csv"
        main(["decompose", str(n4_kernel_file), str(out)])
        manifest = json.loads((tmp_path / "decomp.csv.manifest.json").read_text())
        assert str(out) in manifest["outputs"]
        assert manifest["outputs"][str(out)] == rio.sha256_file(out)
        assert str(n4_kernel_file) in manifest["inputs"]
        assert manifest["command"] == "decompose"

    def test_simulate_lists_the_kernel_file_it_read(self, tmp_path, n4_kernel_file):
        config = tmp_path / "configs" / "sim.json"
        config.parent.mkdir()
        config.write_text(json.dumps({"kernel_file": f"../{n4_kernel_file.name}", "trials": 100, "seed": 1}))
        assert main(["simulate", str(config), str(tmp_path / "r.json")]) == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        kernel = config.parent / f"../{n4_kernel_file.name}"
        assert manifest["inputs"] == {
            str(config): rio.sha256_file(config),
            str(kernel): rio.sha256_file(n4_kernel_file),
        }
        # an inline kernel is part of the config, so the config is the only input
        config.write_text(json.dumps({"kernel": json.loads(n4_kernel_file.read_text()), "trials": 100, "seed": 1}))
        assert main(["simulate", str(config), str(tmp_path / "r.json")]) == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["inputs"] == {str(config): rio.sha256_file(config)}

    def test_simulate_reads_each_input_once(self, tmp_path, n4_kernel_file, monkeypatch):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"kernel_file": n4_kernel_file.name, "trials": 100, "seed": 1}))
        read, reads = rio.read_json_object, []
        monkeypatch.setattr(rio, "read_json_object", lambda path, noun: reads.append(path) or read(path, noun))
        assert main(["simulate", str(config), str(tmp_path / "r.json")]) == 0
        assert reads == [config, n4_kernel_file]

    def test_repeat_runs_reproduce_digests(self, tmp_path, n4_kernel_file):
        out = tmp_path / "opt.json"
        main(["optimize", str(n4_kernel_file), str(out), "--audit-trials", "500"])
        first = (tmp_path / "opt.json.manifest.json").read_text()
        main(["optimize", str(n4_kernel_file), str(out), "--audit-trials", "500"])
        assert (tmp_path / "opt.json.manifest.json").read_text() == first
        # simulate: the manifest holds the digests of the result JSON and the trial dump
        for mode in ("known_reference", "two_snapshot"):
            for estimator in ("local_linear", "phase"):
                config = tmp_path / f"{mode}-{estimator}.json"
                config.write_text(json.dumps({
                    "kernel_file": n4_kernel_file.name, "allocation": "optimal", "trials": 300,
                    "seed": 9, "mode": mode, "estimator": estimator,
                }))
                out, dump = tmp_path / "r.json", tmp_path / "trials.csv"
                manifests = []
                for _ in range(2):
                    assert main(["simulate", str(config), str(out), "--dump-trials", str(dump)]) == 0
                    manifests.append((tmp_path / "r.json.manifest.json").read_text())
                assert manifests[0] == manifests[1], (mode, estimator)


    def test_repeat_curves_runs_reproduce_bytes(self, tmp_path, n4_kernel_file):
        outputs = []
        for run in ("a", "b"):
            out, curves = tmp_path / f"opt-{run}.json", tmp_path / "curves.csv"
            argv = ["--offset", "0.25", "optimize", str(n4_kernel_file), str(out),
                    "--curves-out", str(curves), "--curves-samples", "33"]
            assert main(argv) == 0
            manifest = json.loads((tmp_path / f"opt-{run}.json.manifest.json").read_text())
            outputs.append((curves.read_bytes(), out.read_bytes(), manifest["outputs"]))
        assert outputs[0][:2] == outputs[1][:2]
        assert list(outputs[0][2].values()) == list(outputs[1][2].values())


    def test_repeat_field2d_runs_reproduce_bytes(self, tmp_path, n4_kernel_file):
        pgm, csv_out = tmp_path / "f.pgm", tmp_path / "f.csv"
        argv = ["field2d", str(n4_kernel_file), str(pgm), str(csv_out), "--optimal", "--res", "24",
                "--neuron", "1", "3", "--phase-shift", "0.3"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append([p.read_bytes() for p in (pgm, csv_out, tmp_path / "f.pgm.manifest.json")])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "command, flag, values",
        [
            ("optimize", "--curves-samples", ("256", "255")),
            ("optimize", "--offset", ("0.25", "0.5")),
            ("optimize", "--audit-trials", ("0", "50")),
            ("fisher", "--theta-samples", ("64", "63")),
            ("field2d", "--phase-shift", ("0", "0.3")),
        ],
    )
    def test_settings_differ_when_one_flag_does(self, tmp_path, n4_kernel_file, command, flag, values):
        out = tmp_path / "out"
        argv = {
            "optimize": ["optimize", str(n4_kernel_file), str(out), "--curves-out", str(tmp_path / "c.csv")],
            "fisher": ["fisher", str(n4_kernel_file), str(out)],
            "field2d": ["field2d", str(n4_kernel_file), str(out), str(tmp_path / "f.csv"), "--k", "1"],
        }[command]
        settings = []
        for value in values:
            # --offset is a global flag, so it goes before the command
            flags = [f"{flag}={value}"]
            assert main(flags + argv if flag == "--offset" else argv + flags) == 0
            settings.append(json.loads((tmp_path / "out.manifest.json").read_text())["settings"])
        assert settings[0] != settings[1]
        assert {k for k in settings[0] if settings[0][k] != settings[1][k]} == {
            flag.lstrip("-").replace("-", "_")
        }


class TestGoldenOutputs:
    """Output bytes of the CSV, graymap and JSON writers pinned by SHA-256 digests.

    Small fixed inputs (n <= 16, res 16). The digests change only if a number
    or its text form changes; a deliberate change of either updates them.
    """

    # n = 15, the spectrum 1.3, 1.4, 0.3, 0.9, ... rounded to six decimals:
    # lambda_2 is the smallest paired eigenvalue, so --optimal renders frequency 2
    TORUS_VALUES = [1.046667, -0.065216, 0.114345, 0.111989, 0.100123, 0.026667, -0.051989, -0.109253]

    CASES = {
        "decompose": (
            ["decompose", "{exp16}", "{out}/decomp.csv"],
            {"decomp.csv": "b7474adc210a35de7efbb514df37b3d214463964786b28e9838ce61204110c48"},
        ),
        "optimize-curves": (
            ["--offset", "0.5", "optimize", "{torus15}", "{out}/opt.json",
             "--curves-out", "{out}/curves.csv", "--curves-samples", "16"],
            {"curves.csv": "d56f4a11b47cf431c341207da65f6d1dacebea4f4bd061c165bab27b9b4c2441"},
        ),
        "fisher-torus": (
            ["fisher", "{torus15}", "{out}/fisher.json", "--dim", "2"],
            {"fisher.json": "8302f9a4117906d74c6472ab8821faf54c442ae857778b4180d7533764eb514f"},
        ),
        # exp16's spectral orderings disagree, so the torus optimum is a vertex_edge search
        "optimize-torus-audit": (
            ["--seed", "3", "optimize", "{exp16}", "{out}/opt2.json", "--dim", "2", "--audit-trials", "200"],
            {"opt2.json": "038b776733ff981eea45adf986c2927d03e4959a485ad3e8b179916f78486889"},
        ),
        "field2d-optimal": (
            ["field2d", "{torus15}", "{out}/f.pgm", "{out}/f.csv", "--optimal", "--res", "16"],
            {
                "f.pgm": "fabe75e3e9d0d1024a9d6c272df771223c3823932258f1974217adc4bbee2cc3",
                "f.csv": "f3fd28e4f8bbc1483385adcc7a67d697ef05d3fed9b673617dcf6eeb84f5ff61",
            },
        ),
        "field2d-signed": (
            ["--offset", "0", "field2d", "{ring8}", "{out}/s.pgm", "{out}/s.csv",
             "--k", "2", "--res", "16", "--neuron", "3", "5"],
            {
                "s.pgm": "58a95dbab3bbf04f49e432f11422bfd4a01f7bbd76c5aba2399b6e2a8390d8f2",
                "s.csv": "b17f1107994e914d5ad02bcee3782f5e91e1e567ce6b2de2ea034e74f5f6c5e2",
            },
        ),
        "simulate-dump": (
            ["simulate", "{sim}", "{out}/r.json", "--dump-trials", "{out}/trials.csv"],
            {"trials.csv": "0266450796f2eb080afcf18f0898361c4d8a2748bff3212bc952af150abab8c4"},
        ),
        # two active frequencies: pins the (trials, 2m) layout of the coefficient draws
        "simulate-two-freq": (
            ["simulate", "{sim_two_freq}", "{out}/r.json", "--dump-trials", "{out}/trials.csv"],
            {
                "r.json": "a6bb5a8db114fac4105bc1a19a6f9e9485c374db025f044af1091f5f933dcb1b",
                "trials.csv": "a311a31813c1b16785c778133523d1fe6af8ee9930b537a141ddc61d0219b4e8",
            },
        ),
        "simulate-phase-known": (
            ["simulate", "{sim_phase_known}", "{out}/r.json", "--dump-trials", "{out}/trials.csv"],
            {
                "r.json": "9824e98bde17b31c13b45933c1c8c5e97e99bb0ef65ab0f17a507ce612011d82",
                "trials.csv": "34e90e683a789b0afe06bd11dc3597de54aee15a064ccd24b4cae09b2526ce36",
            },
        ),
        "simulate-phase-two": (
            ["simulate", "{sim_phase_two}", "{out}/r.json", "--dump-trials", "{out}/trials.csv"],
            {
                "r.json": "82666964d7899a8f58190171d1db1e22dc8f75ff359944efc3c9998abbd9b0b7",
                "trials.csv": "51613b57000ae1763f40f97e5843ca38821a186f4893604ba0fc09cf158a74e1",
            },
        ),
    }

    #: simulate configs on the ring8 kernel, by path key: extra fields over the local_linear default
    SIM_CONFIGS = {
        "sim": {},
        "sim_two_freq": {
            "allocation": [
                {"frequency": 1, "amplitude": 0.8, "phase": 0.4},
                {"frequency": 3, "amplitude": 0.6, "phase": 1.1},
            ],
            "mode": "two_snapshot",
            "theta0": 0.7,
        },
        "sim_phase_known": {"estimator": "phase"},
        "sim_phase_two": {"estimator": "phase", "mode": "two_snapshot"},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_digests(self, tmp_path, capsys, case):
        inputs = tmp_path / "in"
        inputs.mkdir()
        paths = {
            "exp16": inputs / "exp16.json",
            "torus15": write_kernel(inputs / "torus15.json", 15, self.TORUS_VALUES),
            "ring8": write_kernel(inputs / "ring8.json", 8, [1.0, 0.45, 0.2, 0.1, 0.05]),
            "out": tmp_path,
        }
        paths["exp16"].write_text(
            json.dumps({"n": 16, "family": "exponential", "params": {"c0": 1.0, "rho": 0.6}})
        )
        for key, extra in self.SIM_CONFIGS.items():
            paths[key] = inputs / f"{key}.json"
            paths[key].write_text(
                json.dumps({"kernel_file": "ring8.json", "allocation": "optimal", "trials": 100, "seed": 5, **extra})
            )
        argv, digests = self.CASES[case]
        assert main([arg.format(**paths) for arg in argv]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestCliPlumbing:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("decompose", []),
            ("optimize", ["--dim", "--power", "--audit-trials", "--curves-out"]),
            ("fisher", ["--dim", "--power", "--k", "--theta-samples"]),
            ("field2d", ["--k", "--optimal", "--res", "--power", "--neuron"]),
            ("simulate", ["--dump-trials"]),
        ],
    )
    def test_help_lists_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text

    def test_global_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for flag in ("--seed", "--out-dir", "--offset"):
            assert flag in text
        assert "--threads" not in text

    def test_threads_flag_rejected(self, n4_kernel_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--threads", "1", "decompose", str(n4_kernel_file), str(tmp_path / "o.csv")])
        assert excinfo.value.code == 2

    def test_out_dir_prefixes_relative_paths(self, tmp_path, n4_kernel_file, monkeypatch):
        outdir = tmp_path / "artifacts"
        outdir.mkdir()
        assert main(["--out-dir", str(outdir), "decompose", str(n4_kernel_file), "decomp.csv"]) == 0
        assert (outdir / "decomp.csv").exists()


class TestEntryPoint:
    """``python -m ringfisher`` behaves exactly as ``main`` called in process with the same argv."""

    INPUTS = {
        "kernel.json": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
        "bad.json": {"n": 4, "family": "explicit", "params": {"values": [1.0, 1.2, 0.0]}},
        "white.json": {"n": 8, "family": "explicit", "params": {"values": [1.0, 0, 0, 0, 0]}},
        "sim.json": {
            "kernel": {"n": 4, "family": "explicit", "params": {"values": [1.0, 0.5, 0.25]}},
            "allocation": "optimal", "trials": 200, "seed": 3, "mode": "two_snapshot", "estimator": "phase",
        },
        "badsim.json": {"kernel_file": "kernel.json", "allocation": "optimal", "trials": 200, "estimator": "oracle"},
    }

    #: case -> (argv, exit status)
    CASES = {
        "decompose": (["decompose", "kernel.json", "decomp.csv"], 0),
        "optimize": (["optimize", "kernel.json", "opt.json", "--curves-out", "c.csv", "--curves-samples", "16"], 0),
        "optimize-tie-warning": (["optimize", "white.json", "tie.json"], 0),
        "fisher": (["fisher", "kernel.json", "fisher.json", "--dim", "2"], 0),
        "field2d": (["field2d", "kernel.json", "f.pgm", "f.csv", "--optimal", "--res", "16"], 0),
        "simulate": (["--seed", "5", "simulate", "sim.json", "sim-out.json", "--dump-trials", "trials.csv"], 0),
        "exit-2-missing-input": (["decompose", "missing.json", "o.csv"], 2),
        "exit-3-invalid-covariance": (["decompose", "bad.json", "o.csv"], 3),
        "exit-4-condition-violated": (["field2d", "violated.json", "v.pgm", "v.csv", "--optimal"], 4),
        "exit-5-resolution": (["field2d", "kernel.json", "r.pgm", "r.csv", "--k", "1", "--res", "7"], 5),
        "exit-6-estimator": (["simulate", "badsim.json", "r.json"], 6),
        "help": (["--help"], 0),
        "usage-error": (["decompose"], 2),
    }

    def _workdir(self, path):
        path.mkdir()
        for name, payload in self.INPUTS.items():
            (path / name).write_text(json.dumps(payload))
        spectrum_kernel_file(path, 6, [1.2, 1.0, 0.5, 0.8], name="violated.json")
        return path

    @staticmethod
    def _files(path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_module_run_matches_in_process_main(self, case, tmp_path, monkeypatch, capsys):
        argv, expected_code = self.CASES[case]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text at the terminal width
        env = dict(os.environ)
        package_root = str(Path(ringfisher.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        child_dir, local_dir = self._workdir(tmp_path / "child"), self._workdir(tmp_path / "local")
        child = subprocess.run(
            [sys.executable, "-m", "ringfisher", *argv], cwd=child_dir, env=env, capture_output=True, text=True
        )

        monkeypatch.chdir(local_dir)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert gc.get_freeze_count() == 0
        local = capsys.readouterr()

        assert code == expected_code
        assert (child.returncode, child.stdout, child.stderr) == (code, local.out, local.err)
        files = self._files(child_dir)
        assert files == self._files(local_dir)
        if case in _OUTPUT_ARGS:  # the five commands' successful runs compare written files
            assert any(name.endswith(".manifest.json") for name in files)
