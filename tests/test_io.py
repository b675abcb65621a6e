"""File formats: kernel parsing, CSV roundtrips, graymap output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringfisher
from ringfisher import io as rio
from ringfisher.errors import MalformedKernelError
from ringfisher.spectral import decompose
from ringfisher.tuning import optimal_tuning_1d


class TestKernelFiles:
    def test_explicit_roundtrip(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(
            json.dumps({"n": 6, "family": "explicit", "params": {"values": [1, 0.4, 0.1, 0.05]}})
        )
        kernel = rio.load_kernel(path)
        assert kernel.n == 6
        assert kernel.values == (1.0, 0.4, 0.1, 0.05)

    @pytest.mark.parametrize(
        "payload",
        [
            {"family": "explicit", "params": {"values": [1, 0, 0]}},  # missing n
            {"n": 4.5, "family": "explicit", "params": {"values": [1, 0, 0]}},
            {"n": 4, "family": "mystery", "params": {}},
            {"n": 4, "family": "explicit", "params": {"values": "nope"}},
            [1, 2, 3],
        ],
    )
    def test_malformed_definitions_rejected(self, tmp_path, payload):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedKernelError):
            rio.load_kernel(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(MalformedKernelError):
            rio.load_kernel(tmp_path / "missing.json")


class TestCsvFormats:
    def test_field_roundtrip(self, tmp_path, rng):
        field = rng.normal(size=(9, 9))
        path = tmp_path / "field.csv"
        rio.write_field_csv(field, path)
        np.testing.assert_array_equal(rio.read_field_csv(path), field)

    def test_curves_header_and_offset(self, tmp_path, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        path = tmp_path / "curves.csv"
        rio.write_curves_csv(pop, path, samples=16, offset=1.5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,neuron_0,neuron_1,neuron_2,neuron_3"
        assert len(lines) == 17
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    def test_decomposition_columns(self, tmp_path, n6_decomp):
        path = tmp_path / "decomp.csv"
        rio.write_decomposition_csv(n6_decomp, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1].startswith("0,") and lines[1].endswith(",false")
        assert lines[2].endswith(",true")


class TestPgm:
    def test_header_and_range(self, tmp_path, rng):
        field = rng.normal(size=(16, 32))
        path = tmp_path / "field.pgm"
        rio.write_pgm(field, path)
        data = path.read_bytes()
        header, raster = data.split(b"255\n", 1)
        assert header == b"P5\n32 16\n"
        assert len(raster) == 16 * 32
        pixels = np.frombuffer(raster, dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_constant_field_is_black(self, tmp_path):
        path = tmp_path / "flat.pgm"
        rio.write_pgm(np.ones((8, 8)), path)
        raster = path.read_bytes().split(b"255\n", 1)[1]
        assert set(raster) == {0}


def test_module_entry_point_help():
    # the child interpreter imports the same package as this one, installed or not
    package_root = str(Path(ringfisher.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ringfisher", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "decompose" in proc.stdout and "simulate" in proc.stdout
