"""File formats: kernel parsing, CSV roundtrips, graymap output."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

import conftest
import ringfisher
from ringfisher import io as rio
from ringfisher.errors import MalformedKernelError
from ringfisher.spectral import TWO_PI, decompose, exponential_kernel
from ringfisher.tuning import (
    AllocationEntry,
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    _lattice_waveform,
    optimal_tuning_1d,
    sample_firing_field,
)

from conftest import (
    csv_module_curves_csv,
    csv_module_field_csv,
    exact_pgm,
    mean_response,
    read_field_csv,
    white_kernel,
    whole_array_pgm,
)

#: Values whose text form is easy to get wrong: signed zeros, infinities, nan,
#: subnormals, the repr switch to exponent notation, and integral floats.
EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225e-308,
    1e-5, 1e-4, 1e16, 1e22, -1e22, 1e16 + 2.0, 3.0, -7.0, 2.0**53, 0.1,
]

float_elements = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def axis_curves(draw, elements):
    """(cx, cy): two curves of 1-40 samples each; either may be constant."""
    def curve():
        size = draw(st.integers(1, 40))
        if draw(st.booleans()):
            return np.full(size, draw(elements))
        return draw(hnp.arrays(np.float64, size, elements=elements))

    return curve(), curve()


@st.composite
def pooled_axis_curves(draw):
    """(cx, cy) drawn from one pool of at most 5 values, so most rows and columns repeat;
    the shapes include 1 x 1, 1 x 40 and 40 x 1."""
    pool = draw(st.lists(float_elements, min_size=1, max_size=5))
    shape = draw(st.one_of(
        st.sampled_from([(1, 1), (1, 40), (40, 1)]), st.tuples(st.integers(1, 40), st.integers(1, 40))
    ))
    return tuple(
        np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))) for size in shape
    )


#: Signed, finite curve values with zeros of both signs, subnormals and repeats.
pgm_elements = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 3.0, -3.0]), st.floats(-1e6, 1e6)
)


@st.composite
def wide_axis_curves(draw):
    """``axis_curves(pgm_elements)``, each non-zero curve scaled to a largest magnitude of
    2**e, the two exponents summing to 1008..1024: the field's largest magnitude is 2**1008
    to 2**1024, so its range, 255 times it and the field itself may overflow."""
    total = draw(st.sampled_from(range(1008, 1025)))
    return tuple(
        c / np.abs(c).max() * 2.0**e if np.abs(c).max() > 0 else c
        for c, e in zip(draw(axis_curves(pgm_elements)), (total // 2, total - total // 2))
    )
byte_oracle_settings = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def traced_peak_bytes(call) -> int:
    """Peak traced allocation while ``call()`` runs, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read {noun} {path}: [Errno 2]"),
            (b"{", "cannot read {noun} {path}: Expecting property name"),
            (b"\xff\xfe", "cannot read {noun} {path}: 'utf-8' codec can't decode"),
            (b"[1, 2]", "{noun} must hold a JSON object"),
        ],
        ids=["missing", "bad-json", "not-utf8", "list"],
    )
    @pytest.mark.parametrize("noun", ["kernel file", "simulation config"])
    def test_json_object_reader_names_the_file(self, tmp_path, content, message, noun):
        path = tmp_path / "definition.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(MalformedKernelError) as excinfo:
            rio.read_json_object(path, noun)
        assert str(excinfo.value).startswith(message.format(noun=noun, path=path))


class TestCsvFormats:
    def test_field_roundtrip(self, tmp_path, rng):
        cx, cy = rng.normal(size=9), rng.normal(size=7)
        path = tmp_path / "field.csv"
        rio.write_field_csv(cx, cy, path)
        np.testing.assert_array_equal(read_field_csv(path), np.outer(cx, cy))

    def test_curves_header_and_offset(self, tmp_path, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        path = tmp_path / "curves.csv"
        rio.write_curves_csv(pop, path, samples=16, offset=1.5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,neuron_0,neuron_1,neuron_2,neuron_3"
        assert len(lines) == 17
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    def test_trials_rows_end_in_lf_with_shortest_repr(self, tmp_path):
        path = tmp_path / "trials.csv"
        rio.write_trials_csv(np.array([0.1, -0.0, 1e-300]), path)
        assert path.read_bytes() == b"trial,estimate\n0,0.1\n1,-0.0\n2,1e-300\n"

    def test_decomposition_columns(self, tmp_path, n6_decomp):
        path = tmp_path / "decomp.csv"
        rio.write_decomposition_csv(n6_decomp, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1].startswith("0,") and lines[1].endswith(",false")
        assert lines[2].endswith(",true")


class TestCsvBytes:
    """The CSV writers emit the bytes of the csv-module writers they replaced."""

    @byte_oracle_settings
    @given(curves=axis_curves(float_elements))
    def test_field_bytes_equal_csv_module(self, tmp_path, curves):
        with np.errstate(invalid="ignore", over="ignore"):
            rio.write_field_csv(*curves, tmp_path / "fast.csv")
            csv_module_field_csv(*curves, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @byte_oracle_settings
    @given(curves=pooled_axis_curves())
    def test_field_bytes_equal_csv_module_when_rows_and_columns_repeat(self, tmp_path, curves):
        with np.errstate(invalid="ignore", over="ignore"):
            rio.write_field_csv(*curves, tmp_path / "fast.csv")
            csv_module_field_csv(*curves, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (40, 40)])
    def test_repeated_edge_values_equal_csv_module(self, tmp_path, rng, shape):
        # pools with both zeros, NaN, an infinity and a subnormal, so rows and columns repeat
        cx = rng.choice([0.0, -0.0, math.nan, 5e-324, -math.inf], shape[0])
        cy = rng.choice([-0.0, 0.0, math.inf, -5e-324, 2.5], shape[1])
        with np.errstate(invalid="ignore"):
            rio.write_field_csv(cx, cy, tmp_path / "fast.csv")
            csv_module_field_csv(cx, cy, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @byte_oracle_settings
    @given(samples=st.integers(1, 40), n=st.integers(1, 40), offset=float_elements, data=st.data())
    def test_curves_bytes_equal_csv_module(self, tmp_path, samples, n, offset, data):
        # both writers read one waveform table on the lcm(S, n) lattice, so only the
        # gathering and the formatting are compared
        lattice = math.lcm(samples, n)
        table = data.draw(hnp.arrays(np.float64, lattice, elements=float_elements))

        def waveform(pop, size, index):
            assert size == lattice
            return table[index]

        pop = SimpleNamespace(n=n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ringfisher.tuning._lattice_waveform", waveform)
            mp.setattr(conftest, "_lattice_waveform", waveform)
            with np.errstate(invalid="ignore"):
                rio.write_curves_csv(pop, tmp_path / "fast.csv", samples, offset)
                csv_module_curves_csv(pop, tmp_path / "oracle.csv", samples, offset)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_population_curves_bytes_equal_csv_module(self, tmp_path, n6_decomp):
        pop = optimal_tuning_1d(n6_decomp, 2.0)
        rio.write_curves_csv(pop, tmp_path / "fast.csv", samples=33, offset=-0.25)
        csv_module_curves_csv(pop, tmp_path / "oracle.csv", samples=33, offset=-0.25)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_rows_end_in_crlf_with_shortest_repr(self, tmp_path):
        path = tmp_path / "field.csv"
        with np.errstate(invalid="ignore"):
            rio.write_field_csv(np.array([1.0, -1.0, math.inf]), np.array([0.1, -0.0, 1e16, 5e-324]), path)
        assert path.read_bytes() == (
            b"0.1,-0.0,1e+16,5e-324\r\n-0.1,0.0,-1e+16,-5e-324\r\ninf,nan,inf,inf\r\n"
        )


@st.composite
def curve_exports(draw, commensurate=False):
    """(population, samples, offset): 1-3 paired frequencies with non-zero phases on an
    n-ring; samples a multiple of n, coprime to n or any, or only a multiple of n."""
    n = draw(st.integers(4, 24))
    multiple = st.integers(1, 4).map(lambda j: j * n)
    coprime = st.integers(1, 64).filter(lambda s: math.gcd(s, n) == 1)
    samples = draw(multiple if commensurate else st.one_of(multiple, coprime, st.integers(1, 64)))
    frequencies = draw(st.lists(st.integers(1, (n - 1) // 2), min_size=1, max_size=3, unique=True))
    entries = tuple(
        AllocationEntry(k, draw(st.floats(0.1, 2.0)) ** 2, draw(st.floats(0.05, 6.0)))
        for k in frequencies
    )
    pop = TuningPopulation1D(decompose(white_kernel(n)), PowerAllocation(entries=entries))
    return pop, samples, draw(st.floats(-2.0, 2.0))


def read_curve_cells(path) -> list[list[str]]:
    """Body rows of a curves CSV as text cells, theta first."""
    text = Path(path).read_bytes().decode("ascii")
    assert text.endswith("\r\n")
    return [row.split(",") for row in text.split("\r\n")[1:-1]]


class TestCurveLattice:
    """The curves CSV samples one waveform on the lcm(S, n) lattice."""

    @byte_oracle_settings
    @given(export=curve_exports())
    def test_values_match_mean_response(self, tmp_path, export):
        pop, samples, offset = export
        rio.write_curves_csv(pop, tmp_path / "curves.csv", samples, offset)
        table = np.array(read_curve_cells(tmp_path / "curves.csv"), dtype=float)
        thetas = TWO_PI * np.arange(samples) / samples
        assert table.shape == (samples, pop.n + 1)
        np.testing.assert_array_equal(table[:, 0], thetas)
        scale = sum(e.amplitude / e.frequency for e in pop.allocation.entries) * math.sqrt(2 / pop.n)
        np.testing.assert_allclose(
            table[:, 1:], mean_response(pop, thetas) + offset, rtol=0, atol=1e-11 * scale
        )

    @byte_oracle_settings
    @given(export=curve_exports(commensurate=True))
    def test_columns_are_shifted_copies_when_n_divides_samples(self, tmp_path, export):
        pop, samples, offset = export
        rio.write_curves_csv(pop, tmp_path / "curves.csv", samples, offset)
        cells = np.array(read_curve_cells(tmp_path / "curves.csv"))
        for i in range(pop.n):
            assert cells[:, 1 + i].tolist() == np.roll(cells[:, 1], i * samples // pop.n).tolist()

    @byte_oracle_settings
    @given(n=st.integers(4, 64), res=st.integers(8, 256), data=st.data())
    def test_single_frequency_sine_is_exact_at_mirror_points(self, n, res, data):
        # at phase 0, turns t = (k j) mod L and L/2 - t hold one value, and t + L/2 its
        # negative, bit for bit (0.0 and -0.0 compare equal)
        k = data.draw(st.integers(1, (n - 1) // 2))
        amplitude = data.draw(st.floats(0.1, 4.0))
        pop = TuningPopulation1D(decompose(white_kernel(n)), PowerAllocation.single(k, amplitude**2))
        lattice = math.lcm(res, n)
        index = np.arange(lattice)
        at_turn = dict(zip(((k * index) % lattice).tolist(), _lattice_waveform(pop, lattice, index).tolist()))
        half = lattice // 2
        # the lattice holds the partner points when L is even and L/2 is a reachable turn
        turns = [t for t in at_turn if lattice % 2 == 0 and (half - t) % lattice in at_turn]
        values = [at_turn[t] for t in turns]
        assert values == [at_turn[(half - t) % lattice] for t in turns]
        assert values == [-at_turn[(t + half) % lattice] for t in turns]

    @byte_oracle_settings
    @given(n=st.integers(4, 24), lattice=st.integers(1, 200), data=st.data())
    def test_waveform_with_any_phase_matches_mean_response(self, n, lattice, data):
        frequencies = data.draw(st.lists(st.integers(1, (n - 1) // 2), min_size=1, max_size=3, unique=True))
        entries = tuple(
            AllocationEntry(k, data.draw(st.floats(0.1, 2.0)) ** 2, data.draw(st.floats(-100.0, 100.0)))
            for k in frequencies
        )
        pop = TuningPopulation1D(decompose(white_kernel(n)), PowerAllocation(entries=entries))
        index = np.arange(lattice)
        scale = sum(e.amplitude / e.frequency for e in entries) * math.sqrt(2 / n)
        np.testing.assert_allclose(
            _lattice_waveform(pop, lattice, index),
            mean_response(pop, TWO_PI * index / lattice)[:, 0],
            rtol=0,
            atol=1e-11 * scale,
        )

    @pytest.mark.parametrize("lattice", [7 * 64, 3 * 2**40])
    def test_phases_reduced_in_integers(self, lattice):
        # frequency k at point j is frequency 1 at point (k j) mod L, bit for bit, only if
        # k j is reduced before it becomes an angle
        decomp = decompose(white_kernel(64))
        k, amplitude, phase = 29, 1.7, 0.4
        high = TuningPopulation1D(decomp, PowerAllocation((AllocationEntry(k, amplitude * amplitude, phase),)))
        low = TuningPopulation1D(decomp, PowerAllocation((AllocationEntry(1, (amplitude / k) * (amplitude / k), phase),)))
        index = np.linspace(0, lattice - 1, 997).astype(np.int64)
        np.testing.assert_array_equal(
            _lattice_waveform(high, lattice, index), _lattice_waveform(low, lattice, (k * index) % lattice)
        )

    def test_lattice_too_fine_for_int64_rejected(self, n4_decomp):
        pop = optimal_tuning_1d(n4_decomp, 1.0)
        with pytest.raises(ValueError, match="too fine"):
            _lattice_waveform(pop, 2**62, np.arange(3))


class TestBoundedMemory:
    @pytest.mark.parametrize("samples, n", [(256, 1024), (255, 1024), (254, 1024), (256, 1000)])
    def test_curves_csv_holds_only_live_cosets(self, tmp_path, samples, n):
        # the text of the live cosets (at most 32 bytes a value) and one coset's working
        # lists; the full samples x n table alone is 2 MiB as float64
        pop = optimal_tuning_1d(decompose(exponential_kernel(n, 1.0, 0.5)), 1.0)
        cosets = math.lcm(samples, n) // n
        live = cosets if cosets < samples else 1
        peak = traced_peak_bytes(lambda: rio.write_curves_csv(pop, tmp_path / "c.csv", samples))
        assert peak < 32 * n * live + 2**19, f"peak {peak / 2**20:.2f} MiB"


    def test_field_csv_peak_bounded_by_a_row(self, tmp_path, rng):
        # 512 x 2048 samples: 8 MiB as float64, about 33 MiB as one nested list
        cx, cy = rng.normal(size=512), rng.normal(size=2048)
        peak = traced_peak_bytes(lambda: rio.write_field_csv(cx, cy, tmp_path / "field.csv"))
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_sha256_file_reads_in_chunks(self, tmp_path, rng):
        path = tmp_path / "blob.bin"
        data = rng.bytes(32 * 2**20)
        path.write_bytes(data)
        expected = hashlib.sha256(data).hexdigest()
        del data
        digest = []
        peak = traced_peak_bytes(lambda: digest.append(rio.sha256_file(path)))
        assert digest == [expected]
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_pgm_scales_in_one_working_array(self, tmp_path, rng):
        # one scaled row and its 8-bit copy at a time, next to cx as a list of 2048
        # floats (4 rows); the 2048 x 2048 field is 32 MiB
        cx, cy = rng.normal(size=2048), rng.normal(size=2048)
        peak = traced_peak_bytes(lambda: rio.write_pgm(cx, cy, tmp_path / "field.pgm"))
        assert peak < 8 * cy.nbytes, f"peak {peak / cy.nbytes:.2f} x a row"

    @pytest.mark.parametrize("stage", ["sample_firing_field", "write_pgm", "write_field_csv"])
    def test_field_export_at_max_resolution_holds_no_field(self, tmp_path, stage):
        # res 4096: the field alone is 128 MiB as float64. The CSV writes the first 128
        # rows only, full width, as formatting all 4096 under tracemalloc takes minutes;
        # those rows alone are 4 MiB as float64 and about 16 MiB as nested lists
        decomp = decompose(exponential_kernel(96, 1.0, 0.5))
        pop2d = TuningPopulation2D(TuningPopulation1D(decomp, PowerAllocation.single(3, 1.0)), 0.4)
        res = 4096
        cx, cy = sample_firing_field(pop2d, (5, 9), res)
        call = {
            "sample_firing_field": lambda: sample_firing_field(pop2d, (5, 9), res),
            "write_pgm": lambda: rio.write_pgm(cx, cy, tmp_path / "f.pgm"),
            "write_field_csv": lambda: rio.write_field_csv(cx[:128], cy, tmp_path / "f.csv"),
        }[stage]
        peak = traced_peak_bytes(call)
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected_before_writing(self, tmp_path, value):
        payload = {"fine": 1.0, "nested": {"bad": value}}
        with pytest.raises(ValueError):
            rio.dumps_json(payload)
        with pytest.raises(ValueError):
            rio.write_json(payload, tmp_path / "out.json")
        assert not (tmp_path / "out.json").exists()

    def test_non_finite_error_names_each_key_once(self):
        payload = {"z": math.inf, "fine": [1.0, 2.0], "sweep": (1.0, math.nan, -math.inf), "nested": {"bad": -math.inf}}
        with pytest.raises(rio.NonFiniteError) as caught:
            rio.dumps_json(payload)
        assert str(caught.value) == "nested.bad = -inf, sweep = nan, z = inf"


class TestPgm:
    def test_header_and_range(self, tmp_path, rng):
        cx, cy = rng.normal(size=16), rng.normal(size=32)
        path = tmp_path / "field.pgm"
        rio.write_pgm(cx, cy, path)
        data = path.read_bytes()
        header, raster = data.split(b"255\n", 1)
        assert header == b"P5\n32 16\n"
        assert len(raster) == 16 * 32
        pixels = np.frombuffer(raster, dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_constant_field_is_black(self, tmp_path):
        path = tmp_path / "flat.pgm"
        rio.write_pgm(np.ones(8), np.ones(8), path)
        raster = path.read_bytes().split(b"255\n", 1)[1]
        assert set(raster) == {0}

    @byte_oracle_settings
    @given(curves=axis_curves(pgm_elements))
    @example(curves=(np.array([1.0, 1.0 + 1e-12]), np.array([1.0])))  # a range of 1e-12 still spans 0..255
    def test_pixels_equal_out_of_place_scaling(self, tmp_path, curves):
        rio.write_pgm(*curves, tmp_path / "rows.pgm")
        whole_array_pgm(*curves, tmp_path / "oracle.pgm")
        assert (tmp_path / "rows.pgm").read_bytes() == (tmp_path / "oracle.pgm").read_bytes()

    @pytest.mark.parametrize("offset, power", [(None, 1e308), (0.0, 1.7e308)], ids=["lifted", "signed"])
    def test_range_overflowing_255_matches_exact_fractions(self, tmp_path, offset, power):
        # field2d --k 3 --power 1e308 --res 8 on the n = 64 exponential kernel (and its signed
        # field, --offset 0, at 1.7e308): the field is finite, but 255 (hi - lo) is not
        pop = TuningPopulation1D(decompose(exponential_kernel(64, 1.0, 0.5)), PowerAllocation.single(3, power))
        cx, cy = sample_firing_field(TuningPopulation2D(pop), (0, 0), 8, offset=offset)
        lo, hi = (float(f(np.outer(cx, cy))) for f in (np.min, np.max))
        assert not math.isfinite(255.0 * (hi - lo))
        rio.write_pgm(cx, cy, tmp_path / "rows.pgm")
        exact_pgm(cx, cy, tmp_path / "exact.pgm")
        assert (tmp_path / "rows.pgm").read_bytes() == (tmp_path / "exact.pgm").read_bytes()
        assert set((tmp_path / "rows.pgm").read_bytes().split(b"255\n", 1)[1]) >= {0, 255}

    @byte_oracle_settings
    @given(curves=wide_axis_curves())
    @example(curves=(np.array([-1.2e154, 3e153, 1.2e154]), np.array([1.2e154, 5e153])))  # hi - lo = inf
    def test_pixels_at_any_range(self, tmp_path, curves):
        with np.errstate(over="ignore"):
            field = np.outer(*curves)
        if not np.isfinite(field).all():
            with pytest.raises(rio.NonFiniteError):
                rio.write_pgm(*curves, tmp_path / "rows.pgm")
            return
        lo, hi = float(field.min()), float(field.max())
        oracle = whole_array_pgm if math.isfinite(255.0 * (hi - lo)) else exact_pgm
        rio.write_pgm(*curves, tmp_path / "rows.pgm")
        oracle(*curves, tmp_path / "oracle.pgm")
        assert (tmp_path / "rows.pgm").read_bytes() == (tmp_path / "oracle.pgm").read_bytes()

    @pytest.mark.parametrize("cx", [[1.0, 1e200], [1.0, math.inf], [math.nan, 1.0]], ids=["overflow", "inf", "nan"])
    def test_non_finite_field_rejected_before_writing(self, tmp_path, cx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rio.NonFiniteError, match="field"):
                rio.write_pgm(np.array(cx), np.array([1.0, 1e200]), tmp_path / "f.pgm")
        assert not (tmp_path / "f.pgm").exists()


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
