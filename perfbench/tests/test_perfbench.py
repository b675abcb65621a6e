"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

* a seconds-long smoke run of every workload at the ``tiny`` scale, traced
  and untraced, against the result-line contract and BENCHMARK.json;
* each oracle accepts a genuine output and rejects a deliberately corrupted one;
* the self-time arithmetic on nested and overlapping spans, and the wrapping
  of functions in every namespace that bound them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ------------------------------------------------------------------ smoke run

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_meets_the_result_contract(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == detail["failed"]
    assert detail["environment"]["blas_threads"] >= 1 and detail["environment"]["numpy"]
    assert result["correct"], detail["failures"]


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", inputs.WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env={**_env(), "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -------------------------------------------------------------------- oracles

def _produce(workload: str, tmp_path: Path, monkeypatch) -> dict[str, inputs.Op]:
    """Run every operation of a tiny workload in-process; return them by label."""
    from ringfisher import cli

    monkeypatch.chdir(tmp_path)
    built = inputs.build(workload, 5, tmp_path, "tiny")
    for op in built.ops:
        code = cli.main(op.argv) if op.argv is not None else child.run(op.spec)
        assert code == 0, op.label
    return {op.label: op for op in built.ops}


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _bump_csv(path: Path, row: int, col: int, delta: float = 1e-3) -> None:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[row][col] = repr(float(rows[row][col]) + delta)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _rejects(op: inputs.Op, wd: Path, path: str, corrupt) -> None:
    assert op.check(wd) == [], op.label
    original = (wd / path).read_bytes()
    corrupt(wd / path)
    try:
        assert op.check(wd), f"{op.label}: corrupted {path} passed"
    finally:
        (wd / path).write_bytes(original)


def test_torus_search_oracles_reject_corruption(tmp_path, monkeypatch):
    ops = _produce("torus-search-2048", tmp_path, monkeypatch)
    edge, closed = ops["opt2d-vertex-edge"], ops["opt2d-closed-form"]
    lower = lambda p: _edit_json(p, lambda d: d["search"].update(achieved_fi=d["search"]["achieved_fi"] * 0.99))
    _rejects(edge, tmp_path, "opt2d-vertex-edge.json", lower)
    _rejects(edge, tmp_path, "opt2d-vertex-edge.json", lambda p: _edit_json(p, lambda d: d["search"].update(audit_margin=1e-3)))
    _rejects(closed, tmp_path, "opt2d-closed-form.json", lambda p: _edit_json(p, lambda d: d["search"].update(method="vertex_edge")))

    def spread_power(d):  # same budget, but not the optimum
        entry = d["search"]["allocation"]["entries"][0]
        d["search"]["allocation"]["entries"] = [dict(entry, amplitude=0.6), dict(entry, frequency=2, amplitude=0.8)]

    _rejects(closed, tmp_path, "opt2d-closed-form.json", lambda p: _edit_json(p, spread_power))
    curves = ops["opt1d-audit-curves"]
    _rejects(curves, tmp_path, "opt1d-audit-curves.curves.csv", lambda p: _bump_csv(p, 5, 3))
    fisher = ops["fisher2d"]
    _rejects(fisher, tmp_path, "fisher2d.json", lambda p: _edit_json(p, lambda d: d["fi_theta"].__setitem__(3, d["fi_theta"][3] * 1.001)))
    _rejects(fisher, tmp_path, "fisher2d.json", lambda p: _edit_json(p, lambda d: d.update(i_xy=0.1 * d["i_x"])))
    decomp = ops["decompose-edge"]
    _rejects(decomp, tmp_path, "decompose-edge.csv", lambda p: _bump_csv(p, 3, 1, 1e-6))


def test_ring_small_oracles_reject_corruption(tmp_path, monkeypatch):
    ops = _produce("ring-small-many", tmp_path, monkeypatch)
    path = ops["path-linear"]
    _rejects(path, tmp_path, "path-linear.json", lambda p: _edit_json(p, lambda d: d.update(linear_growth_ratio=1.6)))
    _rejects(path, tmp_path, "path-linear.json",
             lambda p: _edit_json(p, lambda d: d.update(single_step_variance=2.0 * d["single_step_variance"])))
    torus = ops["torus-sample"]
    scaled = lambda p: np.save(p, 1.3 * np.load(p))
    _rejects(torus, tmp_path, "torus-sample.npy", scaled)
    shuffled = lambda p: np.save(p, np.random.default_rng(0).permutation(np.load(p), axis=1))
    _rejects(torus, tmp_path, "torus-sample.npy", shuffled)
    field = ops["field2d-optimal"]

    def extra_bump(p):  # a new strict maximum where the field had its minimum
        field_values = np.loadtxt(p, delimiter=",")
        field_values.flat[np.argmin(field_values)] = 2.0 * field_values.max()
        np.savetxt(p, field_values, delimiter=",", fmt="%.17g")

    _rejects(field, tmp_path, "field2d-optimal.csv", extra_bump)
    _rejects(field, tmp_path, "field2d-optimal.pgm", lambda p: p.write_bytes(p.read_bytes().replace(b"64 64", b"64 63", 1)))
    sim = ops["sim-small"]
    _rejects(sim, tmp_path, "sim-small.result.json",
             lambda p: _edit_json(p, lambda d: d.update(fisher_information=d["fisher_information"] * (1 + 1e-6))))
    _rejects(sim, tmp_path, "sim-small.result.json",
             lambda p: _edit_json(p, lambda d: d.update(empirical_variance=1.5 * d["empirical_variance"])))


def test_trial_dump_oracle_rejects_corruption():
    estimates = np.random.default_rng(1).normal(size=300)
    result = {"trials": 300, "mean_estimate": float(np.mean(estimates)), "empirical_variance": float(np.var(estimates, ddof=1))}
    good = "trial,estimate\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(estimates.tolist()))
    assert oracles.check_trial_dump(good, result) == []
    assert oracles.check_trial_dump(good.rsplit("\n", 2)[0] + "\n", result)
    assert oracles.check_trial_dump(good.replace("\n5,", "\n5,1", 1), result)
    assert oracles.check_trial_dump(good.replace(",", ",np.float64(", 2), result)


def test_cli_trial_dump_passes_its_oracle(tmp_path, monkeypatch):
    """The real CLI's --dump-trials output against its oracle (fails while the dump holds np.float64 reprs)."""
    from ringfisher import cli

    monkeypatch.chdir(tmp_path)
    kernel = inputs.exponential(tmp_path, "dump.kernel.json", 16)
    op = inputs.simulate_op(tmp_path, "sim-dump", kernel, {
        "allocation": "optimal", "trials": 300, "power": 1.0, "seed": 7,
        "mode": "known_reference", "estimator": "local_linear"}, dump=True)
    assert cli.main(op.argv) == 0
    assert op.check(tmp_path) == []


def test_mc_ring_simulate_oracle_rejects_corruption(tmp_path, monkeypatch):
    ops = _produce("mc-ring-4096", tmp_path, monkeypatch)
    phase = ops["sim-two-phase"]
    _rejects(phase, tmp_path, "sim-two-phase.result.json",
             lambda p: _edit_json(p, lambda d: d.update(crb_reference=0.5 * d["crb_reference"])))
    _rejects(phase, tmp_path, "sim-two-phase.result.json",
             lambda p: _edit_json(p, lambda d: d.update(empirical_variance=0.5 * d["empirical_variance"])))


def test_bruteforce_matches_a_dense_grid_search():
    lams = oracles.ring_eigenvalues(12, 0.5 ** np.arange(7))
    best = oracles.torus_bruteforce_max(12, lams, 1.0, block=2)
    ks = oracles.paired(12)
    u = 1.0 / lams[ks]
    v = u / ks**2
    w = np.random.default_rng(0).dirichlet(np.ones(ks.size), size=200_000)
    assert best >= float(np.max((w @ u) * (w @ v)))
    assert best <= float(np.max((w @ u) * (w @ v))) * 1.01


def test_toroidal_maxima_counts_wrapping_plateaus():
    field = np.zeros((8, 8))
    field[0, 0] = field[0, 7] = 1.0  # one plateau across the wrap
    field[4, 4] = 2.0
    assert oracles.toroidal_maxima(field) == 2
    assert oracles.toroidal_maxima(np.ones((4, 4))) == 0


# ----------------------------------------------------------------- self time

def test_self_time_subtracts_nested_children():
    rows = [
        ["a", 0.0, 10.0, -1, {}],
        ["b", 1.0, 4.0, 0, {}],
        ["c", 2.0, 3.0, 1, {}],
        ["d", 5.0, 6.0, 0, {}],
    ]
    assert spans.self_times(rows) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    rows = [
        ["p", 0.0, 10.0, -1, {}],
        ["x", 2.0, 5.0, 0, {}],
        ["y", 4.0, 7.0, 0, {}],
        ["z", 8.0, 12.0, 0, {}],
    ]
    assert spans.self_times(rows)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_recorder_tracks_peak_allocation_of_nested_spans():
    recorder = spans.Recorder("alloc")
    outer = recorder.enter("mcsim.run_displacement_trials")
    inner = recorder.enter("mcsim.NoiseModel.sample")
    block = np.ones(4 * 1024 * 1024 // 8)  # 4 MB inside the inner span
    del block
    recorder.leave(inner)
    recorder.leave(outer)
    inner_mb = recorder.spans[inner].counts["peak_alloc_mb"]
    outer_mb = recorder.spans[outer].counts["peak_alloc_mb"]
    assert 3.9 < inner_mb < 5.0
    assert outer_mb >= inner_mb


def test_install_wraps_every_binding_and_records_parents():
    # in a fresh interpreter, so the wrapped package does not leak into other tests
    script = """
import json, sys
import spans
import ringfisher as rf
import ringfisher.fisher as fisher, ringfisher.tuning as tuning, ringfisher.mcsim as mcsim
rec = spans.Recorder("t")
spans.install(rec)
assert fisher.mean_derivative is tuning.mean_derivative is mcsim.mean_derivative
assert getattr(fisher.mean_derivative, "__traced__", False)
assert getattr(rf.decompose, "__traced__", False)
pop = rf.optimal_tuning_1d(rf.decompose(rf.exponential_kernel(8)), 1.0)
rec.spans.clear()
rf.fisher_1d(pop)
names = {i: s.name for i, s in enumerate(rec.spans)}
print(json.dumps([[s.name, names.get(s.parent)] for s in rec.spans]))
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=BENCH, env={**_env(), "PYTHONPATH": f"{BENCH}{os.pathsep}{ROOT / 'src'}"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pairs = json.loads(done.stdout)
    assert pairs[0] == ["fisher.fisher_1d", None]
    assert ["tuning.mean_derivative", "fisher.fisher_1d"] in pairs
    assert ["spectral.apply_inverse", "fisher.fisher_1d"] in pairs
    assert ["spectral.SpectralDecomposition.cos_vector", "tuning.mean_derivative"] in pairs
