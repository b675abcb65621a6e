"""Seeded inputs and the operations of each benchmark workload.

``build(name, seed, workdir, scale)`` writes every kernel and config file the
workload's operations read and returns the operations, each with its oracle.
The seed picks the random streams (simulation, audit, path-integration and
torus seeds), the torus neuron rendered by ``field2d`` and the explicit
kernel's spectrum; it never changes how much work an operation does. Every
configuration keeps the package's default ``delta_theta`` (1e-3), which trips
the linearisation warning at n = 4096: the warning is counted, not avoided.

The ``tiny`` scale runs the same operations at small sizes for the
benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("mc-ring-4096", "torus-search-2048", "ring-small-many")

SIZES = {
    "full": {
        "mc_n": 4096, "mc_trials": 2000, "mc_phase_power": 5e8,
        "edge_n": 2048, "edge_audit": 2000, "closed_n": 2048, "mid_n": 1024, "mid_audit": 5000, "curves": 256,
        "small_n": 64, "pi_steps": 100, "pi_trials": 3000, "pi_phase_trials": 2000, "pi_phase_power": 1e5,
        "torus_calls": 5, "torus_size": 10, "field_res": 768, "gauss_length": 2.0, "small_trials": 5000,
    },
    "tiny": {
        "mc_n": 64, "mc_trials": 300, "mc_phase_power": 1e5,
        "edge_n": 64, "edge_audit": 200, "closed_n": 32, "mid_n": 32, "mid_audit": 200, "curves": 64,
        "small_n": 16, "pi_steps": 10, "pi_trials": 400, "pi_phase_trials": 400, "pi_phase_power": 1e5,
        "torus_calls": 2, "torus_size": 5, "field_res": 64, "gauss_length": 1.5, "small_trials": 300,
    },
}


@dataclass(frozen=True)
class Kernel:
    path: str
    n: int
    values: np.ndarray  # covariance at ring distances 0..n//2

    @property
    def eigenvalues(self) -> np.ndarray:
        return oracles.ring_eigenvalues(self.n, self.values)


@dataclass
class Op:
    """One operation: a CLI command (``argv``) or a library call (``spec``)."""

    label: str
    metric: str  # end-to-end command metric this operation's wall time adds to
    check: Callable[[Path], list[str]]  # workdir -> problems
    outputs: tuple[str, ...]
    argv: list[str] | None = None
    spec: dict | None = None


@dataclass
class Workload:
    name: str
    why: str
    kernels: list[str]  # kernel files the setup probe loads and decomposes
    ops: list[Op] = field(default_factory=list)


def _write_json(workdir: Path, name: str, payload: dict) -> str:
    (workdir / name).write_text(json.dumps(payload, indent=2))
    return name


def exponential(workdir: Path, name: str, n: int, rho: float = 0.5) -> Kernel:
    _write_json(workdir, name, {"n": n, "family": "exponential", "params": {"c0": 1.0, "rho": rho}})
    return Kernel(name, n, rho ** np.arange(n // 2 + 1, dtype=float))


def gaussian(workdir: Path, name: str, n: int, length: float) -> Kernel:
    _write_json(workdir, name, {"n": n, "family": "gaussian", "params": {"c0": 1.0, "length": length}})
    d = np.arange(n // 2 + 1, dtype=float)
    return Kernel(name, n, np.exp(-(d * d) / (2.0 * length * length)))


def closed_form_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues at 0..n//2 whose two torus orderings agree on k = 1.

    k = 1 has the smallest eigenvalue (0.1) and every other paired frequency
    lies in [0.5, 1.5], so k^2 lambda_k >= 2 > lambda_1: both the eigenvalue
    and the frequency-weighted minimiser are k = 1 and the torus optimum is the
    single-frequency vertex (the ``closed_form`` path).
    """
    lams = rng.uniform(0.5, 1.5, size=n // 2 + 1)
    lams[1] = 0.1
    return lams


def explicit_from_spectrum(workdir: Path, name: str, n: int, lams: np.ndarray) -> Kernel:
    """Explicit kernel file whose eigenvalues are ``lams`` (inverse real DFT of the spectrum)."""
    row = np.fft.irfft(lams, n)
    values = row[: n // 2 + 1]
    _write_json(workdir, name, {"n": n, "family": "explicit", "params": {"values": [float(v) for v in values]}})
    return Kernel(name, n, values)


def _read(workdir: Path, name: str) -> str:
    return (workdir / name).read_text()


# ---------------------------------------------------------------- operations

def simulate_op(workdir: Path, label: str, kernel: Kernel, config: dict, dump: bool) -> Op:
    cfg = _write_json(workdir, f"{label}.json", {"kernel_file": kernel.path, **config})
    out, trials_csv = f"{label}.result.json", f"{label}.trials.csv"
    argv = ["simulate", cfg, out] + (["--dump-trials", trials_csv] if dump else [])
    lams = kernel.eigenvalues

    def check(wd: Path) -> list[str]:
        result = json.loads(_read(wd, out))
        problems = oracles.check_sim_result(result, kernel.n, lams, config)
        if dump:
            problems += oracles.check_trial_dump(_read(wd, trials_csv), result)
        return problems

    return Op(label, "simulate_s", check, (out, trials_csv) if dump else (out,), argv=argv)


def optimize_op(label: str, kernel: Kernel, dim: int, method: str, audit: int, seed: int, curves: int = 0) -> Op:
    out, curves_csv = f"{label}.json", f"{label}.curves.csv"
    argv = ["--seed", str(seed), "optimize", kernel.path, out, "--dim", str(dim)]
    if audit:
        argv += ["--audit-trials", str(audit)]
    if curves:
        argv += ["--curves-out", curves_csv, "--curves-samples", str(curves)]
    lams = kernel.eigenvalues

    def check(wd: Path) -> list[str]:
        problems = oracles.check_optimize(json.loads(_read(wd, out)), kernel.n, lams, 1.0, dim, method)
        if curves:
            problems += oracles.check_curves(_read(wd, curves_csv), kernel.n, lams, 1.0, curves)
        return problems

    return Op(label, "optimize_s", check, (out, curves_csv) if curves else (out,), argv=argv)


def fisher_op(label: str, kernel: Kernel, dim: int) -> Op:
    out = f"{label}.json"
    lams = kernel.eigenvalues

    def check(wd: Path) -> list[str]:
        return oracles.check_fisher(json.loads(_read(wd, out)), kernel.n, lams, 1.0, dim)

    return Op(label, "fisher_s", check, (out,), argv=["fisher", kernel.path, out, "--dim", str(dim)])


def decompose_op(label: str, kernel: Kernel) -> Op:
    out = f"{label}.csv"
    lams = kernel.eigenvalues

    def check(wd: Path) -> list[str]:
        return oracles.check_decomposition(_read(wd, out), kernel.n, lams)

    return Op(label, "decompose_s", check, (out,), argv=["decompose", kernel.path, out])


def field2d_op(label: str, kernel: Kernel, res: int, neuron: tuple[int, int]) -> Op:
    pgm, csv_out = f"{label}.pgm", f"{label}.csv"
    argv = ["field2d", kernel.path, pgm, csv_out, "--optimal", "--res", str(res), "--neuron", str(neuron[0]), str(neuron[1])]
    lams = kernel.eigenvalues

    def check(wd: Path) -> list[str]:
        return oracles.check_field((wd / pgm).read_bytes(), _read(wd, csv_out), res, kernel.n, lams)

    return Op(label, "field2d_s", check, (pgm, csv_out), argv=argv)


def path_integration_op(label: str, kernel: Kernel, power: float, steps: int, trials: int, estimator: str, seed: int) -> Op:
    out = f"{label}.json"
    spec = {"kind": "path_integration", "kernel": kernel.path, "power": power, "steps": steps, "trials": trials,
            "seed": seed, "mode": "two_snapshot", "estimator": estimator, "out": out}
    lams = kernel.eigenvalues

    def check(wd: Path) -> list[str]:
        return oracles.check_path_integration(json.loads(_read(wd, out)), kernel.n, lams, spec)

    return Op(label, "path_integration_s", check, (out,), spec=spec)


def torus_sample_op(label: str, kernel: Kernel, calls: int, size: int, seed: int) -> Op:
    out = f"{label}.npy"
    spec = {"kind": "torus_sample", "kernel": kernel.path, "calls": calls, "size": size, "seed": seed, "out": out}

    def check(wd: Path) -> list[str]:
        return oracles.check_torus_draws(np.load(wd / out), kernel.n, kernel.values, calls * size)

    return Op(label, "torus_sample_s", check, (out,), spec=spec)


# ----------------------------------------------------------------- workloads

def build(name: str, seed: int, workdir: Path, scale: str = "full") -> Workload:
    size = SIZES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])

    def draw_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    if name == "mc-ring-4096":
        # Monte Carlo at large n: NoiseModel.sample (the dense z @ B.T) and the
        # dense basis build dominate, and trials x n arrays set the peak RSS.
        # optimal is never called. The FFT layer and chunked trial streams
        # should show here.
        n = size["mc_n"]
        kernel = exponential(workdir, "ring.kernel.json", n)
        wl = Workload(name, "large-n Monte Carlo: noise sampling and trials x n arrays dominate", [kernel.path])
        base = {"allocation": "optimal", "trials": size["mc_trials"]}
        # no --dump-trials: at this commit the CLI writes NumPy scalar reprs
        # (np.float64(...)) into the dump, which the trial-dump oracle rejects;
        # perfbench/tests keeps that check on the real CLI output
        wl.ops.append(simulate_op(workdir, "sim-known-linear", kernel, {
            **base, "power": 1.0, "seed": draw_seed(), "mode": "known_reference", "estimator": "local_linear"}, dump=False))
        # power puts the two-snapshot bound's standard deviation far inside
        # +-pi/k*, where the phase readout's wrap-around never triggers
        wl.ops.append(simulate_op(workdir, "sim-two-phase", kernel, {
            **base, "power": size["mc_phase_power"], "seed": draw_seed(), "mode": "two_snapshot", "estimator": "phase"},
            dump=False))
        return wl

    if name == "torus-search-2048":
        # Allocation search: the O(m^2) Python edge loop and the projected
        # gradient polish in optimal dominate; mcsim is never called. The
        # hull search shows here and nowhere else. The vertex_edge search runs
        # at n=2048 (about 3 s), not n=4096 (9-14 s on a 2-vCPU box, where
        # medians of two such calls per 30 s run varied by 10 % between runs).
        edge = exponential(workdir, "edge.kernel.json", size["edge_n"])  # orderings disagree: vertex_edge
        closed = explicit_from_spectrum(workdir, "closed.kernel.json", size["closed_n"],
                                        closed_form_spectrum(size["closed_n"], rng))
        mid = exponential(workdir, "mid.kernel.json", size["mid_n"])
        wl = Workload(name, "torus allocation search at n=2048: the optimal layer dominates, no sampling",
                      [edge.path, closed.path, mid.path])
        wl.ops += [
            optimize_op("opt2d-vertex-edge", edge, 2, "vertex_edge", size["edge_audit"], draw_seed()),
            optimize_op("opt2d-closed-form", closed, 2, "closed_form", 0, draw_seed()),
            optimize_op("opt1d-audit-curves", mid, 1, "closed_form", size["mid_audit"], draw_seed(), curves=size["curves"]),
            fisher_op("fisher2d", mid, 2),
            decompose_op("decompose-edge", edge),
        ]
        return wl

    if name == "ring-small-many":
        # Small n, many calls: the same sampling layer used differently. At
        # n=64 Philox normals outweigh the matmul, so a change tuned for
        # n=4096 (FFT, blocked streams, a thread pool) can cost here. The
        # torus einsum and the io formatting also show here.
        n = size["small_n"]
        ring = exponential(workdir, "small.kernel.json", n)
        gauss = gaussian(workdir, "gauss.kernel.json", n, size["gauss_length"])
        wl = Workload(name, "small n, many short calls: Philox normals, torus sampling and CSV formatting dominate",
                      [ring.path, gauss.path])
        neuron = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        wl.ops += [
            path_integration_op("path-linear", ring, 1.0, size["pi_steps"], size["pi_trials"], "local_linear", draw_seed()),
            path_integration_op("path-phase", ring, size["pi_phase_power"], size["pi_steps"], size["pi_phase_trials"],
                                "phase", draw_seed()),
            torus_sample_op("torus-sample", ring, size["torus_calls"], size["torus_size"], draw_seed()),
            field2d_op("field2d-optimal", gauss, size["field_res"], neuron),
            simulate_op(workdir, "sim-small", ring, {
                "allocation": "optimal", "power": 1.0, "trials": size["small_trials"], "seed": draw_seed(),
                "mode": "two_snapshot", "estimator": "local_linear"}, dump=False),
            fisher_op("fisher2d-small", ring, 2),
            decompose_op("decompose-small", ring),
        ]
        return wl

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
