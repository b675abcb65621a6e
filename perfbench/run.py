"""ringfisher benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` (nothing is installed). It writes the workload's seeded
inputs under ``.bench_work/``, then repeats rounds of the workload's
operations, one at a time, each in a fresh interpreter, while the next round
is expected to end within ``--seconds`` (at least two rounds). Every output is checked by an independent
oracle (``oracles.py``). With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones. The last line of standard output is
the result object; the line before it is a detail record with per-operation
statistics and the environment. See README.md for the metric names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import inputs  # noqa: E402  (sibling modules, importable because this file's directory is on sys.path)
import spans  # noqa: E402

#: Setup probes before the first round; one more follows every untraced round, so
#: the median spans the whole run rather than its first seconds.
SETUP_PROBES_FIRST = 3
MIN_ROUNDS = 2
#: A required round is not started past this many seconds, so a run ends well inside 180 s.
HARD_LIMIT_S = 150.0
CLI_COMMANDS = ("decompose", "optimize", "fisher", "field2d", "simulate")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "spectral.decompose.self_s", "spectral.decompose.calls",
    "spectral.apply_inverse.self_s", "spectral.apply_inverse.calls", "spectral.apply_inverse.vectors",
    "spectral.SpectralDecomposition.mode.calls",
    "spectral.SpectralDecomposition.cos_vector.calls",
    "spectral.SpectralDecomposition.sin_vector.calls",
    "tuning.mean_response.self_s", "tuning.mean_response.calls",
    "tuning.mean_derivative.self_s", "tuning.mean_derivative.calls",
    "tuning.neuron_curve.self_s", "tuning.neuron_curve.calls",
    "tuning.sample_firing_field.self_s",
    "fisher.fisher_report_1d.self_s",
    "fisher.fisher_1d.self_s", "fisher.fisher_1d.calls",
    "fisher.fisher_2d.self_s", "fisher.fisher_2d.calls",
    "optimal.maximize_fisher_2d.self_s", "optimal.maximize_fisher_2d.calls",
    "optimal.maximize_fisher_1d.self_s",
    "optimal.audit_random_allocations.self_s", "optimal.audit_random_allocations.trials",
    "optimal.audit_random_allocations.peak_alloc_mb",
    "optimal.check_condition.self_s", "optimal.check_condition.calls",
    "mcsim.NoiseModel.sample.self_s", "mcsim.NoiseModel.sample.calls", "mcsim.NoiseModel.sample.values",
    "mcsim.NoiseModel.sample.peak_alloc_mb",
    "mcsim.estimate_local.self_s", "mcsim.estimate_local.calls",
    "mcsim.estimate_phase.self_s", "mcsim.estimate_phase.calls",
    "mcsim.run_displacement_trials.self_s", "mcsim.run_displacement_trials.peak_alloc_mb",
    "mcsim.run_path_integration.self_s",
    "mcsim.linearization_warnings",
    "io.load_kernel.self_s",
    "io.write_field_csv.self_s", "io.write_field_csv.bytes",
    "io.write_pgm.self_s", "io.write_pgm.bytes",
    "io.write_curves_csv.self_s", "io.write_curves_csv.bytes",
    "io.sha256_file.self_s", "io.sha256_file.bytes",
    "io.write_json.self_s",
    "cli.decompose.self_s", "cli.optimize.self_s", "cli.fisher.self_s", "cli.field2d.self_s", "cli.simulate.self_s",
    "process.cpu_s",
    "trace.overhead_s",
)

UNITS = {
    "self_s": "s", "cpu_s": "s", "overhead_s": "s", "peak_alloc_mb": "MB", "bytes": "bytes",
    "calls": "count", "vectors": "count", "values": "count", "trials": "count", "linearization_warnings": "count",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def linearization_warnings(stderr: str) -> int:
    """Warnings the CLI prints when k* times delta_theta exceeds the small-displacement limit."""
    return stderr.count("linearization degrades")


# ------------------------------------------------------------------ processes

@dataclass
class OpRun:
    label: str
    metric: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    stderr: str
    problems: list[str] = field(default_factory=list)
    spans: list | None = None


def spawn(cmd: list[str], cwd: Path, env: dict, timeout: float) -> tuple[float, float, float, int, str]:
    """Run one child to completion: wall seconds, peak RSS (MB), CPU seconds, exit code, stderr."""
    with open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode, stderr


class Runner:
    def __init__(self, workdir: Path, env: dict, deadline_total: float) -> None:
        self.workdir = workdir
        self.env = env
        self.deadline_total = deadline_total

    def timeout(self) -> float:
        return max(5.0, self.deadline_total - time.perf_counter())

    def child(self, spec: dict, name: str) -> list[str]:
        path = self.workdir / f"{name}.spec.json"
        path.write_text(json.dumps(spec))
        return [sys.executable, str(HERE / "child.py"), path.name]

    def op(self, op: inputs.Op, traced: bool) -> OpRun:
        for name in op.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        spans_file = self.workdir / f"{op.label}.spans.json"
        spans_file.unlink(missing_ok=True)
        if op.argv is not None and not traced:
            cmd = [sys.executable, "-m", "ringfisher", *op.argv]
        else:
            spec = dict(op.spec) if op.spec is not None else {
                "kind": "cli", "argv": op.argv,
                "command_index": next(i for i, a in enumerate(op.argv) if a in CLI_COMMANDS)}
            spec["op_id"] = op.label
            if traced:
                spec["spans"] = spans_file.name
            cmd = self.child(spec, op.label)
        wall, rss, cpu, code, stderr = spawn(cmd, self.workdir, self.env, self.timeout())
        run = OpRun(op.label, op.metric, wall, rss, cpu, stderr)
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            run.problems.append(f"exit code {code}: {tail[0]}")
            return run
        missing = [name for name in op.outputs if not (self.workdir / name).is_file()]
        if missing:
            run.problems.append(f"missing output {', '.join(missing)}")
            return run
        try:
            run.problems += op.check(self.workdir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            run.problems.append(f"output could not be read: {exc!r}")
        if traced:
            if spans_file.is_file():
                run.spans = json.loads(spans_file.read_text())["spans"]
            else:
                run.problems.append("traced operation wrote no spans")
        return run

    def setup_probe(self, kernels: list[str]) -> OpRun:
        cmd = self.child({"kind": "setup", "kernels": kernels}, "setup")
        wall, rss, cpu, code, stderr = spawn(cmd, self.workdir, self.env, self.timeout())
        run = OpRun("setup", "setup_s", wall, rss, cpu, stderr)
        if code != 0:
            run.problems.append(f"setup probe exit code {code}")
        return run


# -------------------------------------------------------------------- metrics

def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    ordered = sorted(samples)
    count = len(ordered)
    tail = None
    if count >= 11:
        tail = {"percentile": math.floor(100.0 * (count - 10) / count), "value": ordered[count - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "count": count}


def layer_totals(rounds: list[list[OpRun]]) -> dict[str, float]:
    """Per-layer metrics of each traced round, then their median across rounds."""
    per_round = []
    for ops in rounds:
        acc: dict[str, float] = {"mcsim.linearization_warnings": 0.0}
        for run in ops:
            acc["mcsim.linearization_warnings"] += linearization_warnings(run.stderr)
            rows = run.spans or []
            for row, self_s in zip(rows, spans.self_times(rows)):
                name, counts = row[0], row[4]
                acc[f"{name}.self_s"] = acc.get(f"{name}.self_s", 0.0) + self_s
                acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0.0) + 1
                for key, value in counts.items():
                    metric = f"{name}.{key}"
                    if key == "peak_alloc_mb":
                        acc[metric] = max(acc.get(metric, 0.0), value)
                    else:
                        acc[metric] = acc.get(metric, 0.0) + value
        per_round.append(acc)
    names = set().union(*per_round) if per_round else set()
    return {name: statistics.median([r.get(name, 0.0) for r in per_round]) for name in names}


def samples_by_op(rounds: list[list[OpRun]], attr: str) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for ops in rounds:
        for run in ops:
            samples.setdefault(run.label, []).append(getattr(run, attr))
    return samples


def round_wall(rounds: list[list[OpRun]]) -> float:
    """Wall time of one round: the sum of each operation's median wall time."""
    return sum(statistics.median(walls) for walls in samples_by_op(rounds, "wall_s").values())


# ---------------------------------------------------------------- environment

def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (read only); None where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]] if fields and fields[0] == "cpu" else None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


# ----------------------------------------------------------------------- main

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(inputs.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which kills and reaps the running child


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "ringfisher" / "__init__.py").is_file():
        print(f"error: no ringfisher sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + args.seconds
    threads = min(2, len(os.sched_getaffinity(0)))
    steal_before = cpu_times()
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, child_env(threads), started + HARD_LIMIT_S + 20.0)
        workload = inputs.build(args.workload, args.seed, workdir, args.scale)
        located = subprocess.run([sys.executable, "-c", "import ringfisher; print(ringfisher.__file__)"],
                                 cwd=workdir, env=runner.env, capture_output=True, text=True)
        if located.returncode != 0 or not Path(located.stdout.strip()).resolve().is_relative_to(SRC):
            print(f"error: ringfisher does not import from {SRC}: {located.stderr.strip()}", file=sys.stderr)
            return 2
        runner.setup_probe(workload.kernels)  # warm-up: bytecode and file caches, untimed
        return measure(args, workload, runner, deadline, started, threads, steal_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workload: inputs.Workload, runner: Runner, deadline: float, started: float,
            threads: int, steal_before) -> int:
    probes = [runner.setup_probe(workload.kernels) for _ in range(SETUP_PROBES_FIRST)] if not args.trace else []
    untraced: list[list[OpRun]] = []
    traced: list[list[OpRun]] = []
    while True:
        trace_round = bool(args.trace) and len(untraced) > len(traced)
        round_start = time.perf_counter()
        ops = [runner.op(op, trace_round) for op in workload.ops]
        (traced if trace_round else untraced).append(ops)
        if not args.trace:
            probes.append(runner.setup_probe(workload.kernels))
        now = time.perf_counter()
        last = now - round_start
        enough = len(untraced) + len(traced) >= MIN_ROUNDS
        if enough and now + last > deadline:
            break
        if now - started + last > HARD_LIMIT_S:
            break

    runs = probes + [run for ops in untraced + traced for run in ops]
    failures = [f"{run.label}: {problem}" for run in runs for problem in run.problems]
    failed = sum(1 for run in runs if run.problems)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)

    walls_by_op = samples_by_op(untraced, "wall_s")
    commands: dict[str, list[float]] = {}
    for ops in untraced:
        per_round: dict[str, float] = {}
        for run in ops:
            per_round[run.metric] = per_round.get(run.metric, 0.0) + run.wall_s
        for metric, value in per_round.items():
            commands.setdefault(metric, []).append(value)
    round_walls = [sum(run.wall_s for run in ops) for ops in untraced]
    round_rss = [max(run.rss_mb for run in ops) for ops in untraced]
    round_cpu = [sum(run.cpu_s for run in ops) for ops in untraced]

    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "environment": environment(threads),
        "cpu_steal_share": steal_share(steal_before, cpu_times()),
        "attempted": len(runs),
        "failed": failed,
        "fail_rate": failed / len(runs),
        "failures": failures,
        "round_wall_s": summary(round_walls),
        "setup_s": summary([p.wall_s for p in probes]) if probes else None,
        "peak_rss_mb": summary(round_rss),
        "cpu_s": summary(round_cpu),
        "commands": {metric: summary(walls) for metric, walls in commands.items()},
        "operations": {label: {**summary(walls), "samples": walls} for label, walls in walls_by_op.items()},
        "setup_samples": [p.wall_s for p in probes],
        "linearization_warnings": sum(linearization_warnings(r.stderr) for ops in untraced for r in ops),
    }

    if args.trace:
        layers = layer_totals(traced)
        layers["process.cpu_s"] = statistics.median(round_cpu)
        layers["trace.overhead_s"] = round_wall(traced) - round_wall(untraced)
        detail["layers"] = dict(sorted(layers.items()))
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        metrics = {
            "wall_s": round_wall(untraced),
            "setup_s": statistics.median(p.wall_s for p in probes),
            "peak_rss_mb": statistics.median(round_rss),
        }
        units = END_TO_END
    detail["elapsed_s"] = time.perf_counter() - started
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
