"""Command-line interface: decompose, optimize, fisher, field2d, simulate.

Every command is deterministic in its inputs and seed, emits data-first
artifacts (CSV, JSON, binary graymap) and writes a manifest listing input and
output digests so runs can be reproduced and compared byte for byte.

Exit codes: 0 success, 2 malformed input, 3 invalid covariance, 4 infeasible
optimization, 5 bad parameter range, 6 simulation failure. ``main`` checks every
number flag against its range (``_FLAG_RANGES``, so ``--offset`` is checked for
every command), and that no two outputs or the manifest name one file, before
any file is read. A ``--neuron`` on the ring and a ``--phase-shift`` at the
rendered frequency are checked by their handler once the kernel is read, and
``--k`` by the population it builds, which refuses a frequency that is not a
paired mode. Input files are read by ``rio.read_fields``; a ``simulate``
config's keys are ``SimConfig``'s fields and the four that build its
population. A value out of its range (``ParameterRangeError``), a request too
large to allocate, or a result that is infinite or NaN at accepted flag values
(an information of 0 has an infinite Cramer-Rao bound) exits 6 from
``simulate`` and 5 from any other command; ``main`` alone maps these, naming
the flags a result was computed at. No output may name an input: ``main``
compares the files a handler read with the outputs before any is replaced,
and exits 2. A failed command changes no file: every
output and the manifest are written to staging files beside their targets and
renamed into place, the manifest last, only once all are written; a failure
removes the staging files.

Each command imports the analysis modules it calls when it runs, so a process
loads only those: ``decompose`` reads the spectrum alone, ``field2d`` adds
``tuning``, ``fisher`` adds ``tuning`` and ``fisher``, ``optimize`` adds
``tuning``, ``fisher`` and ``optimal``, and ``simulate`` adds ``tuning`` and
``mcsim``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from ._version import __version__
from . import io as rio
from .errors import (
    ConditionViolatedError,
    MalformedKernelError,
    MultiModePopulationError,
    NotPositiveSemidefiniteError,
    ParameterRangeError,
    SingularCovarianceError,
)
from .spectral import validate_psd

if TYPE_CHECKING:
    from .mcsim import SimConfig

EXIT_OK = 0
EXIT_MALFORMED_INPUT = 2
EXIT_INVALID_COVARIANCE = 3
EXIT_INFEASIBLE_OPTIMIZATION = 4
EXIT_BAD_PARAMETER = 5
EXIT_SIMULATION_FAILURE = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringfisher",
        description=(
            "Spectral analysis, optimal tuning construction, Fisher-information "
            "reports, grid-field rendering and Monte Carlo validation for ring "
            "and torus population codes."
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="override the run seed (default: command or config specific)")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="base directory for relative output paths (default: .)")
    parser.add_argument(
        "--offset",
        type=float,
        default=None,
        help=(
            "display DC offset added to exported tuning curves; for 2D fields the "
            "default lifts each axis curve to be nonnegative, 0 keeps signed values"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a kernel file into eigenvalues")
    p.add_argument("kernel", type=Path, help="kernel definition file (JSON)")
    p.add_argument("out", type=Path, help="decomposition CSV to write (columns k, lambda, paired)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("optimize", help="maximize Fisher information over power allocations")
    p.add_argument("kernel", type=Path)
    p.add_argument("out", type=Path, help="search result JSON to write")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1, help="ring (1) or torus (2) objective (default: 1)")
    p.add_argument("--power", type=float, default=1.0, help="signal power budget (default: 1.0)")
    p.add_argument("--audit-trials", type=int, default=0, help="random-allocation audit size (default: 0, skip)")
    p.add_argument("--curves-out", type=Path, default=None, help="also export the optimal 1D tuning curves as CSV (default: skip)")
    p.add_argument("--curves-samples", type=int, default=256, help="rows in the curves CSV (default: 256)")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("fisher", help="Fisher-information report for an allocation")
    p.add_argument("kernel", type=Path)
    p.add_argument("out", type=Path, help="report JSON to write")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1, help="include torus terms with 2 (default: 1)")
    p.add_argument("--power", type=float, default=1.0, help="signal power budget (default: 1.0)")
    p.add_argument("--k", type=int, default=None, help="single active frequency (default: optimal concentration)")
    p.add_argument("--theta-samples", type=int, default=64, help="positions sampled for the value sweep (default: 64)")
    p.set_defaults(handler=_cmd_fisher)

    p = sub.add_parser("field2d", help="render one torus neuron's firing field")
    p.add_argument("kernel", type=Path)
    p.add_argument("out_pgm", type=Path, help="8-bit binary graymap to write")
    p.add_argument("out_csv", type=Path, help="field sample matrix to write")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, default=None, help="grid frequency for both axes (default: use --optimal)")
    group.add_argument("--optimal", action="store_true", help="use the optimal single-frequency construction (default: off)")
    p.add_argument("--res", type=int, default=128, help="samples per axis, 8..4096 (default: 128)")
    p.add_argument("--power", type=float, default=1.0, help="signal power budget (default: 1.0)")
    p.add_argument("--phase-shift", type=float, default=0.0, help="y-axis shift applied as frequency * shift (default: 0)")
    p.add_argument("--neuron", type=int, nargs=2, default=(0, 0), metavar=("I", "J"), help="torus neuron to render (default: 0 0)")
    p.set_defaults(handler=_cmd_field2d)

    p = sub.add_parser("simulate", help="run a displacement-estimation experiment")
    p.add_argument("config", type=Path, help="simulation config file (JSON)")
    p.add_argument("out", type=Path, help="result JSON to write")
    p.add_argument("--dump-trials", type=Path, default=None, help="CSV of per-trial estimates (default: skip)")
    p.set_defaults(handler=_cmd_simulate)
    return parser


def _resolve(args: argparse.Namespace, path: Path | None) -> Path | None:
    if path is None or path.is_absolute():
        return path
    return args.out_dir / path


def _write_manifest(
    args: argparse.Namespace, manifest: Path, inputs: list[Path], outputs: dict[Path, Path], seed: int | None
) -> None:
    """``manifest``: every parsed argument, the seed and the file digests; ``inputs`` are the
    files the command read, and ``outputs`` maps each output's final path, the name listed, to
    the file holding its bytes."""
    settings = {
        name: str(value) if isinstance(value, Path) else value
        for name, value in vars(args).items()
        if name != "handler"
    }
    payload = {
        "command": args.command,
        "version": __version__,
        "seed": seed,
        "settings": settings,
        "inputs": {str(source): rio.sha256_file(source) for source in inputs},
        "outputs": {str(path): rio.sha256_file(written) for path, written in outputs.items()},
    }
    rio.write_json(payload, manifest)


def _require_neuron(kernel, neuron: tuple[int, int]) -> None:
    if not all(0 <= index < kernel.n for index in neuron):
        raise ParameterRangeError(
            f"torus neuron {list(neuron)} outside 0..{kernel.n - 1} on the n={kernel.n} ring"
        )


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cmd_decompose(args: argparse.Namespace, out: Path) -> tuple[int, None, list[Path]]:
    kernel = rio.load_kernel(args.kernel)
    rio.write_decomposition_csv(kernel, out)
    report = validate_psd(kernel)
    if not report.valid:
        offending = ", ".join(str(k) for k in report.negative_frequencies)
        print(
            f"error: kernel is not positive semidefinite; negative eigenvalue at k = {offending}",
            file=sys.stderr,
        )
        return EXIT_INVALID_COVARIANCE, None, [args.kernel]
    print(rio.dumps_json(report.to_dict()))
    return EXIT_OK, None, [args.kernel]


def _cmd_optimize(args: argparse.Namespace, out: Path, curves_out: Path | None) -> tuple[int, int, list[Path]]:
    from .fisher import crb, fisher_2d, fisher_max_bound
    from .optimal import audit_random_allocations, maximize_fisher_1d, maximize_fisher_2d
    from .tuning import TuningPopulation1D, TuningPopulation2D, _paired_arrays, _ties, check_condition

    kernel = rio.load_kernel(args.kernel)
    seed = args.seed if args.seed is not None else 0
    condition = check_condition(kernel)
    if _ties(*_paired_arrays(kernel)).size > 1:
        _warn("degenerate spectrum: eigenvalue tie broken toward the smallest frequency")
    if args.dim == 1:
        search = maximize_fisher_1d(kernel, args.power)
        fi_section = {
            "fi_spectral": search.achieved_fi,
            "crb": crb(search.achieved_fi),
            "fi_max_bound": fisher_max_bound(kernel, args.power),
        }
    else:
        if not condition.concentration_valid:
            _warn(
                "spectral orderings disagree; reporting the numerically found optimum "
                "instead of a single-frequency concentration"
            )
        search = maximize_fisher_2d(kernel, args.power)
        pop2d = TuningPopulation2D(TuningPopulation1D(kernel, search.allocation))
        fi_section = fisher_2d(pop2d).to_dict()
    margin = None
    if args.audit_trials > 0:
        objective = "fi1d" if args.dim == 1 else "fi2d_x"
        margin = audit_random_allocations(kernel, args.power, objective, args.audit_trials, seed) - search.achieved_fi
    payload = {
        "search": {**search.to_dict(), "audit_margin": margin},
        "condition": condition.to_dict(),
        "fisher": fi_section,
        "dim": args.dim,
        "power": args.power,
    }
    rio.write_json(payload, out)
    if curves_out is not None:
        pop = TuningPopulation1D(kernel, search.allocation)
        rio.write_curves_csv(pop, curves_out, samples=args.curves_samples, offset=args.offset or 0.0)
    print(rio.dumps_json(payload["search"]))
    return EXIT_OK, seed, [args.kernel]


def _cmd_fisher(args: argparse.Namespace, out: Path) -> tuple[int, None, list[Path]]:
    from .fisher import fisher_2d, fisher_report_1d
    from .tuning import PowerAllocation, TuningPopulation1D, TuningPopulation2D, check_condition, optimal_tuning_1d

    kernel = rio.load_kernel(args.kernel)
    if args.k is not None:
        pop = TuningPopulation1D(kernel, PowerAllocation.single(args.k, args.power))
    else:
        pop = optimal_tuning_1d(kernel, args.power)
    report = fisher_report_1d(pop, theta_samples=args.theta_samples)
    payload = report.to_dict()
    payload["ordering_condition"] = check_condition(kernel).to_dict()
    payload.update({"i_x": None, "i_y": None, "i_xy": None})
    if args.dim == 2:
        pop2d = TuningPopulation2D(pop)
        payload.update(fisher_2d(pop2d).to_dict())
    rio.write_json(payload, out)
    print(rio.dumps_json(payload))
    return EXIT_OK, None, [args.kernel]


def _cmd_field2d(args: argparse.Namespace, out_pgm: Path, out_csv: Path) -> tuple[int, None, list[Path]]:
    from .tuning import (
        PowerAllocation,
        TuningPopulation1D,
        TuningPopulation2D,
        _phase_shift_problem,
        optimal_tuning_2d,
        sample_firing_field,
    )

    kernel = rio.load_kernel(args.kernel)
    _require_neuron(kernel, args.neuron)
    if args.optimal:
        x = optimal_tuning_2d(kernel, args.power).x
    else:
        x = TuningPopulation1D(kernel, PowerAllocation.single(args.k, args.power))
    problem = _phase_shift_problem(args.phase_shift, x.allocation.max_frequency())
    if problem:
        raise ParameterRangeError(f"--phase-shift {problem}")
    pop2d = TuningPopulation2D(x, args.phase_shift)
    cx, cy = sample_firing_field(pop2d, tuple(args.neuron), args.res, offset=args.offset)
    rio.write_pgm(cx, cy, out_pgm)
    rio.write_field_csv(cx, cy, out_csv)
    return EXIT_OK, None, [args.kernel]


#: The fields of an allocation entry.
_ENTRY_FIELDS = {"frequency": (int, rio.REQUIRED), "amplitude": (float, rio.REQUIRED), "phase": (float, 0.0)}


def load_sim_config(path: Path, seed_override: int | None = None) -> tuple[SimConfig, list[Path]]:
    """Build a SimConfig from a JSON file mirroring its fields, with the files read for it:
    ``path``, then the kernel file if it names one.

    The keys are SimConfig's fields, each of the kind of its default (so an
    integer field accepts an integral float such as 200.0), and a field the file
    leaves out takes SimConfig's default; ``rio.read_fields`` refuses any other
    key, at the top level or in an allocation entry. Four more keys build the
    population. The kernel is given inline under ``kernel`` or by path under
    ``kernel_file`` (relative to the config file), not both. ``allocation`` is
    either the string "optimal", which spends ``power`` on the optimal frequency,
    or a list of {frequency, amplitude, phase} entries, amplitude a standing for
    the power a * a; ``power`` goes with "optimal" only. ``seed_override``
    replaces the file's seed, which is then not read.
    """
    from .mcsim import SimConfig
    from .tuning import AllocationEntry, PowerAllocation, TuningPopulation1D, optimal_tuning_1d

    # the four keys that build the population, then SimConfig's own fields, each of the kind of its default
    table = {"kernel": (dict, None), "kernel_file": (str, None), "allocation": (object, "optimal"), "power": (float, 1.0)}
    for f in dataclasses.fields(SimConfig):
        if f.default is not dataclasses.MISSING:
            table[f.name] = (type(f.default), f.default)
    definition = rio.read_json_object(path, "simulation config")
    if seed_override is not None:
        definition = {**definition, "seed": seed_override}
    fields = rio.read_fields(definition, table, "simulation config")
    inputs = [path]
    if "kernel" in fields and "kernel_file" in fields:
        raise MalformedKernelError("a simulation config names its kernel once: 'kernel' or 'kernel_file', not both")
    if "kernel" in fields:
        kernel = rio.kernel_from_dict(fields.pop("kernel"))
    elif "kernel_file" in fields:
        inputs.append(Path(path).parent / fields.pop("kernel_file"))
        kernel = rio.load_kernel(inputs[-1])
    else:
        raise MalformedKernelError("simulation config needs 'kernel' or a 'kernel_file' path")
    allocation, power = fields.pop("allocation"), fields.pop("power")
    if allocation == "optimal":
        pop = optimal_tuning_1d(kernel, power)
    elif isinstance(allocation, list):
        if "power" in definition:
            raise MalformedKernelError(
                "'power' applies only to the 'optimal' allocation; "
                "a list under 'allocation' sets each entry's power by its amplitude"
            )
        parsed = [rio.read_fields(e, _ENTRY_FIELDS, "allocation entry").values() for e in allocation]
        for frequency, amplitude, _ in parsed:
            if amplitude < 0.0 or not math.isfinite(amplitude * amplitude):
                raise ValueError(
                    "allocation power (the square of an amplitude) must be finite, and the amplitude >= 0; "
                    f"got frequency {frequency}, amplitude {amplitude!r}"
                )
        alloc = PowerAllocation(tuple(AllocationEntry(k, a * a, phase) for k, a, phase in parsed))
        pop = TuningPopulation1D(kernel, alloc)
    else:
        raise MalformedKernelError(
            "allocation must be 'optimal' or a list of {frequency, amplitude, phase}"
        )
    return SimConfig(population=pop, **fields), inputs


def _cmd_simulate(args: argparse.Namespace, out: Path, dump: Path | None) -> tuple[int, int, list[Path]]:
    from .mcsim import run_displacement_trials

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config, inputs = load_sim_config(args.config, seed_override=args.seed)
        result, estimates = run_displacement_trials(config, with_estimates=True)
    for w in caught:
        _warn(str(w.message))
    payload = result.to_dict()
    rio.write_json(payload, out)
    if dump is not None:
        rio.write_trials_csv(estimates, dump)
    print(rio.dumps_json(payload))
    return EXIT_OK, config.seed, inputs


_EXIT_CODE_BY_ERROR: tuple[tuple[type[Exception], int], ...] = (
    (MalformedKernelError, EXIT_MALFORMED_INPUT),
    (NotPositiveSemidefiniteError, EXIT_INVALID_COVARIANCE),
    (SingularCovarianceError, EXIT_INVALID_COVARIANCE),
    (ConditionViolatedError, EXIT_INFEASIBLE_OPTIMIZATION),
    (MultiModePopulationError, EXIT_SIMULATION_FAILURE),
)


#: The flags that each command's reported numbers depend on, named when a result is not finite.
_RESULT_FLAGS = {"optimize": ("power",), "fisher": ("power",), "field2d": ("power", "offset")}

#: Each number flag's range, as a test and its wording, checked before any file is read.
_FLAG_RANGES = {
    "seed": (lambda value: value >= 0, ">= 0"),
    "audit_trials": (lambda value: value >= 0, ">= 0"),
    "curves_samples": (lambda value: value >= 1, ">= 1"),
    "theta_samples": (lambda value: value >= 1, ">= 1"),
    "power": (lambda value: math.isfinite(value) and value > 0.0, "positive and finite"),
    "offset": (math.isfinite, "finite"),
}

#: Each command's output path arguments, as the usage names them; the first one names the manifest.
_OUTPUT_ARGS = {
    "decompose": ("out",),
    "optimize": ("out", "--curves-out"),
    "fisher": ("out",),
    "field2d": ("out_pgm", "out_csv"),
    "simulate": ("out", "--dump-trials"),
}


def _staging_path(path: Path) -> Path:
    """A name that no file has, beside the file that ``path`` names (a symlink's target); nothing is created."""
    target = Path(os.path.realpath(path))
    # only a symlink loop resolves to a link: a name inside it fails to open, as the loop itself does
    directory = target if target.is_symlink() else target.parent
    while True:
        staged = directory / f".ringfisher-{os.urandom(6).hex()}.tmp"
        if not os.path.lexists(staged):
            return staged


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    names = (*_OUTPUT_ARGS[args.command], "the manifest")
    outputs = [_resolve(args, getattr(args, name.lstrip("-").replace("-", "_"))) for name in names[:-1]]
    manifest = Path(f"{outputs[0]}.manifest.json")
    for name, (valid, rule) in _FLAG_RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not valid(value):
            print(f"error: --{name.replace('_', '-')} must be {rule}, got {value}", file=sys.stderr)
            return EXIT_BAD_PARAMETER
    # two outputs that name one file (a symlink's target) would overwrite each other
    targets: dict[str, str] = {}
    for name, path in zip(names, (*outputs, manifest)):
        if path is None:
            continue
        target = os.path.realpath(path)
        if target in targets:
            print(f"error: {targets[target]} and {name} name one file, {target}", file=sys.stderr)
            return EXIT_MALFORMED_INPUT
        targets[target] = name
    # the handler and the manifest writer fill staging files, which replace the outputs only once all are written
    staged = {path: _staging_path(path) for path in (*outputs, manifest) if path is not None}
    try:
        code, seed, inputs = args.handler(args, *(staged.get(path) for path in outputs))
        # an output that names an input (a symlink's target) would replace it
        for source in inputs:
            target = os.path.realpath(source)
            if target in targets:
                raise MalformedKernelError(f"{targets[target]} and the input {source} name one file, {target}")
        _write_manifest(args, staged[manifest], inputs, {p: staged[p] for p in outputs if p is not None}, seed)
        for path, written in staged.items():
            os.replace(written, os.path.realpath(path))
        return code
    except BaseException as exc:  # noqa: BLE001 - translated to documented exit codes
        for written in filter(os.path.lexists, staged.values()):
            written.unlink()
        if not isinstance(exc, Exception):
            raise  # an interrupt, after removing the staging files
        named = {str(written): path for path, written in staged.items()}
        if isinstance(exc, OSError) and exc.filename in named:  # name the output, not its staging file
            exc = type(exc)(exc.errno, exc.strerror, str(named[exc.filename]))
        for err_type, code in _EXIT_CODE_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        # a request or a result beyond reach: a simulation failure, or a parameter out of range
        out_of_range = EXIT_SIMULATION_FAILURE if args.command == "simulate" else EXIT_BAD_PARAMETER
        if isinstance(exc, rio.NonFiniteError):
            values = {name: vars(args)[name] for name in _RESULT_FLAGS.get(args.command, ())}
            at = " and ".join(f"--{name} {value!r}" for name, value in values.items() if value is not None)
            print(f"error: the result is not finite{at and ' at ' + at}: {exc}", file=sys.stderr)
            return out_of_range
        if isinstance(exc, MemoryError):
            print(f"error: cannot allocate memory for this request: {exc}", file=sys.stderr)
            return out_of_range
        if isinstance(exc, ParameterRangeError) or args.command == "simulate" and isinstance(exc, (ValueError, KeyError)):
            print(f"error: {exc}", file=sys.stderr)
            return out_of_range
        if isinstance(exc, (ValueError, KeyError, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED_INPUT
        raise


def entrypoint() -> None:
    code = main()
    # The process ends next: objects the collector has frozen are not traversed again at
    # exit, which saves NumPy's import graph a final collection. Atexit handlers, stream
    # flushes and C-level finalizers still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
