"""Command-line interface: decompose, optimize, fisher, field2d, simulate.

Every command is deterministic in its inputs and seed, emits data-first
artifacts (CSV, JSON, binary graymap) and writes a manifest listing input and
output digests so runs can be reproduced and compared byte for byte.

Exit codes: 0 success, 2 malformed input, 3 invalid covariance, 4 infeasible
optimization, 5 bad parameter range, 6 simulation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from ._version import __version__
from . import io as rio
from .errors import (
    ConditionViolatedError,
    MalformedKernelError,
    MultiModePopulationError,
    NotPositiveSemidefiniteError,
    ResolutionOutOfRangeError,
    SingularCovarianceError,
)
from .fisher import (
    crb,
    fisher_2d,
    fisher_max_bound,
    fisher_report_1d,
)
from .mcsim import SimConfig, run_displacement_trials
from .optimal import check_condition, maximize_fisher_1d, maximize_fisher_2d
from .spectral import decompose, validate_psd
from .tuning import (
    AllocationEntry,
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    _paired_arrays,
    _phase_shift_problem,
    _ties,
    optimal_tuning_1d,
    optimal_tuning_2d,
    sample_firing_field,
)

EXIT_OK = 0
EXIT_MALFORMED_INPUT = 2
EXIT_INVALID_COVARIANCE = 3
EXIT_INFEASIBLE_OPTIMIZATION = 4
EXIT_BAD_PARAMETER = 5
EXIT_SIMULATION_FAILURE = 6


class ParameterRangeError(ValueError):
    """CLI-level parameter outside its documented range."""


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
    args: argparse.Namespace,
    primary_out: Path,
    inputs: list[Path],
    outputs: list[Path],
    seed: int | None,
) -> None:
    """``<primary_out>.manifest.json``: every parsed argument, the seed and the file digests."""
    settings = {
        name: str(value) if isinstance(value, Path) else value
        for name, value in vars(args).items()
        if name != "handler"
    }
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": seed,
        "settings": settings,
        "inputs": {str(p): rio.sha256_file(p) for p in inputs},
        "outputs": {str(p): rio.sha256_file(p) for p in outputs},
    }
    rio.write_json(manifest, str(primary_out) + ".manifest.json")


def _load_decomposition(path: Path):
    kernel = rio.load_kernel(path)
    return decompose(kernel)


def _require_paired(decomp, frequency: int) -> None:
    paired = decomp.paired_frequencies
    if frequency not in paired:
        raise ParameterRangeError(
            f"frequency {frequency} is not a paired mode of the n={decomp.n} ring "
            f"(paired: {paired.start}..{paired.stop - 1})"
        )


def _require_neuron(decomp, neuron: tuple[int, int]) -> None:
    if not all(0 <= index < decomp.n for index in neuron):
        raise ParameterRangeError(
            f"torus neuron {list(neuron)} outside 0..{decomp.n - 1} on the n={decomp.n} ring"
        )


def _require_power(power: float) -> None:
    if not (math.isfinite(power) and power > 0.0):
        raise ParameterRangeError(f"--power must be positive and finite, got {power}")


def _require_finite(flag: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ParameterRangeError(f"{flag} must be finite, got {value}")


def _require_count(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ParameterRangeError(f"{flag} must be >= {minimum}, got {value}")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cmd_decompose(args: argparse.Namespace) -> int:
    decomp = _load_decomposition(args.kernel)
    out = _resolve(args, args.out)
    rio.write_decomposition_csv(decomp, out)
    report = validate_psd(decomp)
    _write_manifest(args, out, [args.kernel], [out], None)
    if not report.valid:
        offending = ", ".join(str(k) for k in report.negative_frequencies)
        print(
            f"error: kernel is not positive semidefinite; negative eigenvalue at k = {offending}",
            file=sys.stderr,
        )
        return EXIT_INVALID_COVARIANCE
    print(rio.dumps_json(report.to_dict()))
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    decomp = _load_decomposition(args.kernel)
    _require_power(args.power)
    _require_count("--audit-trials", args.audit_trials, 0)
    _require_count("--curves-samples", args.curves_samples, 1)
    _require_finite("--offset", args.offset)
    seed = args.seed if args.seed is not None else 0
    condition = check_condition(decomp)
    if _ties(*_paired_arrays(decomp)).size > 1:
        _warn("degenerate spectrum: eigenvalue tie broken toward the smallest frequency")
    if args.dim == 1:
        search = maximize_fisher_1d(decomp, args.power, audit_trials=args.audit_trials, seed=seed)
        fi_section = {
            "fi_spectral": search.achieved_fi,
            "crb": crb(search.achieved_fi),
            "fi_max_bound": fisher_max_bound(decomp, args.power),
        }
    else:
        if not condition.concentration_valid:
            _warn(
                "spectral orderings disagree; reporting the numerically found optimum "
                "instead of a single-frequency concentration"
            )
        search = maximize_fisher_2d(decomp, args.power, audit_trials=args.audit_trials, seed=seed)
        pop2d = TuningPopulation2D(TuningPopulation1D(decomp, search.allocation))
        fi_section = fisher_2d(pop2d).to_dict()
    payload = {
        "search": search.to_dict(),
        "condition": condition.to_dict(),
        "fisher": fi_section,
        "dim": args.dim,
        "power": args.power,
    }
    out = _resolve(args, args.out)
    rio.write_json(payload, out)
    outputs = [out]
    if args.curves_out is not None:
        curves_out = _resolve(args, args.curves_out)
        pop = TuningPopulation1D(decomp, search.allocation)
        rio.write_curves_csv(
            pop, curves_out, samples=args.curves_samples, offset=args.offset or 0.0
        )
        outputs.append(curves_out)
    _write_manifest(args, out, [args.kernel], outputs, seed)
    print(rio.dumps_json(payload["search"]))
    return EXIT_OK


def _cmd_fisher(args: argparse.Namespace) -> int:
    decomp = _load_decomposition(args.kernel)
    _require_power(args.power)
    _require_count("--theta-samples", args.theta_samples, 1)
    if args.k is not None:
        _require_paired(decomp, args.k)
        pop = TuningPopulation1D(decomp, PowerAllocation.single(args.k, args.power))
    else:
        pop = optimal_tuning_1d(decomp, args.power)
    report = fisher_report_1d(pop, theta_samples=args.theta_samples)
    payload = report.to_dict()
    payload["ordering_condition"] = check_condition(decomp).to_dict()
    payload.update({"i_x": None, "i_y": None, "i_xy": None})
    if args.dim == 2:
        pop2d = TuningPopulation2D(pop)
        payload.update(fisher_2d(pop2d).to_dict())
    out = _resolve(args, args.out)
    rio.write_json(payload, out)
    _write_manifest(args, out, [args.kernel], [out], None)
    print(rio.dumps_json(payload))
    return EXIT_OK


def _cmd_field2d(args: argparse.Namespace) -> int:
    decomp = _load_decomposition(args.kernel)
    _require_power(args.power)
    _require_neuron(decomp, args.neuron)
    _require_finite("--offset", args.offset)
    if args.optimal:
        x = optimal_tuning_2d(decomp, args.power).x
    else:
        _require_paired(decomp, args.k)
        x = TuningPopulation1D(decomp, PowerAllocation.single(args.k, args.power))
    problem = _phase_shift_problem(args.phase_shift, x.allocation.max_frequency())
    if problem:
        raise ParameterRangeError(f"--phase-shift {problem}")
    pop2d = TuningPopulation2D(x, args.phase_shift)
    cx, cy = sample_firing_field(pop2d, tuple(args.neuron), args.res, offset=args.offset)
    out_pgm = _resolve(args, args.out_pgm)
    out_csv = _resolve(args, args.out_csv)
    rio.write_pgm(cx, cy, out_pgm)
    rio.write_field_csv(cx, cy, out_csv)
    _write_manifest(args, out_pgm, [args.kernel], [out_pgm, out_csv], None)
    return EXIT_OK


def load_sim_config(path: Path, seed_override: int | None = None) -> SimConfig:
    """Build a SimConfig from a JSON file mirroring its fields.

    The kernel is given inline under ``kernel`` or by path under
    ``kernel_file`` (relative to the config file). ``allocation`` is either
    the string "optimal" or a list of {frequency, amplitude, phase} entries.
    """
    try:
        definition = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedKernelError(f"cannot read simulation config {path}: {exc}") from exc
    if not isinstance(definition, dict):
        raise MalformedKernelError("simulation config must hold a JSON object")
    if "kernel" in definition:
        kernel = rio.kernel_from_dict(definition["kernel"])
    elif isinstance(definition.get("kernel_file"), str):
        kernel = rio.load_kernel(Path(path).parent / definition["kernel_file"])
    else:
        raise MalformedKernelError("simulation config needs 'kernel' or a 'kernel_file' path")
    decomp = decompose(kernel)
    power = rio.json_number(definition, "power", 1.0)
    allocation = definition.get("allocation", "optimal")
    if allocation == "optimal":
        pop = optimal_tuning_1d(decomp, power)
    elif isinstance(allocation, list):
        entries = [rio.json_object(e, "allocation entry") for e in allocation]
        alloc = PowerAllocation(
            entries=tuple(
                AllocationEntry(
                    rio.json_integer(e, "frequency"),
                    rio.json_number(e, "amplitude"),
                    rio.json_number(e, "phase", 0.0),
                )
                for e in entries
            )
        )
        pop = TuningPopulation1D(decomp, alloc)
    else:
        raise MalformedKernelError(
            "allocation must be 'optimal' or a list of {frequency, amplitude, phase}"
        )
    seed = rio.json_integer(definition, "seed", 0) if seed_override is None else seed_override
    return SimConfig(
        population=pop,
        delta_theta=rio.json_number(definition, "delta_theta", 1e-3),
        trials=rio.json_integer(definition, "trials", 100_000),
        seed=seed,
        mode=definition.get("mode", "known_reference"),
        estimator=definition.get("estimator", "local_linear"),
        theta0=rio.json_number(definition, "theta0", 0.0),
        noise_scale=rio.json_number(definition, "noise_scale", 1.0),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = load_sim_config(args.config, seed_override=args.seed)
        result, estimates = run_displacement_trials(config, with_estimates=True)
    for w in caught:
        _warn(str(w.message))
    not_finite = [
        f"{name} = {value}"
        for name, value in result.to_dict().items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if not_finite:
        raise ValueError(
            f"result is not finite ({', '.join(not_finite)}); there is no Cramer-Rao "
            "bound to compare with, as when the active frequency's noise eigenvalue is 0"
        )
    out = _resolve(args, args.out)
    rio.write_json(result.to_dict(), out)
    outputs = [out]
    if args.dump_trials is not None:
        dump = _resolve(args, args.dump_trials)
        with open(dump, "w", newline="") as handle:
            handle.write("trial,estimate\n")
            for i, value in enumerate(estimates.tolist()):
                handle.write(f"{i},{value!r}\n")
        outputs.append(dump)
    _write_manifest(args, out, [args.config], outputs, config.seed)
    print(rio.dumps_json(result.to_dict()))
    return EXIT_OK


_EXIT_CODE_BY_ERROR: tuple[tuple[type[Exception], int], ...] = (
    (MalformedKernelError, EXIT_MALFORMED_INPUT),
    (NotPositiveSemidefiniteError, EXIT_INVALID_COVARIANCE),
    (SingularCovarianceError, EXIT_INVALID_COVARIANCE),
    (ConditionViolatedError, EXIT_INFEASIBLE_OPTIMIZATION),
    (ResolutionOutOfRangeError, EXIT_BAD_PARAMETER),
    (ParameterRangeError, EXIT_BAD_PARAMETER),
    (MultiModePopulationError, EXIT_SIMULATION_FAILURE),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _require_count("--seed", args.seed, 0)
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - translated to documented exit codes
        for err_type, code in _EXIT_CODE_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        if args.command == "simulate" and isinstance(exc, (ValueError, KeyError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SIMULATION_FAILURE
        if isinstance(exc, (ValueError, KeyError, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED_INPUT
        raise


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
