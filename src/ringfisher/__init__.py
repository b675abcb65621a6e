"""Fisher-information analysis of ring and torus population codes.

Builds circulant symmetric noise kernels on a ring of neurons, decomposes them
into cosine/sine eigen-mode pairs, expresses tuning-curve populations as power
allocations over those modes, maximizes Fisher information for small
displacements under a fixed power budget, and validates the resulting
Cramer-Rao bounds by Monte Carlo simulation. A CLI exposes the same pipeline
over JSON/CSV/graymap artifacts.

Importing the package runs only ``_version``, and does not import numpy. Every
public name is listed below under the submodule that defines it, and its first
access loads that submodule (and what the submodule imports), so
``ringfisher.fisher_1d`` is ``ringfisher.fisher.fisher_1d`` and a program pays
only for the modules it uses.
"""

import importlib

from ._version import __version__

#: Each submodule and the public names it defines, in the order the package builds on them.
_EXPORTS = {
    "errors": (
        "ConditionViolatedError", "MalformedKernelError", "MultiModePopulationError",
        "NonpositiveInformationError", "NotPositiveSemidefiniteError",
        "ResolutionOutOfRangeError", "RingFisherError", "SingularCovarianceError",
        "UnpairedModeError",
    ),
    "spectral": (
        "CorrelationKernel", "EigenMode", "PsdReport", "SpectralDecomposition",
        "TorusCorrelation", "apply_inverse", "decompose", "exponential_kernel",
        "gaussian_kernel", "kernel_from_spectrum", "mode_coefficients", "rotate_pattern",
        "synthesize", "validate_psd",
    ),
    "tuning": (
        "AllocationEntry", "ConditionReport", "PowerAllocation", "TuningPopulation1D",
        "TuningPopulation2D", "check_condition", "mean_derivative", "mean_response",
        "optimal_tuning_1d", "optimal_tuning_2d",
    ),
    "fisher": (
        "FisherReport1D", "FisherReport2D", "crb", "fisher_1d", "fisher_1d_spectral",
        "fisher_2d", "fisher_derivative", "fisher_max_bound", "fisher_report_1d",
    ),
    "optimal": (
        "AllocationSearchResult", "AuditReport", "audit_random_allocations",
        "maximize_fisher_1d", "maximize_fisher_2d",
    ),
    "mcsim": (
        "NoiseModel", "PathIntegrationReport", "SimConfig", "SimResult", "estimate_local",
        "estimate_phase", "run_displacement_trials", "run_path_integration",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
