"""The public API is pinned, so test-only helpers cannot creep back into the package."""

import importlib
import inspect

import pytest

import ringfisher
from ringfisher.tuning import PowerAllocation

PUBLIC_API = [
    "AllocationEntry", "AllocationSearchResult", "AuditReport",
    "ConditionReport", "ConditionViolatedError", "CorrelationKernel", "EigenMode",
    "FisherReport1D", "FisherReport2D", "MalformedKernelError", "MultiModePopulationError",
    "NoiseModel", "NonpositiveInformationError", "NotPositiveSemidefiniteError",
    "PathIntegrationReport", "PowerAllocation", "PsdReport", "ResolutionOutOfRangeError",
    "RingFisherError", "SimConfig", "SimResult", "SingularCovarianceError",
    "SpectralDecomposition", "TorusCorrelation", "TuningPopulation1D", "TuningPopulation2D",
    "UnpairedModeError", "apply_inverse", "audit_random_allocations", "check_condition", "crb",
    "decompose", "errors", "estimate_local", "estimate_phase", "exponential_kernel", "fisher",
    "fisher_1d", "fisher_1d_spectral", "fisher_2d", "fisher_derivative", "fisher_max_bound",
    "fisher_report_1d", "gaussian_kernel", "kernel_from_spectrum", "maximize_fisher_1d",
    "maximize_fisher_2d", "mcsim", "mean_derivative", "mean_response", "mode_coefficients",
    "optimal", "optimal_tuning_1d", "optimal_tuning_2d", "rotate_pattern",
    "run_displacement_trials", "run_path_integration", "spectral", "synthesize", "tuning",
    "validate_psd",
]

# Dense oracles and check helpers that live in the tests, by the module that once held them.
TEST_ONLY = {
    "errors": ["SizeLimitError"],
    "fisher": ["Tolerances", "DEFAULT_TOLERANCES"],
    "spectral": ["materialize_dense", "DENSE_SIZE_LIMIT", "TorusInverseReport", "torus_inverse_check"],
    "tuning": [
        "signal_power", "ShiftReport", "curves_shift_report", "shifted_copy_check",
        "count_toroidal_maxima", "_NEIGHBOR_SHIFTS",
    ],
}
TEST_ONLY_ATTRIBUTES = [
    ("spectral", "TorusCorrelation", "dense"),
    ("spectral", "TorusCorrelation", "inverse_dense"),
    ("spectral", "EigenMode", "multiplicity"),
    ("spectral", "CorrelationKernel", "max_distance"),
    ("spectral", "CorrelationKernel", "value_at_distance"),
    ("tuning", "PowerAllocation", "scaled"),
    ("tuning", "PowerAllocation", "frequencies"),
]


def test_all_is_pinned():
    assert sorted(ringfisher.__all__) == PUBLIC_API


@pytest.mark.parametrize("module,name", [(m, n) for m, names in TEST_ONLY.items() for n in names])
def test_test_only_name_absent(module, name):
    assert not hasattr(importlib.import_module(f"ringfisher.{module}"), name)
    assert not hasattr(ringfisher, name)


@pytest.mark.parametrize("module,owner,name", TEST_ONLY_ATTRIBUTES)
def test_test_only_attribute_absent(module, owner, name):
    assert not hasattr(getattr(importlib.import_module(f"ringfisher.{module}"), owner), name)


def test_from_powers_takes_powers_only():
    assert list(inspect.signature(PowerAllocation.from_powers).parameters) == ["powers"]
