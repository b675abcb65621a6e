"""The public API is pinned, so test-only helpers cannot creep back into the package."""

import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

import ringfisher
from ringfisher.tuning import PowerAllocation

PUBLIC_API = [
    "AllocationEntry", "AllocationSearchResult",
    "ConditionReport", "ConditionViolatedError", "CorrelationKernel", "EigenMode",
    "FisherReport1D", "FisherReport2D", "MalformedKernelError", "MultiModePopulationError",
    "NoiseModel", "NotPositiveSemidefiniteError", "ParameterRangeError",
    "PathIntegrationReport", "PowerAllocation", "PsdReport",
    "RingFisherError", "SimConfig", "SimResult", "SingularCovarianceError",
    "SpectralDecomposition", "TorusCorrelation", "TuningPopulation1D", "TuningPopulation2D",
    "apply_inverse", "audit_random_allocations", "check_condition", "crb",
    "decompose", "errors", "exponential_kernel", "fisher",
    "fisher_1d", "fisher_1d_spectral", "fisher_2d", "fisher_derivative", "fisher_max_bound",
    "fisher_report_1d", "gaussian_kernel", "kernel_from_spectrum", "maximize_fisher_1d",
    "maximize_fisher_2d", "mcsim", "mean_derivative", "mode_coefficients",
    "optimal", "optimal_tuning_1d", "optimal_tuning_2d", "rotate_pattern",
    "run_displacement_trials", "run_path_integration", "spectral", "synthesize", "tuning",
    "validate_psd",
]

# Dense oracles and check helpers that live in the tests, by the module that once held them.
TEST_ONLY = {
    "errors": ["SizeLimitError"],
    "fisher": ["Tolerances", "DEFAULT_TOLERANCES"],
    "mcsim": ["estimate_local", "estimate_phase"],
    "spectral": ["materialize_dense", "DENSE_SIZE_LIMIT", "TorusInverseReport", "torus_inverse_check"],
    "tuning": [
        "signal_power", "ShiftReport", "curves_shift_report", "shifted_copy_check",
        "count_toroidal_maxima", "_NEIGHBOR_SHIFTS", "mean_response",
    ],
}
TEST_ONLY_ATTRIBUTES = [
    ("spectral", "TorusCorrelation", "dense"),
    ("spectral", "TorusCorrelation", "inverse_dense"),
    ("spectral", "EigenMode", "multiplicity"),
    ("spectral", "CorrelationKernel", "max_distance"),
    ("spectral", "CorrelationKernel", "value_at_distance"),
    ("spectral", "CorrelationKernel", "modes"),
    ("tuning", "PowerAllocation", "scaled"),
    ("tuning", "PowerAllocation", "frequencies"),
]
# Attributes deleted because nothing in the package, its tests or the README called them.
DELETED_ATTRIBUTES = [
    ("spectral", "TorusCorrelation", "n"),
    ("spectral", "CorrelationKernel", "is_paired"),
    ("tuning", "PowerAllocation", "to_dict"),
]
# Result records, whose JSON form is their fields: all inherit the one ``to_dict``.
RECORDS = [
    ("spectral", "PsdReport"), ("tuning", "ConditionReport"), ("fisher", "FisherReport1D"),
    ("fisher", "FisherReport2D"), ("optimal", "AllocationSearchResult"), ("mcsim", "SimResult"),
    ("mcsim", "PathIntegrationReport"),
]


def test_all_is_pinned():
    assert sorted(ringfisher.__all__) == PUBLIC_API


@pytest.mark.parametrize("name", PUBLIC_API)
def test_public_name_is_the_object_its_submodule_defines(name):
    value = getattr(ringfisher, name)
    if isinstance(value, types.ModuleType):
        assert value.__name__ == f"ringfisher.{name}"
    else:
        assert value.__module__.startswith("ringfisher.")
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_lists_every_public_name():
    assert set(ringfisher.__all__) <= set(dir(ringfisher))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ringfisher import *", namespace)
    assert set(ringfisher.__all__) <= set(namespace)
    assert namespace["fisher_1d"] is ringfisher.fisher.fisher_1d


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'ringfisher' has no attribute 'fisher_3d'"):
        ringfisher.fisher_3d


@pytest.mark.parametrize("module,name", [(m, n) for m, names in TEST_ONLY.items() for n in names])
def test_test_only_name_absent(module, name):
    assert not hasattr(importlib.import_module(f"ringfisher.{module}"), name)
    assert not hasattr(ringfisher, name)


@pytest.mark.parametrize("module,owner,name", TEST_ONLY_ATTRIBUTES + DELETED_ATTRIBUTES)
def test_test_only_attribute_absent(module, owner, name):
    assert not hasattr(getattr(importlib.import_module(f"ringfisher.{module}"), owner), name)


@pytest.mark.parametrize("module,name", RECORDS)
def test_record_inherits_the_one_serialiser(module, name):
    record = getattr(importlib.import_module(f"ringfisher.{module}"), name)
    assert dataclasses.is_dataclass(record)
    assert "to_dict" not in vars(record)
    assert record.to_dict is ringfisher.spectral._Record.to_dict


def test_fisher_report_1d_fields_are_its_json_keys():
    fields = [f.name for f in dataclasses.fields(ringfisher.FisherReport1D)]
    assert fields == ["theta_samples", "fi_theta", "fi_spectral", "fi_max_bound", "crb"]


def test_from_powers_takes_powers_only():
    assert list(inspect.signature(PowerAllocation.from_powers).parameters) == ["powers"]


@pytest.mark.parametrize("name", ["maximize_fisher_1d", "maximize_fisher_2d", "optimal_tuning_2d"])
def test_exact_optimum_takes_kernel_and_power_only(name):
    assert list(inspect.signature(getattr(ringfisher, name)).parameters) == ["decomp", "power"]


def test_search_result_holds_no_audit():
    fields = [f.name for f in dataclasses.fields(ringfisher.AllocationSearchResult)]
    assert fields == ["allocation", "achieved_fi", "method"]


def test_readme_library_example_runs_as_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    kernel, decomp, pop, result = (namespace[name] for name in ("kernel", "decomp", "pop", "result"))
    assert decomp is kernel
    assert ringfisher.fisher_1d(pop) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert ringfisher.crb(ringfisher.fisher_1d(pop)) == pytest.approx(0.75, rel=1e-12)
    assert abs(result.empirical_variance - 0.75) <= 5.0 * result.variance_stderr
    assert abs(result.efficiency - 1.0) <= 5.0 * result.variance_stderr
    assert namespace["search"].achieved_fi == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert namespace["margin"] <= 1e-9
