"""Fisher-information analysis of ring and torus population codes.

Builds circulant symmetric noise kernels on a ring of neurons, decomposes them
into cosine/sine eigen-mode pairs, expresses tuning-curve populations as power
allocations over those modes, maximizes Fisher information for small
displacements under a fixed power budget, and validates the resulting
Cramer-Rao bounds by Monte Carlo simulation. A CLI exposes the same pipeline
over JSON/CSV/graymap artifacts.
"""

from ._version import __version__
from .errors import (
    ConditionViolatedError,
    MalformedKernelError,
    MultiModePopulationError,
    NonpositiveInformationError,
    NotPositiveSemidefiniteError,
    ResolutionOutOfRangeError,
    RingFisherError,
    SingularCovarianceError,
    UnpairedModeError,
)
from .spectral import (
    CorrelationKernel,
    EigenMode,
    PsdReport,
    SpectralDecomposition,
    TorusCorrelation,
    apply_inverse,
    decompose,
    exponential_kernel,
    gaussian_kernel,
    kernel_from_spectrum,
    mode_coefficients,
    rotate_pattern,
    synthesize,
    validate_psd,
)
from .tuning import (
    AllocationEntry,
    PowerAllocation,
    TuningPopulation1D,
    TuningPopulation2D,
    mean_derivative,
    mean_response,
    optimal_tuning_1d,
    optimal_tuning_2d,
)
from .fisher import (
    FisherReport1D,
    FisherReport2D,
    crb,
    fisher_1d,
    fisher_1d_spectral,
    fisher_2d,
    fisher_derivative,
    fisher_max_bound,
    fisher_report_1d,
)
from .optimal import (
    AllocationSearchResult,
    AuditReport,
    ConditionReport,
    audit_random_allocations,
    check_condition,
    maximize_fisher_1d,
    maximize_fisher_2d,
)
from .mcsim import (
    NoiseModel,
    PathIntegrationReport,
    SimConfig,
    SimResult,
    estimate_local,
    estimate_phase,
    run_displacement_trials,
    run_path_integration,
)

__all__ = [name for name in dir() if not name.startswith("_")]
