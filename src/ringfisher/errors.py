"""Exception types shared across the package."""


class RingFisherError(Exception):
    """Base class for all package-specific errors."""


class MalformedKernelError(RingFisherError):
    """Kernel definition is structurally invalid (wrong value count, bad field)."""


class NotPositiveSemidefiniteError(RingFisherError):
    """Correlation kernel has a negative eigenvalue beyond tolerance."""


class SingularCovarianceError(RingFisherError):
    """Covariance cannot be inverted: an eigenvalue is at or below tolerance."""


class UnpairedModeError(RingFisherError):
    """Coefficient rotation targeted a frequency without a sine partner."""


class ConditionViolatedError(RingFisherError):
    """The two spectral orderings disagree; single-mode concentration invalid."""


class ResolutionOutOfRangeError(RingFisherError):
    """Requested field sampling resolution is outside the supported range."""


class NonpositiveInformationError(RingFisherError):
    """Cramer-Rao reciprocal requested for a nonpositive Fisher information."""


class MultiModePopulationError(RingFisherError):
    """Phase readout requires a population with exactly one active frequency."""
