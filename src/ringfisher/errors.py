"""Exception types shared across the package."""


class RingFisherError(Exception):
    """Base class for all package-specific errors."""


class MalformedKernelError(RingFisherError):
    """Kernel definition is structurally invalid (wrong value count, bad field)."""


class NotPositiveSemidefiniteError(RingFisherError):
    """Correlation kernel has a negative eigenvalue beyond tolerance."""


class SingularCovarianceError(RingFisherError):
    """Covariance cannot be inverted: an eigenvalue is at or below tolerance."""


class ConditionViolatedError(RingFisherError):
    """The two spectral orderings disagree; single-mode concentration invalid."""


class ParameterRangeError(RingFisherError, ValueError):
    """A value lies outside its range: an unpaired frequency, a field resolution, a phase shift."""


class MultiModePopulationError(RingFisherError):
    """Phase readout requires a population with exactly one active frequency."""
