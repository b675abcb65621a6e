"""Circulant symmetric correlation kernels on a ring, each its own spectral decomposition.

A kernel assigns a covariance to every ring distance between two of the n
uniformly placed neurons. The induced n x n matrix is circulant and symmetric,
so its eigenvectors are sampled cosines and sines: every interior frequency k
carries a (cos, sin) eigenvector pair sharing one eigenvalue, while k = 0 and
(for even n) the alternating k = n/2 mode are singletons. The DFT diagonalizes
the matrix, so the eigenvalues are the real rfft of its first row. That
read-only array, one entry per frequency 0..floor(n/2), is computed once when
the kernel is built and is the whole decomposition: ``CorrelationKernel``
reads its modes, pairing (0 < k < n/2) and eigenvectors off the array and n,
``SpectralDecomposition`` is another name for it and ``decompose`` returns
its argument. ``_nonnegative`` and ``_positive`` reject a spectrum by its sign for every
caller; ``validate_psd`` reports on it against the same ``PSD_TOLERANCE`` without raising.
Inversion, synthesis from eigen-coefficients and projection onto them are one
``rfft``/``irfft`` each: O(n log n) per vector, with no n x n matrix built.
Frequency k's rfft bin is conj(a + ib) times ``_bin_scale(n)[k]`` for its
(cos, sin) eigen-coefficients (a, b).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    MalformedKernelError,
    NotPositiveSemidefiniteError,
    ParameterRangeError,
    SingularCovarianceError,
)

TWO_PI = 2.0 * math.pi

#: Eigenvalues above -PSD_TOLERANCE are accepted as nonnegative; strictly
#: positive means above +PSD_TOLERANCE (required for inversion).
PSD_TOLERANCE = 1e-12


def _closed_form_eigenvalues(n: int, values: np.ndarray) -> np.ndarray:
    """Eigenvalues for frequencies 0..floor(n/2): the real rfft of the mirrored first row.

    ``values`` are c_0..c_{floor(n/2)}; the first row of the circulant matrix
    is c_0, c_1, ..., c_{floor(n/2)}, ..., c_1. An overflow gives inf or nan
    silently: the callers reject a spectrum or kernel that is not finite.
    """
    row = np.concatenate([values, values[1 : (n + 1) // 2][::-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfft(row).real


def _bin_scale(n: int) -> np.ndarray:
    """Per frequency 0..floor(n/2): sqrt(n) for the singletons (k = 0 and n/2), sqrt(n/2) for pairs."""
    scale = np.full(n // 2 + 1, math.sqrt(n / 2.0))
    scale[0] = math.sqrt(n)
    if n % 2 == 0:
        scale[-1] = math.sqrt(n)
    return scale


def _columns_to_bins(cols: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """rfft bins, along the last axis, of B diag(gain) c for each row c of ``cols``.

    ``cols`` (..., n) are ordered cos0, cos1, sin1, ... (then cos n/2 for even
    n), so the columns after the first line up with the interleaved (real,
    imaginary) entries after bin 0's: they are copied there, then conjugated
    and scaled in place. ``gain`` has one factor per frequency.
    """
    n = cols.shape[-1]
    bins = np.zeros(cols.shape[:-1] + (n // 2 + 1,), dtype=complex)
    parts = bins.view(float)  # re0, im0, re1, im1, ...
    parts[..., 0] = cols[..., 0]
    parts[..., 2 : n + 1] = cols[..., 1:]
    factor = _bin_scale(n) * gain
    bins.real *= factor
    bins.imag *= -factor
    return bins


@dataclass(frozen=True)
class CorrelationKernel:
    """Distance-indexed covariances c_0..c_{floor(n/2)} on a ring of n neurons.

    Entry (i, j) of the induced matrix is c at the ring distance
    min(|i-j|, n-|i-j|). c_0 must be positive; n must be at least 4. The
    read-only ``eigenvalues`` (frequencies 0..floor(n/2)) are transformed
    once, here, must be finite and take no part in equality, hashing or repr.
    They are the kernel's whole spectral decomposition: the modes, their
    pairing and the eigenvectors are read off them and n.
    """

    n: int
    values: tuple[float, ...]
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 4:
            raise MalformedKernelError(f"neuron count must be an integer >= 4, got {self.n!r}")
        vals = np.array(self.values, dtype=float)
        expected = self.n // 2 + 1
        if vals.shape != (expected,):
            raise MalformedKernelError(
                f"kernel for n={self.n} needs {expected} values c_0..c_{self.n // 2}, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise MalformedKernelError("kernel values must be finite")
        if vals[0] <= 0.0:
            raise MalformedKernelError(f"c_0 must be positive, got {vals[0]}")
        lams = _closed_form_eigenvalues(self.n, vals)
        finite = np.isfinite(lams)
        if not finite.all():
            k = int(np.argmin(finite))
            raise MalformedKernelError(
                f"kernel covariances overflow the spectrum: eigenvalue {lams[k]} at frequency {k}"
            )
        lams.flags.writeable = False
        object.__setattr__(self, "values", tuple(vals.tolist()))
        object.__setattr__(self, "eigenvalues", lams)

    def __reduce__(self):
        # copies and pickles rebuild the spectrum, so it stays read-only
        return CorrelationKernel, (self.n, self.values)

    @property
    def paired_frequencies(self) -> range:
        """Frequencies 0 < k < n/2, each carrying a (cos, sin) eigenvector pair."""
        return range(1, (self.n + 1) // 2)

    def mode(self, frequency: int) -> EigenMode:
        if not 0 <= frequency <= self.n // 2:
            raise KeyError(f"no mode at frequency {frequency}")
        return EigenMode(
            frequency=int(frequency),
            eigenvalue=float(self.eigenvalues[frequency]),
            paired=frequency in self.paired_frequencies,
        )

    def _angles(self, frequency: int) -> np.ndarray:
        """2 pi k i / n for i in 0..n-1, with k i reduced mod n in integers first, so
        no angle exceeds 2 pi and the eigenvectors keep their unit norm at any n."""
        return TWO_PI * ((frequency * np.arange(self.n, dtype=np.int64)) % self.n) / self.n

    def cos_vector(self, frequency: int) -> np.ndarray:
        """Unit-norm cosine eigenvector at the given frequency."""
        scale = math.sqrt(2.0 / self.n) if frequency in self.paired_frequencies else 1.0 / math.sqrt(self.n)
        return scale * np.cos(self._angles(frequency))

    def sin_vector(self, frequency: int) -> np.ndarray:
        """Unit-norm sine eigenvector; only paired frequencies have one."""
        if frequency not in self.paired_frequencies:
            raise ParameterRangeError(f"frequency {frequency} has no sine eigenvector")
        return math.sqrt(2.0 / self.n) * np.sin(self._angles(frequency))


#: A kernel is its own spectral decomposition; this name for it stays public.
SpectralDecomposition = CorrelationKernel


def _nonnegative(lams: np.ndarray) -> np.ndarray:
    """``lams`` (frequencies 0, 1, ...); NotPositiveSemidefiniteError if one is below -PSD_TOLERANCE."""
    k = int(np.argmin(lams))
    if lams[k] < -PSD_TOLERANCE:
        raise NotPositiveSemidefiniteError(
            f"kernel is not positive semidefinite: eigenvalue {lams[k]:.6g} at frequency {k}"
        )
    return lams


def _positive(lams: np.ndarray, first: int = 0) -> np.ndarray:
    """``lams`` (frequencies first, first + 1, ...); SingularCovarianceError unless all exceed PSD_TOLERANCE."""
    k = int(np.argmin(lams))
    if lams[k] <= PSD_TOLERANCE:
        raise SingularCovarianceError(
            f"covariance is singular at tolerance {PSD_TOLERANCE}: eigenvalue {lams[k]:.6g} at frequency {first + k}"
        )
    return lams


def exponential_kernel(n: int, c0: float = 1.0, rho: float = 0.5) -> CorrelationKernel:
    """Geometric decay c_d = c0 * rho**d over ring distance, PSD-checked."""
    if not 0.0 < rho < 1.0:
        raise MalformedKernelError(f"rho must lie in (0, 1), got {rho}")
    kernel = CorrelationKernel(n, tuple(c0 * rho**d for d in range(n // 2 + 1)))
    _nonnegative(kernel.eigenvalues)
    return kernel


def gaussian_kernel(n: int, c0: float = 1.0, length: float = 1.0) -> CorrelationKernel:
    """Ring-Gaussian decay c_d = c0 * exp(-d^2 / (2 length^2)), PSD-checked."""
    if length <= 0.0:
        raise MalformedKernelError(f"length must be positive, got {length}")
    two_l2 = 2.0 * length * length
    # where 2 length^2 underflows to 0 the kernel is its limit (c0, 0, ..., 0), as it is
    # already where the quotient overflows to -inf
    decay = [math.exp(-(d * d) / two_l2) if two_l2 else float(d == 0) for d in range(n // 2 + 1)]
    kernel = CorrelationKernel(n, tuple(c0 * w for w in decay))
    _nonnegative(kernel.eigenvalues)
    return kernel


def kernel_from_spectrum(n: int, eigenvalues: Iterable[float]) -> CorrelationKernel:
    """Kernel whose decomposition has the given eigenvalues at frequencies 0..floor(n/2).

    The cosine sum is its own inverse up to a factor n, so this is the exact
    preimage of ``decompose``: handy for constructing kernels with a prescribed spectrum.
    """
    lams = np.asarray(list(eigenvalues), dtype=float)
    half = n // 2
    if lams.shape != (half + 1,):
        raise MalformedKernelError(f"need {half + 1} eigenvalues for n={n}, got {lams.shape}")
    return CorrelationKernel(n, tuple(_closed_form_eigenvalues(n, lams) / n))


@dataclass(frozen=True)
class EigenMode:
    """One spatial frequency of the decomposition.

    Paired modes carry orthonormal cosine and sine eigenvectors sharing the
    eigenvalue; k = 0 and the alternating mode at k = n/2 (even n) are
    singletons whose sine sample vanishes identically.
    """

    frequency: int
    eigenvalue: float
    paired: bool


def decompose(kernel: CorrelationKernel) -> SpectralDecomposition:
    """The kernel itself: its eigenvalues, the rfft of its first row, were computed when it was built."""
    return kernel


class _Record:
    """Base of every result record, a frozen dataclass whose JSON form is its fields."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PsdReport(_Record):
    """Validity report for a decomposed kernel, never raised as an error."""

    min_eigenvalue: float
    min_frequency: int
    valid: bool
    strictly_positive: bool
    negative_frequencies: tuple[int, ...] = field(default_factory=tuple)


def validate_psd(decomp: SpectralDecomposition) -> PsdReport:
    """Report the smallest eigenvalue and whether the kernel is (strictly) PSD."""
    lams = decomp.eigenvalues
    k_min = int(np.argmin(lams))
    negative = tuple(int(k) for k in np.flatnonzero(lams < -PSD_TOLERANCE))
    return PsdReport(
        min_eigenvalue=float(lams[k_min]),
        min_frequency=k_min,
        valid=not negative,
        strictly_positive=bool(lams[k_min] > PSD_TOLERANCE),
        negative_frequencies=negative,
    )


def _ring_vectors(decomp: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """``v`` as floats, checked to hold vectors of length n along its last axis."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (decomp.n,):
        raise ValueError(f"expected length-{decomp.n} vectors on the last axis, got shape {v.shape}")
    return v


def apply_inverse(decomp: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """Multiply by the inverse correlation matrix: ``irfft(rfft(v) / lambda)``.

    Accepts a single vector of length n or a stack shaped (..., n). Raises
    SingularCovarianceError unless every eigenvalue exceeds PSD_TOLERANCE.
    """
    lams = _positive(decomp.eigenvalues)
    return np.fft.irfft(np.fft.rfft(_ring_vectors(decomp, v)) / lams, decomp.n)


def mode_coefficients(decomp: SpectralDecomposition, v: np.ndarray) -> dict[int, tuple[float, float]]:
    """Project a vector on each mode, returning (cos, sin) coefficients per frequency.

    Singleton frequencies report a zero sine coefficient.
    """
    bins = np.fft.rfft(_ring_vectors(decomp, v))
    scale = _bin_scale(decomp.n)
    cos, sin = (bins.real / scale).tolist(), (-bins.imag / scale).tolist()
    paired = decomp.paired_frequencies
    return {k: (cos[k], sin[k] if k in paired else 0.0) for k in range(len(cos))}


def synthesize(decomp: SpectralDecomposition, coeffs: Mapping[int, tuple[float, float]]) -> np.ndarray:
    """Rebuild a vector from per-frequency (cos, sin) coefficients."""
    scale = _bin_scale(decomp.n)
    bins = np.zeros(scale.size, dtype=complex)
    for k, (a, b) in coeffs.items():
        if not 0 <= k < scale.size:
            raise KeyError(f"no mode at frequency {k}")
        if k in decomp.paired_frequencies:
            bins.imag[k] = -b * scale[k]
        elif b != 0.0:
            raise ParameterRangeError(f"frequency {k} has no sine eigenvector to weight")
        bins.real[k] = a * scale[k]
    return np.fft.irfft(bins, decomp.n)


def rotate_pattern(
    decomp: SpectralDecomposition,
    coeffs: Mapping[int, tuple[float, float]],
    theta: float,
) -> dict[int, tuple[float, float]]:
    """Rotate a pattern by theta radians via its eigen-coefficients.

    Shifting a ring pattern rotates each frequency's (cos, sin) coefficient
    pair by k * theta:

        (a, b) -> (a cos(k theta) - b sin(k theta), b cos(k theta) + a sin(k theta))

    Composition is additive in theta and the per-mode norm is preserved.
    Coefficients may target paired frequencies only.
    """
    out: dict[int, tuple[float, float]] = {}
    for k, (a, b) in coeffs.items():
        if k not in decomp.paired_frequencies:
            raise ParameterRangeError(f"cannot rotate frequency {k}: it has no sine eigenvector")
        c, s = math.cos(k * theta), math.sin(k * theta)
        out[k] = (a * c - b * s, b * c + a * s)
    return out


@dataclass(frozen=True)
class TorusCorrelation:
    """Separable torus covariance: the same ring kernel on both axes.

    Entry ((i, j), (k, l)) equals C[i, k] * C[j, l], and the inverse factorizes
    the same way: on an (..., n, n) view of torus vectors it is
    ``apply_inverse`` along each axis, so no n^2 x n^2 matrix is needed.
    """

    axis: SpectralDecomposition
