"""Circulant symmetric correlation kernels on a ring and their spectral decomposition.

A kernel assigns a covariance to every ring distance between two of the n
uniformly placed neurons. The induced n x n matrix is circulant and symmetric,
so its eigenvectors are sampled cosines and sines: every interior frequency k
carries a (cos, sin) eigenvector pair sharing one eigenvalue, while k = 0 and
(for even n) the alternating k = n/2 mode are singletons. The DFT diagonalizes
the matrix, so the eigenvalues are the real rfft of its first row. That
read-only array, one entry per frequency 0..floor(n/2), is the whole
decomposition: ``SpectralDecomposition`` stores nothing else, and its modes,
pairing (0 < k < n/2) and PSD report are read off the array and n.
Inversion, synthesis from eigen-coefficients and projection onto them are one
``rfft``/``irfft`` each: O(n log n) per vector, with no n x n matrix built.
Arrays of eigen-coefficients follow the column order of the orthonormal
eigenbasis, cos0, cos1, sin1, cos2, sin2, ... (then cos n/2 for even n);
``_columns_to_bins`` and ``_bins_to_columns`` map that layout to and from
rfft bins.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    MalformedKernelError,
    NotPositiveSemidefiniteError,
    SingularCovarianceError,
    UnpairedModeError,
)

TWO_PI = 2.0 * math.pi

#: Eigenvalues above -PSD_TOLERANCE are accepted as nonnegative; strictly
#: positive means above +PSD_TOLERANCE (required for inversion).
PSD_TOLERANCE = 1e-12


def _closed_form_eigenvalues(n: int, values: np.ndarray) -> np.ndarray:
    """Eigenvalues for frequencies 0..floor(n/2): the real rfft of the mirrored first row.

    ``values`` are c_0..c_{floor(n/2)}; the first row of the circulant matrix
    is c_0, c_1, ..., c_{floor(n/2)}, ..., c_1.
    """
    values = np.asarray(values, dtype=float)
    row = np.concatenate([values, values[1 : (n + 1) // 2][::-1]])
    return np.fft.rfft(row).real


def _column_weights(n: int) -> np.ndarray:
    """Factor from each eigen-coefficient column to its entry among the rfft bins.

    Columns are ordered cos0, cos1, sin1, cos2, sin2, ... (then cos n/2 for
    even n). The factor is sqrt(n) for the singletons (k = 0 and, for even n,
    k = n/2) and sqrt(n/2) for pairs; a cosine weight is the real part of bin k,
    a sine weight the negative imaginary part.
    """
    w = np.full(n, math.sqrt(n / 2.0))
    w[2::2] *= -1.0
    w[0] = math.sqrt(n)
    if n % 2 == 0:
        w[-1] = math.sqrt(n)
    return w


def _columns_to_bins(cols: np.ndarray, gain: np.ndarray | None = None) -> np.ndarray:
    """rfft bins, along the last axis, of B diag(gain) c for each row c of ``cols``.

    ``cols`` (..., n) holds eigen-coefficients in the ``_column_weights``
    layout and ``gain`` one factor per frequency 0..floor(n/2). The columns
    after the first line up with the interleaved (real, imaginary) bin
    entries after bin 0's, so one multiply fills them. ``irfft(bins, n)`` is
    the synthesized vector.
    """
    n = cols.shape[-1]
    w = _column_weights(n)
    if gain is not None:
        w *= gain[(np.arange(n) + 1) // 2]
    parts = np.empty(cols.shape[:-1] + (2 * (n // 2 + 1),))  # re0, im0, re1, im1, ...
    parts[..., 0] = cols[..., 0] * w[0]
    parts[..., 1] = 0.0
    np.multiply(cols[..., 1:], w[1:], out=parts[..., 2 : n + 1])
    if n % 2 == 0:
        parts[..., -1] = 0.0
    return parts.view(complex)


def _bins_to_columns(bins: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``_columns_to_bins``: eigen-coefficients (..., n) of rfft bins (..., n//2 + 1)."""
    parts = np.ascontiguousarray(bins).view(float)
    w = _column_weights(n)
    cols = np.empty(bins.shape[:-1] + (n,))
    cols[..., 0] = parts[..., 0] / w[0]
    np.divide(parts[..., 2 : n + 1], w[1:], out=cols[..., 1:])
    return cols


@dataclass(frozen=True)
class CorrelationKernel:
    """Distance-indexed covariances c_0..c_{floor(n/2)} on a ring of n neurons.

    Entry (i, j) of the induced matrix is c at the ring distance
    min(|i-j|, n-|i-j|). c_0 must be positive; n must be at least 4.
    """

    n: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 4:
            raise MalformedKernelError(f"neuron count must be an integer >= 4, got {self.n!r}")
        vals = tuple(float(v) for v in self.values)
        expected = self.n // 2 + 1
        if len(vals) != expected:
            raise MalformedKernelError(
                f"kernel for n={self.n} needs {expected} values c_0..c_{self.n // 2}, got {len(vals)}"
            )
        if not all(math.isfinite(v) for v in vals):
            raise MalformedKernelError("kernel values must be finite")
        if vals[0] <= 0.0:
            raise MalformedKernelError(f"c_0 must be positive, got {vals[0]}")
        object.__setattr__(self, "values", vals)


def exponential_kernel(n: int, c0: float = 1.0, rho: float = 0.5) -> CorrelationKernel:
    """Geometric decay c_d = c0 * rho**d over ring distance, PSD-checked."""
    if not 0.0 < rho < 1.0:
        raise MalformedKernelError(f"rho must lie in (0, 1), got {rho}")
    kernel = CorrelationKernel(n, tuple(c0 * rho**d for d in range(n // 2 + 1)))
    _require_psd(kernel)
    return kernel


def gaussian_kernel(n: int, c0: float = 1.0, length: float = 1.0) -> CorrelationKernel:
    """Ring-Gaussian decay c_d = c0 * exp(-d^2 / (2 length^2)), PSD-checked."""
    if length <= 0.0:
        raise MalformedKernelError(f"length must be positive, got {length}")
    kernel = CorrelationKernel(
        n, tuple(c0 * math.exp(-(d * d) / (2.0 * length * length)) for d in range(n // 2 + 1))
    )
    _require_psd(kernel)
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


def _require_psd(kernel: CorrelationKernel) -> None:
    lams = _closed_form_eigenvalues(kernel.n, np.asarray(kernel.values))
    if lams.min() < -PSD_TOLERANCE:
        k_bad = int(np.argmin(lams))
        raise NotPositiveSemidefiniteError(
            f"kernel is not positive semidefinite: eigenvalue {lams[k_bad]:.6g} at frequency {k_bad}"
        )


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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Analytic eigensystem of a circulant symmetric kernel.

    The read-only ``eigenvalues`` array (frequencies 0..floor(n/2), computed
    once) is the whole decomposition: the modes, their pairing and the PSD
    report are read off it and n.
    """

    kernel: CorrelationKernel
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lams = _closed_form_eigenvalues(self.kernel.n, np.asarray(self.kernel.values))
        lams.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lams)

    @property
    def n(self) -> int:
        return self.kernel.n

    @property
    def paired_frequencies(self) -> range:
        """Frequencies 0 < k < n/2, each carrying a (cos, sin) eigenvector pair."""
        return range(1, (self.n + 1) // 2)

    @property
    def modes(self) -> tuple[EigenMode, ...]:
        """Every frequency 0..floor(n/2) in order, so frequency k is ``modes[k]``."""
        return tuple(self.mode(k) for k in range(self.n // 2 + 1))

    def mode(self, frequency: int) -> EigenMode:
        if not 0 <= frequency <= self.n // 2:
            raise KeyError(f"no mode at frequency {frequency}")
        return EigenMode(
            frequency=int(frequency),
            eigenvalue=float(self.eigenvalues[frequency]),
            paired=0 < frequency < (self.n + 1) // 2,
        )

    def is_paired(self, frequency: int) -> bool:
        return self.mode(frequency).paired

    def cos_vector(self, frequency: int) -> np.ndarray:
        """Unit-norm cosine eigenvector at the given frequency."""
        n = self.n
        idx = np.arange(n)
        if frequency == 0:
            return np.full(n, 1.0 / math.sqrt(n))
        if n % 2 == 0 and frequency == n // 2:
            return np.where(idx % 2 == 0, 1.0, -1.0) / math.sqrt(n)
        return math.sqrt(2.0 / n) * np.cos(TWO_PI * frequency * idx / n)

    def sin_vector(self, frequency: int) -> np.ndarray:
        """Unit-norm sine eigenvector; only paired frequencies have one."""
        if not self.is_paired(frequency):
            raise UnpairedModeError(f"frequency {frequency} has no sine eigenvector")
        idx = np.arange(self.n)
        return math.sqrt(2.0 / self.n) * np.sin(TWO_PI * frequency * idx / self.n)

    def min_paired_eigenvalue(self) -> float:
        """Smallest eigenvalue over the paired frequencies (k = 1 is always one, as n >= 4)."""
        return float(self.eigenvalues[1 : (self.n + 1) // 2].min())


def decompose(kernel: CorrelationKernel) -> SpectralDecomposition:
    """Spectrally decompose a kernel: its eigenvalues are the rfft of its first row."""
    return SpectralDecomposition(kernel)


@dataclass(frozen=True)
class PsdReport:
    """Validity report for a decomposed kernel, never raised as an error."""

    min_eigenvalue: float
    min_frequency: int
    valid: bool
    strictly_positive: bool
    negative_frequencies: tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return asdict(self)


def validate_psd(decomp: SpectralDecomposition, tol: float = PSD_TOLERANCE) -> PsdReport:
    """Report the smallest eigenvalue and whether the kernel is (strictly) PSD."""
    lams = decomp.eigenvalues
    k_min = int(np.argmin(lams))
    negative = tuple(int(k) for k in np.flatnonzero(lams < -tol))
    return PsdReport(
        min_eigenvalue=float(lams[k_min]),
        min_frequency=k_min,
        valid=not negative,
        strictly_positive=bool(lams.min() > tol),
        negative_frequencies=negative,
    )


def _ring_vectors(decomp: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """``v`` as floats, checked to hold vectors of length n along its last axis."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (decomp.n,):
        raise ValueError(f"expected length-{decomp.n} vectors on the last axis, got shape {v.shape}")
    return v


def _invertible_eigenvalues(decomp: SpectralDecomposition, tol: float = PSD_TOLERANCE) -> np.ndarray:
    """The eigenvalues, after raising SingularCovarianceError unless every one exceeds ``tol``."""
    lams = decomp.eigenvalues
    if lams.min() <= tol:
        raise SingularCovarianceError(
            f"covariance is singular at tolerance {tol}: min eigenvalue {lams.min():.6g}"
        )
    return lams


def apply_inverse(
    decomp: SpectralDecomposition, v: np.ndarray, tol: float = PSD_TOLERANCE
) -> np.ndarray:
    """Multiply by the inverse correlation matrix: ``irfft(rfft(v) / lambda)``.

    Accepts a single vector of length n or a stack shaped (..., n). Raises
    SingularCovarianceError unless every eigenvalue exceeds ``tol``.
    """
    lams = _invertible_eigenvalues(decomp, tol)
    return np.fft.irfft(np.fft.rfft(_ring_vectors(decomp, v)) / lams, decomp.n)


def _cos_column(k: int) -> int:
    """Column of frequency k's cosine coefficient; its sine, if paired, is the next one."""
    return max(2 * k - 1, 0)


def mode_coefficients(decomp: SpectralDecomposition, v: np.ndarray) -> dict[int, tuple[float, float]]:
    """Project a vector on each mode, returning (cos, sin) coefficients per frequency.

    Singleton frequencies report a zero sine coefficient.
    """
    cols = _bins_to_columns(np.fft.rfft(_ring_vectors(decomp, v)), decomp.n)
    out: dict[int, tuple[float, float]] = {}
    for m in decomp.modes:
        c = _cos_column(m.frequency)
        out[m.frequency] = (float(cols[c]), float(cols[c + 1]) if m.paired else 0.0)
    return out


def synthesize(decomp: SpectralDecomposition, coeffs: Mapping[int, tuple[float, float]]) -> np.ndarray:
    """Rebuild a vector from per-frequency (cos, sin) coefficients."""
    cols = np.zeros(decomp.n)
    for k, (a, b) in coeffs.items():
        paired = decomp.mode(k).paired
        c = _cos_column(k)
        cols[c] = a
        if paired:
            cols[c + 1] = b
        elif b != 0.0:
            raise UnpairedModeError(f"frequency {k} has no sine eigenvector to weight")
    return np.fft.irfft(_columns_to_bins(cols), decomp.n)


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
        if not decomp.is_paired(k):
            raise UnpairedModeError(f"cannot rotate singleton frequency {k}")
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

    @property
    def n(self) -> int:
        return self.axis.n
