"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import csv
import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ringfisher.errors import NotPositiveSemidefiniteError, SingularCovarianceError
from ringfisher.spectral import (
    TWO_PI,
    CorrelationKernel,
    SpectralDecomposition,
    apply_inverse,
    decompose,
    exponential_kernel,
    kernel_from_spectrum,
)
from ringfisher.tuning import TuningPopulation1D, _basis, _coefficients, _lattice_waveform


def dense_ring_matrix(kernel: CorrelationKernel) -> np.ndarray:
    """Independent oracle: materialize the matrix straight from the definition."""
    n = kernel.n
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = abs(i - j)
            out[i, j] = kernel.values[min(d, n - d)]
    return out


def dense_torus_matrix(kernel: CorrelationKernel) -> np.ndarray:
    """Dense n^2 x n^2 torus covariance: entry (i n + j, k n + l) is C[i, k] C[j, l]."""
    c = dense_ring_matrix(kernel)
    return np.kron(c, c)


def separable_torus_inverse(decomp: SpectralDecomposition) -> np.ndarray:
    """The torus inverse as the package applies it: ``apply_inverse`` along both
    axes of each identity column viewed as an n x n grid, never an n^2 x n^2 solve."""
    n = decomp.n
    grids = apply_inverse(decomp, np.eye(n * n).reshape(n * n, n, n))
    grids = apply_inverse(decomp, grids.swapaxes(-1, -2)).swapaxes(-1, -2)
    return grids.reshape(n * n, n * n)


def float_digest(values) -> str:
    """SHA-256 of the values as little-endian float64 bytes: pins every bit of an output."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def modes(decomp: SpectralDecomposition) -> tuple:
    """Every frequency's ``EigenMode``, 0..floor(n/2) in order, so frequency k is ``modes(decomp)[k]``."""
    return tuple(decomp.mode(k) for k in range(decomp.n // 2 + 1))


def mean_response(pop: TuningPopulation1D, theta) -> np.ndarray:
    """Mean population activity f(theta), rows following theta when given an array: the
    order-0 coefficients on the active eigenvector rows, integration constants zero."""
    return _coefficients(pop, theta, 0) @ _basis(pop)


def dense_eigenvalues(kernel: CorrelationKernel) -> np.ndarray:
    """Independent oracle: sorted eigenvalues from a dense symmetric solver."""
    return np.linalg.eigvalsh(dense_ring_matrix(kernel))


def dense_basis(decomp: SpectralDecomposition) -> np.ndarray:
    """Dense oracle: orthonormal eigenvectors as columns cos0, cos1, sin1, ..., cos n/2 (even n)."""
    cols = []
    for m in modes(decomp):
        cols.append(decomp.cos_vector(m.frequency))
        if m.paired:
            cols.append(decomp.sin_vector(m.frequency))
    return np.column_stack(cols)


def column_eigenvalues(decomp: SpectralDecomposition) -> np.ndarray:
    """Eigenvalue of each ``dense_basis`` column."""
    return np.array([m.eigenvalue for m in modes(decomp) for _ in range(2 if m.paired else 1)])


def eigenvalue_multiset(decomp: SpectralDecomposition) -> np.ndarray:
    """Closed-form eigenvalues repeated by multiplicity, sorted ascending."""
    return np.sort(column_eigenvalues(decomp))


def random_psd_kernel(
    rng: np.random.Generator, n: int, lam_lo: float = 0.05, lam_hi: float = 2.0
) -> CorrelationKernel:
    """Random strictly positive kernel built from a prescribed spectrum."""
    lams = rng.uniform(lam_lo, lam_hi, size=n // 2 + 1)
    return kernel_from_spectrum(n, lams)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250809)


@pytest.fixture
def n4_kernel() -> CorrelationKernel:
    return CorrelationKernel(4, (1.0, 0.5, 0.25))


@pytest.fixture
def n4_decomp(n4_kernel):
    return decompose(n4_kernel)


@pytest.fixture
def n6_kernel() -> CorrelationKernel:
    return CorrelationKernel(6, (1.0, 0.4, 0.1, 0.05))


@pytest.fixture
def n6_decomp(n6_kernel):
    return decompose(n6_kernel)


@pytest.fixture(scope="session")
def exp1m_decomp() -> SpectralDecomposition:
    """Exponential rho = 0.5 at n = 2**20: its optimum k = 2**19 - 1 puts 2 pi k i up to
    about 3.5e12 rad, so phases that are not reduced mod 2 pi lose digits here."""
    return decompose(exponential_kernel(2**20))


def cosine_sum_eigenvalues(kernel: CorrelationKernel) -> np.ndarray:
    """Independent oracle: lambda_k = sum over all n ring offsets d of c(d) cos(2 pi k d / n)."""
    n = kernel.n
    c = [kernel.values[min(d, n - d)] for d in range(n)]
    return np.array(
        [sum(c[d] * np.cos(2.0 * np.pi * k * d / n) for d in range(n)) for k in range(n // 2 + 1)]
    )


def assert_close_relative(actual, expected, rel: float = 1e-12) -> None:
    """Entrywise agreement within ``rel`` times the largest magnitude of ``expected``."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rel * np.max(np.abs(expected)))


def white_kernel(n: int, sigma_sq: float = 1.0) -> CorrelationKernel:
    return CorrelationKernel(n, (sigma_sq,) + (0.0,) * (n // 2))


#: n = 8 spectra (frequencies 0..4) that no optimum or ordering may read, with the error
#: each must raise: a negative paired eigenvalue, a negative singleton at k = 0, and a
#: paired eigenvalue too small to divide by.
INVALID_SPECTRA = {
    "negative_paired": ((1.0, 0.5, -0.3, 1.0, 1.0), NotPositiveSemidefiniteError),
    "negative_k0": ((-0.2, 0.5, 1.0, 1.0, 1.0), NotPositiveSemidefiniteError),
    "tiny_paired": ((1.0, 5.6e-17, 0.5, 1.0, 1.0), SingularCovarianceError),
}


_NEIGHBOR_SHIFTS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def count_toroidal_maxima(field: np.ndarray) -> int:
    """Count local maxima of a 2D field with wrap-around (toroidal) adjacency.

    A maximum is a connected plateau of equal values that dominates all eight
    neighbors of each of its pixels; a constant field has none.
    """
    f = np.asarray(field, dtype=float)
    if np.all(f == f.flat[0]):
        return 0
    candidate = np.ones_like(f, dtype=bool)
    for di, dj in _NEIGHBOR_SHIFTS:
        candidate &= f >= np.roll(np.roll(f, di, axis=0), dj, axis=1)
    rows, cols = f.shape
    seen = np.zeros_like(candidate)
    count = 0
    for i, j in zip(*np.nonzero(candidate)):
        if seen[i, j]:
            continue
        count += 1
        stack = [(i, j)]
        seen[i, j] = True
        while stack:
            a, b = stack.pop()
            for di, dj in _NEIGHBOR_SHIFTS:
                na, nb = (a + di) % rows, (b + dj) % cols
                if candidate[na, nb] and not seen[na, nb]:
                    seen[na, nb] = True
                    stack.append((na, nb))
    return count


def read_field_csv(path: str | Path) -> np.ndarray:
    """Parse a field CSV back into a float matrix."""
    with open(path, newline="") as handle:
        return np.array([[float(v) for v in row] for row in csv.reader(handle)])


def csv_module_field_csv(cx: np.ndarray, cy: np.ndarray, path: str | Path) -> None:
    """Byte oracle for ``io.write_field_csv``: csv.writer over ``repr(float(v))`` of the
    whole ``np.outer(cx, cy)``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in np.outer(cx, cy):
            writer.writerow([repr(float(v)) for v in row])


def whole_array_pgm(cx: np.ndarray, cy: np.ndarray, path: str | Path) -> None:
    """Byte oracle for ``io.write_pgm``: the whole ``np.outer(cx, cy)``, its extremes read
    off the array, scaled out of place as rint(255 (f - lo) / (hi - lo)); black only when
    lo == hi, however narrow a non-zero range."""
    f = np.outer(cx, cy)
    lo, hi = float(f.min()), float(f.max())
    if lo == hi:
        pixels = np.zeros_like(f, dtype=np.uint8)
    else:
        pixels = np.rint(255.0 * (f - lo) / (hi - lo)).astype(np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def exact_pgm(cx: np.ndarray, cy: np.ndarray, path: str | Path) -> None:
    """Exact oracle for ``io.write_pgm``: each field entry, the IEEE product cx[a] * cy[b],
    as a Fraction, scaled as round(255 (f - lo) / (hi - lo)) with ties to even."""
    field = [[Fraction(a * b) for b in cy.tolist()] for a in cx.tolist()]
    lo, hi = min(map(min, field)), max(map(max, field))
    pixels = bytes(0 if lo == hi else round(255 * (f - lo) / (hi - lo)) for row in field for f in row)
    with open(path, "wb") as handle:
        handle.write(f"P5\n{len(cy)} {len(cx)}\n255\n".encode("ascii") + pixels)


def csv_module_curves_csv(
    pop: TuningPopulation1D, path: str | Path, samples: int = 256, offset: float = 0.0
) -> None:
    """Byte oracle for ``io.write_curves_csv``: the waveform on the whole L = lcm(S, n)
    lattice, gathered into the S x n table at points (s L/S - i L/n) mod L and written
    by csv.writer over ``repr(float(v))``."""
    thetas = TWO_PI * np.arange(samples) / samples
    lattice = math.lcm(samples, pop.n)
    rows = np.arange(samples)[:, None] * (lattice // samples)
    index = (rows - np.arange(pop.n) * (lattice // pop.n)) % lattice
    curves = _lattice_waveform(pop, lattice, np.arange(lattice))[index] + offset
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta"] + [f"neuron_{i}" for i in range(pop.n)])
        for t, row in zip(thetas, curves):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
