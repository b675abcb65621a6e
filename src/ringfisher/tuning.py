"""Tuning-curve populations expressed as power allocations over eigen-modes.

A population's derivative profile lives in the paired eigen-modes of the noise
correlation: each active frequency k contributes amplitude T_k and phase c_k,
with the squared amplitudes summing to the signal power budget. Integrating
once (constants fixed to zero) gives the mean responses, so every neuron's
tuning curve is the same waveform shifted by the inter-neuron spacing. The
optimal constructions concentrate the whole budget on a single frequency;
on the torus the two axes share one spectrum and multiply.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AxisMismatchError, ConditionViolatedError, ResolutionOutOfRangeError
from .spectral import TWO_PI, SpectralDecomposition

POWER_CONSISTENCY_TOL = 1e-10

FIELD_RESOLUTION_MIN = 8
FIELD_RESOLUTION_MAX = 4096

#: Scores within this absolute distance of the minimum tie; ties go to the smallest frequency.
ORDER_TIE_TOL = 1e-12


@dataclass(frozen=True)
class AllocationEntry:
    frequency: int
    amplitude: float
    phase: float = 0.0


@dataclass(frozen=True)
class PowerAllocation:
    """Signal power distributed over paired frequencies with phases.

    ``power`` defaults to the sum of squared amplitudes; passing it explicitly
    asserts consistency. An empty allocation (zero power) is a valid degenerate
    object so that downstream evaluations can report zero cleanly.
    """

    entries: tuple[AllocationEntry, ...]
    power: float = -1.0  # sentinel: derive from entries

    def __post_init__(self) -> None:
        entries = tuple(
            AllocationEntry(int(e.frequency), float(e.amplitude), float(e.phase))
            for e in self.entries
        )
        freqs = [e.frequency for e in entries]
        if len(set(freqs)) != len(freqs):
            raise ValueError(f"duplicate frequencies in allocation: {sorted(freqs)}")
        for e in entries:
            if e.amplitude < 0.0 or not math.isfinite(e.amplitude):
                raise ValueError(f"amplitude must be finite and >= 0, got {e.amplitude}")
            if e.frequency < 1:
                raise ValueError(f"allocation frequencies must be >= 1, got {e.frequency}")
        total = float(sum(e.amplitude**2 for e in entries))
        if self.power == -1.0:
            object.__setattr__(self, "power", total)
        elif abs(self.power - total) > POWER_CONSISTENCY_TOL * max(1.0, abs(self.power)):
            raise ValueError(
                f"declared power {self.power} inconsistent with amplitudes (sum sq = {total})"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def single(cls, frequency: int, power: float, phase: float = 0.0) -> "PowerAllocation":
        if power <= 0.0:
            raise ValueError(f"power must be positive, got {power}")
        return cls(entries=(AllocationEntry(frequency, math.sqrt(power), phase),))

    @classmethod
    def from_powers(cls, powers: dict[int, float]) -> "PowerAllocation":
        """Build entries from per-frequency power shares (amplitudes are square roots)."""
        entries = tuple(
            AllocationEntry(k, math.sqrt(p)) for k, p in sorted(powers.items()) if p > 0.0
        )
        return cls(entries=entries)

    def max_frequency(self) -> int:
        return max((e.frequency for e in self.entries), default=0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TuningPopulation1D:
    """Ring population whose derivative profile is the given allocation."""

    decomp: SpectralDecomposition
    allocation: PowerAllocation

    def __post_init__(self) -> None:
        for e in self.allocation.entries:
            if e.frequency not in self.decomp.paired_frequencies:
                raise ValueError(
                    f"frequency {e.frequency} is not a paired mode of the n={self.decomp.n} ring"
                )

    @property
    def n(self) -> int:
        return self.decomp.n


@dataclass(frozen=True)
class TuningPopulation2D:
    """Separable torus population: x and y axes share kernel and amplitude spectrum."""

    x: TuningPopulation1D
    y: TuningPopulation1D
    phase_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.x.decomp.kernel != self.y.decomp.kernel:
            raise AxisMismatchError("x and y axes must share one correlation kernel")
        xs = {e.frequency: e for e in self.x.allocation.entries}
        ys = {e.frequency: e for e in self.y.allocation.entries}
        if set(xs) != set(ys):
            raise ValueError("x and y allocations must activate the same frequencies")
        for k, ex in xs.items():
            ey = ys[k]
            if abs(ex.amplitude - ey.amplitude) > POWER_CONSISTENCY_TOL * max(1.0, ex.amplitude):
                raise ValueError(f"amplitude spectra differ at frequency {k}")
            gap = (ey.phase - ex.phase - k * self.phase_shift) % TWO_PI
            gap = min(gap, TWO_PI - gap)
            if gap > 1e-10:
                raise ValueError(
                    f"y phase at frequency {k} must equal x phase + {k} * phase_shift"
                )

    @classmethod
    def from_axis(
        cls, x: TuningPopulation1D, phase_shift: float = 0.0
    ) -> "TuningPopulation2D":
        """Derive the y axis by shifting each frequency's phase by k * phase_shift."""
        y_alloc = PowerAllocation(
            entries=tuple(
                AllocationEntry(e.frequency, e.amplitude, e.phase + e.frequency * phase_shift)
                for e in x.allocation.entries
            )
        )
        return cls(x=x, y=TuningPopulation1D(x.decomp, y_alloc), phase_shift=phase_shift)

    @property
    def n(self) -> int:
        return self.x.n


def _as_theta_array(theta) -> tuple[np.ndarray, bool]:
    arr = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _entry_sum(
    pop: TuningPopulation1D, thetas: np.ndarray, order: int, neuron: int | None = None
) -> np.ndarray:
    """Theta-derivative of the given order (0, 1 or 2) of the mean activity.

    Rows follow ``thetas``; columns are all neurons, or one neuron's samples
    as a flat array when ``neuron`` is given, so no thetas x n array is built.
    With psi = k theta + c, each active frequency contributes
    (T/k) [sin(psi) w_k - cos(psi) w'_k] at order 0, T [cos(psi) w_k + sin(psi) w'_k]
    at order 1 and T k [cos(psi) w'_k - sin(psi) w_k] at order 2.
    """
    cols = slice(None) if neuron is None else neuron
    out = np.zeros((thetas.size, pop.n) if neuron is None else thetas.size)
    outer = np.multiply.outer
    for e in pop.allocation.entries:
        psi = e.frequency * thetas + e.phase
        sin, cos = np.sin(psi), np.cos(psi)
        w = pop.decomp.cos_vector(e.frequency)[cols]
        wp = pop.decomp.sin_vector(e.frequency)[cols]
        if order == 0:
            out += (e.amplitude / e.frequency) * (outer(sin, w) - outer(cos, wp))
        elif order == 1:
            out += e.amplitude * (outer(cos, w) + outer(sin, wp))
        else:
            out += e.amplitude * e.frequency * (outer(cos, wp) - outer(sin, w))
    return out


def mean_response(pop: TuningPopulation1D, theta) -> np.ndarray:
    """Mean population activity f(theta); rows follow theta when given an array.

    The integral of the derivative profile with integration constants fixed
    to zero.
    """
    thetas, scalar = _as_theta_array(theta)
    out = _entry_sum(pop, thetas, 0)
    return out[0] if scalar else out


def mean_derivative(pop: TuningPopulation1D, theta) -> np.ndarray:
    """Derivative of the mean activity with respect to theta (closed form)."""
    thetas, scalar = _as_theta_array(theta)
    out = _entry_sum(pop, thetas, 1)
    return out[0] if scalar else out


def mean_second_derivative(pop: TuningPopulation1D, theta) -> np.ndarray:
    """Second derivative of the mean activity (closed form)."""
    thetas, scalar = _as_theta_array(theta)
    out = _entry_sum(pop, thetas, 2)
    return out[0] if scalar else out


def neuron_curve(pop: TuningPopulation1D, neuron: int, thetas: np.ndarray) -> np.ndarray:
    """Single neuron's tuning curve sampled at the given angles."""
    return _entry_sum(pop, _as_theta_array(thetas)[0], 0, neuron)


def _lattice_waveform(pop: TuningPopulation1D, lattice: int, index: np.ndarray) -> np.ndarray:
    """Neuron 0's tuning curve at the angles 2 pi index / lattice, ``index`` in 0..lattice - 1.

    Neuron i's curve is this waveform delayed by 2 pi i / n. Each phase
    k theta is reduced in integers, (k index) mod lattice, before it becomes
    an angle, so no sine argument exceeds 2 pi plus the phase c_k.
    """
    if lattice * pop.n > np.iinfo(np.int64).max:
        raise ValueError(f"lattice of {lattice} points is too fine for int64 phases at n = {pop.n}")
    index = np.asarray(index, dtype=np.int64)
    out = np.zeros(index.shape)
    for e in pop.allocation.entries:
        turns = (e.frequency * index) % lattice
        out += (e.amplitude / e.frequency) * np.sin(TWO_PI * turns / lattice + e.phase)
    out *= math.sqrt(2.0 / pop.n)
    return out


def _paired_arrays(decomp: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Paired frequencies (ascending) and their eigenvalues."""
    paired = decomp.paired_frequencies
    freqs = np.arange(paired.start, paired.stop)
    return freqs, decomp.eigenvalues[freqs]


def _k2_weighted(freqs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Torus ordering scores k^2 lambda_k."""
    return freqs.astype(float) ** 2 * lams


def _ties(freqs: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Frequencies whose score ties the minimum within ORDER_TIE_TOL."""
    return freqs[scores <= scores.min() + ORDER_TIE_TOL]


def _tie_argmin(freqs: np.ndarray, scores: np.ndarray) -> int:
    """Smallest frequency whose score ties the minimum."""
    return int(_ties(freqs, scores).min())


def optimal_tuning_1d(decomp: SpectralDecomposition, power: float) -> TuningPopulation1D:
    """Concentrate the whole budget on the paired frequency with smallest eigenvalue.

    Ties break toward the smaller frequency; phase defaults to zero so the
    derivative at theta = 0 aligns with the cosine eigenvector.
    """
    k_star = _tie_argmin(*_paired_arrays(decomp))
    return TuningPopulation1D(decomp, PowerAllocation.single(k_star, power))


def optimal_tuning_2d(
    decomp: SpectralDecomposition, power: float, phase_shift: float = 0.0
) -> TuningPopulation2D:
    """Single-frequency rectangular-grid optimum for the separable torus.

    Valid only when the eigenvalue minimizer and the (frequency^2 * eigenvalue)
    minimizer coincide over paired modes; otherwise the concentration argument
    does not apply and the general simplex search must be used instead.
    """
    freqs, lams = _paired_arrays(decomp)
    k_lam = _tie_argmin(freqs, lams)
    k_klam = _tie_argmin(freqs, _k2_weighted(freqs, lams))
    if k_lam != k_klam:
        raise ConditionViolatedError(
            f"eigenvalue minimizer {k_lam} and weighted minimizer {k_klam} disagree; "
            "use the general allocation search (optimal.maximize_fisher_2d)"
        )
    x = TuningPopulation1D(decomp, PowerAllocation.single(k_lam, power))
    return TuningPopulation2D.from_axis(x, phase_shift=phase_shift)


def sample_firing_field(
    pop2d: TuningPopulation2D,
    neuron: tuple[int, int],
    resolution: int,
    offset: float | None = None,
) -> np.ndarray:
    """One torus neuron's firing field: the outer product of its two axis curves.

    The curves are sampled at ``resolution`` angles per axis, which must lie
    in FIELD_RESOLUTION_MIN..FIELD_RESOLUTION_MAX (else
    ResolutionOutOfRangeError). With ``offset`` None each curve is lifted by
    its own minimum before multiplying, which renders the positive-bump
    lattice (display convention); a number is added to each curve instead,
    so 0 keeps the signed product.
    """
    if not FIELD_RESOLUTION_MIN <= resolution <= FIELD_RESOLUTION_MAX:
        raise ResolutionOutOfRangeError(
            f"resolution {resolution} outside [{FIELD_RESOLUTION_MIN}, {FIELD_RESOLUTION_MAX}]"
        )
    i, j = neuron
    thetas = TWO_PI * np.arange(resolution) / resolution
    cx = neuron_curve(pop2d.x, i, thetas)
    cy = neuron_curve(pop2d.y, j, thetas)
    if offset is None:
        cx = cx - cx.min()
        cy = cy - cy.min()
    else:
        cx = cx + offset
        cy = cy + offset
    return np.outer(cx, cy)

