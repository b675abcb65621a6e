"""Tuning-curve populations expressed as power allocations over eigen-modes.

A population's derivative profile lives in the paired eigen-modes of the noise
correlation: each active frequency k contributes power w_k and phase c_k,
with the powers summing to the signal power budget; its amplitude
T_k = sqrt(w_k) scales the frequency's eigenvectors. Integrating
once (constants fixed to zero) gives the mean responses, so every neuron's
tuning curve is the same waveform shifted by the inter-neuron spacing. The
response and its theta-derivatives are closed-form coefficients (``_coefficients``)
on the 2m rows of the m active frequencies' cos and sin eigenvectors (``_basis``).
Those rows are eigenvectors of the noise, so their Gram G = W C^-1 W^T is
diag(1/lambda_k), each lambda_k once for cos and once for sin (``_gram_weights``):
the Fisher forms weight the coefficients by it and do no n-space work. The
dense G, built from the eigenvectors, stays a test oracle.
The optimal constructions concentrate the whole budget on a single frequency.
Only this module reads the paired spectrum to choose or score an allocation:
``check_condition`` decides whether lambda_k and k^2 lambda_k share their
minimizer, and ``_spectral_sum`` sums w_k / (k^p lambda_k) over the
active frequencies for ``fisher`` and ``mcsim``. The torus is separable: its y
axis is the x axis with each phase c_k moved by k times a phase shift, and a
neuron's firing field is the product of its two axis curves, which are sampled
as exact shifts of the one waveform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionViolatedError, ResolutionOutOfRangeError
from .spectral import TWO_PI, SpectralDecomposition, _nonnegative, _positive, _Record

FIELD_RESOLUTION_MIN = 8
FIELD_RESOLUTION_MAX = 4096

#: Scores within this absolute distance of the minimum tie; ties go to the smallest frequency.
ORDER_TIE_TOL = 1e-12


@dataclass(frozen=True)
class AllocationEntry:
    """One active frequency with its power w (the number every objective reads) and phase.

    ``amplitude`` is derived, sqrt(w): the derivative profile's coefficient on
    the frequency's cos and sin eigenvectors. ValueError unless the frequency
    is >= 1, the power finite and >= 0 and the phase finite.
    """

    frequency: int
    power: float
    phase: float = 0.0
    amplitude: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequency", int(self.frequency))
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "phase", float(self.phase))
        if self.frequency < 1:
            raise ValueError(f"allocation frequencies must be >= 1, got {self.frequency}")
        if not 0.0 <= self.power < math.inf:
            raise ValueError(f"power must be finite and >= 0, got {self.power!r} at frequency {self.frequency}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "amplitude", math.sqrt(self.power))


@dataclass(frozen=True)
class PowerAllocation:
    """Signal power distributed over paired frequencies with phases.

    ``power`` is derived: the sum of the entries' powers, which must be finite
    (ValueError names the largest entry otherwise). An empty allocation
    (zero power) is a valid degenerate object so that downstream evaluations
    can report zero cleanly.
    """

    entries: tuple[AllocationEntry, ...]
    power: float = field(init=False)

    def __post_init__(self) -> None:
        freqs = [e.frequency for e in self.entries]
        if len(set(freqs)) != len(freqs):
            raise ValueError(f"duplicate frequencies in allocation: {sorted(freqs)}")
        power = float(sum(e.power for e in self.entries))
        if not math.isfinite(power):
            top = max(self.entries, key=lambda e: e.power)
            raise ValueError(
                f"allocation power (sum of entry powers) is not finite; "
                f"largest entry: frequency {top.frequency}, power {top.power!r}"
            )
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "power", power)

    @classmethod
    def single(cls, frequency: int, power: float, phase: float = 0.0) -> "PowerAllocation":
        if power <= 0.0:
            raise ValueError(f"power must be positive, got {power}")
        return cls(entries=(AllocationEntry(frequency, power, phase),))

    @classmethod
    def from_powers(cls, powers: dict[int, float]) -> "PowerAllocation":
        """Build entries from per-frequency power shares, dropping those that are not positive."""
        return cls(entries=tuple(AllocationEntry(k, p) for k, p in sorted(powers.items()) if p > 0.0))

    def max_frequency(self) -> int:
        return max((e.frequency for e in self.entries), default=0)


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


def _phase_shift_problem(shift: float, k_max: int) -> str | None:
    """Why the y axis cannot move phase c_k by k * shift for k up to k_max, or None.

    From |k_max * shift| = 2**52 on, adjacent doubles lie at least 1 rad apart,
    so the shifted phases would be rounding noise.
    """
    if not math.isfinite(shift):
        return f"must be finite, got {shift!r}"
    moved = k_max * shift
    if not math.isfinite(moved):
        return f"{shift!r} times frequency {k_max} is not finite"
    if abs(moved) >= 2.0**52:
        return f"{shift!r} times frequency {k_max} is {moved:.6g}, not below 2**52 in magnitude"
    return None


@dataclass(frozen=True)
class TuningPopulation2D:
    """Separable torus population: one axis population plus a phase shift.

    The y axis is ``x`` with each phase c_k moved by k * phase_shift, so both
    axes share the kernel and the power spectrum by construction.
    ValueError unless |k * phase_shift| < 2**52 at the largest active frequency k.
    """

    x: TuningPopulation1D
    phase_shift: float = 0.0

    def __post_init__(self) -> None:
        problem = _phase_shift_problem(self.phase_shift, self.x.allocation.max_frequency())
        if problem:
            raise ValueError(f"phase_shift {problem}")

    @property
    def y(self) -> TuningPopulation1D:
        entries = tuple(
            AllocationEntry(e.frequency, e.power, e.phase + e.frequency * self.phase_shift)
            for e in self.x.allocation.entries
        )
        return TuningPopulation1D(self.x.decomp, PowerAllocation(entries))

    @property
    def n(self) -> int:
        return self.x.n


def _coefficients(pop: TuningPopulation1D, theta, order: int) -> np.ndarray:
    """Coefficients on the ``_basis`` rows of the theta-derivative of the given order
    (0, 1 or 2) of the mean activity at ``theta`` (mod 2 pi): shape theta.shape + (2m,).

    With psi = k theta + c, active frequency k's (cos, sin) pair is (T/k)(sin psi, -cos psi)
    at order 0, T (cos psi, sin psi) at order 1 and T k (-sin psi, cos psi) at order 2:
    each derivative turns the pair a quarter turn and scales it by k.
    """
    angles = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    entries = pop.allocation.entries
    k = np.array([e.frequency for e in entries], dtype=float)
    scale = np.array([e.amplitude for e in entries], dtype=float) * k ** (order - 1)
    psi = np.multiply.outer(angles, k) + np.array([e.phase for e in entries])
    on_cos, on_sin = np.sin(psi), -np.cos(psi)
    for _ in range(order):
        on_cos, on_sin = -on_sin, on_cos
    return (np.stack((on_cos, on_sin), axis=-1) * scale[:, None]).reshape(angles.shape + (2 * k.size,))


def _gram_weights(pop: TuningPopulation1D) -> np.ndarray:
    """1/lambda_k per ``_basis`` row, cos then sin for each active frequency: shape (2m,).

    The diagonal of G = W C^-1 W^T, whose off-diagonal entries vanish because the
    rows are eigenvectors, so the information of coefficient vectors a and b is
    sum(a * w * b). The spectrum is judged as by every optimum (``_paired_arrays``):
    NotPositiveSemidefiniteError on a negative eigenvalue anywhere, then
    SingularCovarianceError unless every paired one exceeds PSD_TOLERANCE.
    """
    freqs, lams = _paired_arrays(pop.decomp)
    active = np.array([e.frequency for e in pop.allocation.entries], dtype=int)
    return np.repeat(1.0 / lams[active - freqs[0]], 2)


def _basis(pop: TuningPopulation1D) -> np.ndarray:
    """The active frequencies' unit cos and sin eigenvectors as rows (2m, n), in allocation order."""
    out = np.empty((2 * len(pop.allocation.entries), pop.n))
    for i, e in enumerate(pop.allocation.entries):
        out[2 * i] = pop.decomp.cos_vector(e.frequency)
        out[2 * i + 1] = pop.decomp.sin_vector(e.frequency)
    return out


def mean_derivative(pop: TuningPopulation1D, theta) -> np.ndarray:
    """Derivative of the mean activity with respect to theta (closed form)."""
    return _coefficients(pop, theta, 1) @ _basis(pop)


def _quarter_sine(quarters: np.ndarray, lattice: int) -> np.ndarray:
    """sin(pi quarters / (2 lattice)) for integer ``quarters`` in 0..4 lattice - 1.

    Past a half turn the sine is negated (sin(x + pi) = -sin x), and past a
    quarter turn it is reflected (sin(pi - x) = sin x), both in integers, so
    np.sin only sees angles in [0, pi/2] and mirror points share their bits.
    """
    half = 2 * lattice
    negative = quarters >= half
    folded = np.where(negative, quarters - half, quarters)
    folded = np.where(folded > lattice, half - folded, folded)
    out = np.sin(math.pi / 2 * folded / lattice)
    return np.negative(out, out=out, where=negative)


def _lattice_waveform(pop: TuningPopulation1D, lattice: int, index: np.ndarray) -> np.ndarray:
    """Neuron 0's tuning curve at the angles 2 pi index / lattice, ``index`` in 0..lattice - 1.

    Neuron i's curve is this waveform delayed by 2 pi i / n. Each phase
    k theta is reduced in integers to q = 4 ((k index) mod lattice) quarter
    steps of pi / (2 lattice), whose sine and cosine (q + lattice) are folded
    exactly onto [0, pi/2] (``_quarter_sine``); the phase c_k enters as
    sin(q) cos c_k + cos(q) sin c_k. At c_k = 0 that is the folded sine
    itself, so sin(pi - x) = sin x and sin(x + pi) = -sin x hold bit for bit
    and a curve holds each of its values at every mirror point.
    """
    # k index stays below n lattice, and a cosine's quarter steps below 5 lattice
    if lattice * max(pop.n, 5) > np.iinfo(np.int64).max:
        raise ValueError(f"lattice of {lattice} points is too fine for int64 phases at n = {pop.n}")
    index = np.asarray(index, dtype=np.int64)
    out = np.zeros(index.shape)
    for e in pop.allocation.entries:
        quarters = 4 * ((e.frequency * index) % lattice)
        sin = _quarter_sine(quarters, lattice)
        cos = _quarter_sine((quarters + lattice) % (4 * lattice), lattice)
        out += (e.amplitude / e.frequency) * (sin * math.cos(e.phase) + cos * math.sin(e.phase))
    out *= math.sqrt(2.0 / pop.n)
    return out


def _paired_arrays(decomp: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Paired frequencies (ascending) and a read-only view of their eigenvalues, which every
    optimum, ordering and Fisher form reads: NotPositiveSemidefiniteError on a negative
    eigenvalue anywhere, SingularCovarianceError unless every paired one is positive."""
    paired = decomp.paired_frequencies
    _nonnegative(decomp.eigenvalues)
    lams = _positive(decomp.eigenvalues[paired.start : paired.stop], first=paired.start)
    return np.arange(paired.start, paired.stop), lams


def _ties(freqs: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Frequencies whose score ties the minimum within ORDER_TIE_TOL."""
    return freqs[scores <= scores.min() + ORDER_TIE_TOL]


def _tie_argmin(freqs: np.ndarray, scores: np.ndarray) -> int:
    """Smallest frequency whose score ties the minimum."""
    return int(_ties(freqs, scores).min())


def _strictly_decreasing(scores: np.ndarray) -> bool:
    return bool(np.all(scores[:-1] - scores[1:] > ORDER_TIE_TOL))


@dataclass(frozen=True)
class ConditionReport(_Record):
    """Orderings of the paired spectrum that govern 2D concentration."""

    lambda_order_ok: bool
    k2lambda_order_ok: bool
    argmin_lambda: int
    argmin_k2lambda: int
    concentration_valid: bool


def check_condition(decomp: SpectralDecomposition) -> ConditionReport:
    """Evaluate both spectral orderings, of lambda_k and of k^2 lambda_k, over paired
    frequencies (ascending k)."""
    freqs, lams = _paired_arrays(decomp)
    weighted = freqs.astype(float) ** 2 * lams
    argmin_lambda = _tie_argmin(freqs, lams)
    argmin_weighted = _tie_argmin(freqs, weighted)
    return ConditionReport(
        lambda_order_ok=_strictly_decreasing(lams),
        k2lambda_order_ok=_strictly_decreasing(weighted),
        argmin_lambda=argmin_lambda,
        argmin_k2lambda=argmin_weighted,
        concentration_valid=argmin_lambda == argmin_weighted,
    )


def _spectral_sum(allocation: PowerAllocation, decomp: SpectralDecomposition, p: int) -> float:
    """Sum over the allocation's entries, in order, of w / (k^p lambda_k).

    NotPositiveSemidefiniteError on a negative eigenvalue; a zero one gives an infinite
    sum (NaN where its power is 0 too), and so does an overflow, silently.
    """
    lams = _nonnegative(decomp.eigenvalues)
    total = 0.0
    with np.errstate(all="ignore"):
        for e in allocation.entries:
            k = e.frequency
            total += e.power / (k**p * lams[k])
    return float(total)


def optimal_tuning_1d(decomp: SpectralDecomposition, power: float) -> TuningPopulation1D:
    """Concentrate the whole budget on the paired frequency with smallest eigenvalue.

    Ties break toward the smaller frequency; phase defaults to zero so the
    derivative at theta = 0 aligns with the cosine eigenvector.
    """
    k_star = _tie_argmin(*_paired_arrays(decomp))
    return TuningPopulation1D(decomp, PowerAllocation.single(k_star, power))


def optimal_tuning_2d(decomp: SpectralDecomposition, power: float) -> TuningPopulation2D:
    """Single-frequency rectangular-grid optimum for the separable torus.

    Valid only when the eigenvalue minimizer and the (frequency^2 * eigenvalue)
    minimizer coincide over paired modes (``check_condition``); otherwise the
    concentration argument does not apply, ConditionViolatedError is raised and
    the general simplex search must be used instead. The y axis is the x axis
    (no phase shift); ``TuningPopulation2D(pop.x, shift)`` moves it.
    """
    condition = check_condition(decomp)
    if not condition.concentration_valid:
        raise ConditionViolatedError(
            f"eigenvalue minimizer {condition.argmin_lambda} and weighted minimizer "
            f"{condition.argmin_k2lambda} disagree; "
            "use the general allocation search (optimal.maximize_fisher_2d)"
        )
    x = TuningPopulation1D(decomp, PowerAllocation.single(condition.argmin_lambda, power))
    return TuningPopulation2D(x)


def sample_firing_field(
    pop2d: TuningPopulation2D,
    neuron: tuple[int, int],
    resolution: int,
    offset: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One torus neuron's firing field as its two axis curves ``(cx, cy)``.

    The field is their outer product, entry (a, b) = cx[a] * cy[b]; the io
    writers form it row by row. Each curve is sampled at ``resolution``
    angles, which must lie in FIELD_RESOLUTION_MIN..FIELD_RESOLUTION_MAX (else
    ResolutionOutOfRangeError). Neuron i's curve at angle index s is the
    waveform at point (s L/res - i L/n) mod L of the L = lcm(res, n) lattice,
    so the curves of all neurons are exact shifts of one another. With
    ``offset`` None each curve is lifted by its own minimum, which renders the
    positive-bump lattice (display convention); a number is added to each
    curve instead, so 0 keeps the signed product.
    """
    if not FIELD_RESOLUTION_MIN <= resolution <= FIELD_RESOLUTION_MAX:
        raise ResolutionOutOfRangeError(
            f"resolution {resolution} outside [{FIELD_RESOLUTION_MIN}, {FIELD_RESOLUTION_MAX}]"
        )
    lattice = math.lcm(resolution, pop2d.n)
    points = np.arange(resolution) * (lattice // resolution)
    spacing = lattice // pop2d.n
    cx, cy = (
        _lattice_waveform(pop, lattice, (points - i * spacing) % lattice)
        for pop, i in zip((pop2d.x, pop2d.y), neuron)
    )
    for curve in (cx, cy):
        if offset is None:
            curve -= curve.min()
        else:
            curve += offset
    return cx, cy
