"""File formats: kernel definitions, CSV exports, graymap images, JSON reports.

Every JSON input is read by one rule, ``read_fields``: a table gives each key
its kind and its default, and any other key is refused. Kernel families are a
table of their own: family -> (builder, fields of its ``params``).

Loading a kernel needs ``spectral`` alone: the curve export imports ``tuning``
and the digest imports ``hashlib`` when they run.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedKernelError
from .spectral import (
    CorrelationKernel,
    SpectralDecomposition,
    TWO_PI,
    exponential_kernel,
    gaussian_kernel,
)

if TYPE_CHECKING:
    from .tuning import TuningPopulation1D

_HASH_CHUNK_BYTES = 1 << 20


class NonFiniteError(ValueError):
    """A result holds a NaN or infinite value, which no output format here can hold."""


#: The default of a field that a JSON object must hold.
REQUIRED = object()

_KIND_NAMES = {str: "a string", list: "a list", dict: "a JSON object"}


def _read_value(value, kind: type, name: str):
    """``value`` as ``kind``: float (a JSON number), int (a JSON number that is integral, so
    3.0 reads as 3), str, list, dict (a JSON object) or object (any JSON value); otherwise
    MalformedKernelError naming ``name``. A boolean is not a number."""
    if kind not in (int, float):
        if not isinstance(value, kind):
            raise MalformedKernelError(f"{name} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedKernelError(f"{name} must be a number, got {json.dumps(value)}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise MalformedKernelError(f"{name} must be an integer, got {json.dumps(value)}")
        return int(value)
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the largest double
        raise MalformedKernelError(f"{name} must be a number within the range of a double, got {value}") from None


def read_fields(definition, fields: dict[str, tuple[type, object]], noun: str) -> dict:
    """The fields of the JSON object ``definition``, read by one rule.

    ``fields`` maps each known key to its (kind, default); see ``_read_value`` for the
    kinds. A key that ``definition`` leaves out takes its default, raises when the
    default is REQUIRED, and stays out of the result when the default is None.
    MalformedKernelError, naming ``noun``, unless ``definition`` is an object whose every
    key is known (the first unknown key in file order is named, so a misspelled key fails
    instead of leaving its field at the default) and whose every value is of its kind.
    """
    if not isinstance(definition, dict):
        raise MalformedKernelError(f"{noun} must be a JSON object, got {json.dumps(definition)}")
    for key in definition:
        if key not in fields:
            raise MalformedKernelError(f"unknown key {key!r} in {noun}; known keys: {', '.join(fields)}")
    read = {}
    for key, (kind, default) in fields.items():
        if key in definition:
            read[key] = _read_value(definition[key], kind, key)
        elif default is REQUIRED:
            raise MalformedKernelError(f"{noun} missing field {key!r}")
        elif default is not None:
            read[key] = default
    return read


def _explicit_kernel(n: int, values: list) -> CorrelationKernel:
    return CorrelationKernel(n, tuple(_read_value(v, float, "params.values entry") for v in values))


#: Each kernel family's builder and the fields of its ``params``.
_FAMILIES = {
    "explicit": (_explicit_kernel, {"values": (list, REQUIRED)}),
    "exponential": (exponential_kernel, {"c0": (float, 1.0), "rho": (float, REQUIRED)}),
    "gaussian": (gaussian_kernel, {"c0": (float, 1.0), "length": (float, REQUIRED)}),
}

_KERNEL_FIELDS = {"n": (int, REQUIRED), "family": (str, REQUIRED), "params": (dict, {})}


def kernel_from_dict(definition) -> CorrelationKernel:
    """Build a kernel from its definition mapping (see ``load_kernel``)."""
    fields = read_fields(definition, _KERNEL_FIELDS, "kernel definition")
    family = fields["family"]
    if family not in _FAMILIES:
        raise MalformedKernelError(f"unknown kernel family {family!r}")
    build, params = _FAMILIES[family]
    return build(fields["n"], **read_fields(fields["params"], params, f"{family} kernel params"))


def load_kernel(path: str | Path) -> CorrelationKernel:
    """Read a kernel definition file.

    JSON object with fields ``n``, ``family`` (explicit | exponential |
    gaussian) and ``params``: the explicit form lists the covariances
    c_0..c_{floor(n/2)} under ``values``; exponential takes ``c0`` and ``rho``;
    gaussian takes ``c0`` and ``length``. The fields are read by ``read_fields``,
    so any other key, at either level, is refused, and ``n`` may be written as an
    integral float such as 8.0.
    """
    return kernel_from_dict(read_json_object(path, "kernel file"))


def read_json_object(path: str | Path, noun: str) -> dict:
    """The JSON object a file holds; MalformedKernelError, naming ``noun``, otherwise: also for
    text that is not UTF-8, an integer literal beyond Python's digit limit, or nesting too deep
    to parse."""
    try:
        definition = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise MalformedKernelError(f"cannot read {noun} {path}: {exc}") from exc
    if not isinstance(definition, dict):
        raise MalformedKernelError(f"{noun} must hold a JSON object")
    return definition


def write_decomposition_csv(decomp: SpectralDecomposition, path: str | Path) -> None:
    """Columns k, lambda, paired; one row per frequency."""
    paired = decomp.paired_frequencies
    with open(path, "w", newline="") as handle:
        handle.write("k,lambda,paired\r\n")
        for k, lam in enumerate(decomp.eigenvalues.tolist()):
            handle.write(f"{k},{lam!r},{str(k in paired).lower()}\r\n")


def write_curves_csv(
    pop: TuningPopulation1D,
    path: str | Path,
    samples: int = 256,
    offset: float = 0.0,
) -> None:
    """Sampled tuning curves: theta column then one column per neuron.

    Every curve is one waveform delayed by 2 pi / n per neuron, so row s,
    neuron i is the waveform at point (s L/S - i L/n) mod L of the
    L = lcm(S, n) lattice, S = ``samples``. Rows s, s + b, s + 2b, ... with
    b = L/n read the same n points (a coset), each rotated L/S neurons further
    than the one before. So a coset is evaluated and formatted once, at its
    first row, and a later row is two slices of its text; the text is dropped
    after the coset's last row, so at most b cosets are held.
    """
    from .tuning import _lattice_waveform

    n = pop.n
    lattice = math.lcm(samples, n)
    row_step, cosets = lattice // samples, lattice // n
    rows_per_coset = samples // cosets
    neurons = np.arange(n)
    live: dict[int, tuple[str, list[int]]] = {}
    thetas = TWO_PI * np.arange(samples) / samples
    with open(path, "w", newline="") as handle:
        handle.write(",".join(["theta"] + [f"neuron_{i}" for i in range(n)]) + "\r\n")
        for s, theta in enumerate(thetas.tolist()):
            coset, turn = s % cosets, s // cosets
            if turn == 0:
                index = (s * row_step - cosets * neurons) % lattice
                cells = list(map(repr, (_lattice_waveform(pop, lattice, index) + offset).tolist()))
                # the text is ",v_0,v_1,...": a turn starts at cell (-turn L/S) mod n
                widths = np.fromiter(map(len, cells), np.int64, n) + 1
                starts = np.cumsum(widths) - widths
                cuts = starts[(-row_step * np.arange(rows_per_coset)) % n].tolist()
                live[coset] = ("," + ",".join(cells), cuts)
            text, cuts = live[coset] if turn < rows_per_coset - 1 else live.pop(coset)
            cut = cuts[turn]
            handle.write(f"{theta!r}{text[cut:]}{text[:cut]}\r\n")


def write_field_csv(cx: np.ndarray, cy: np.ndarray, path: str | Path) -> None:
    """The field cx[a] * cy[b]: row a follows the first axis, column b the second.

    Entry (a, b) is the IEEE product ``cx[a] * cy[b]`` of ``np.outer(cx, cy)``
    as its shortest round-trip repr; lines end in CRLF. Equal bits give equal
    text, so each row formats ``cx[a]`` times the distinct values of ``cy``
    (by bit pattern, so 0.0 and -0.0 stay apart) once and gathers them into
    columns, and a row whose ``cx[a]`` bits came before is copied from the
    bytes already written. That is distinct(cx) x distinct(cy) reprs, in
    O(len(cx) + len(cy)) memory.
    """
    cx = np.ascontiguousarray(cx, dtype=float)
    cy = np.ascontiguousarray(cy, dtype=float)
    bits, columns = np.unique(cy.view(np.int64), return_inverse=True)
    distinct_cy, columns = bits.view(np.float64), columns.tolist()
    written: dict[int, tuple[int, int]] = {}  # cx bits -> (offset, length) of its row
    with open(path, "w+b") as handle:
        for key, value in zip(cx.view(np.int64).tolist(), cx.tolist()):
            if key in written:
                start, size = written[key]
                handle.seek(start)
                row = handle.read(size)
                handle.seek(0, os.SEEK_END)
            else:
                cells = list(map(repr, (value * distinct_cy).tolist()))
                row = (",".join(map(cells.__getitem__, columns)) + "\r\n").encode("ascii")
                written[key] = (handle.tell(), len(row))
            handle.write(row)


def write_pgm(cx: np.ndarray, cy: np.ndarray, path: str | Path) -> None:
    """8-bit binary graymap of the min-max normalized field cx[a] * cy[b], row by row.

    The field's extremes are among the four products of the curves' extremes:
    each is an exact field entry and rounding is monotone, so they are the
    min and max of ``np.outer(cx, cy)`` without forming it. Raises
    NonFiniteError, before the file is opened, when one of them is not finite.
    """
    cx, cy = np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.multiply.outer([cx.min(), cx.max()], [cy.min(), cy.max()])
    lo, hi = float(corners.min()), float(corners.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteError(f"field min = {lo}, field max = {hi}")
    # where 255 (hi - lo) overflows, the row and the range are scaled by 2**-16 first: a power
    # of two, so every step rounds as it would without the overflow
    scale = 1.0 if math.isfinite(255.0 * (hi - lo)) else 2.0**-16
    lo, span = lo * scale, hi * scale - lo * scale
    with open(path, "wb") as handle:
        handle.write(f"P5\n{cy.size} {cx.size}\n255\n".encode("ascii"))
        for value in cx.tolist():
            if span == 0.0:
                handle.write(bytes(cy.size))
                continue
            # rint(255.0 * (f - lo) / (hi - lo)) in that operation order, in one working row
            scaled = (value * scale) * cy
            scaled -= lo
            scaled *= 255.0
            scaled /= span
            handle.write(np.rint(scaled, out=scaled).astype(np.uint8).tobytes())


def write_trials_csv(estimates: np.ndarray, path: str | Path) -> None:
    """Columns trial, estimate: one row per trial, each estimate as its shortest
    round-trip repr; lines end in LF."""
    with open(path, "w", newline="") as handle:
        handle.write("trial,estimate\n")
        for i, value in enumerate(estimates.tolist()):
            handle.write(f"{i},{value!r}\n")


def write_json(payload: dict, path: str | Path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    Raises NonFiniteError, before the file is opened, on a NaN or infinite
    value, which JSON cannot hold.
    """
    Path(path).write_text(dumps_json(payload) + "\n")


def dumps_json(payload: dict) -> str:
    """``write_json``'s text; NonFiniteError lists ``key = value`` for the first NaN or
    infinite value under each key, with nested keys dotted and a list's entries under its key."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        found: dict[str, float] = {}
        _non_finite(payload, "", found)
        if not found:
            raise
        raise NonFiniteError(", ".join(f"{key} = {value}" for key, value in sorted(found.items()))) from None


def _non_finite(value, key: str, found: dict[str, float]) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        found.setdefault(key, value)
    elif isinstance(value, dict):
        for name, entry in value.items():
            _non_finite(entry, f"{key}.{name}" if key else str(name), found)
    elif isinstance(value, (list, tuple)):
        for entry in value:
            _non_finite(entry, key, found)


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_HASH_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()
