"""File formats: kernel definitions, CSV exports, graymap images, JSON reports.

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


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedKernelError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def json_object(value, name: str) -> dict:
    """``value`` itself; MalformedKernelError unless it is a JSON object."""
    if not isinstance(value, dict):
        raise MalformedKernelError(f"{name} must be a JSON object, got {json.dumps(value)}")
    return value


def _field(definition: dict, key: str, default):
    if key in definition:
        return definition[key]
    if default is None:
        raise MalformedKernelError(f"missing field {key!r}")
    return default


def json_number(definition: dict, key: str, default: float | None = None) -> float:
    """``definition[key]`` as a float, or ``default`` when the key is absent.

    Raises MalformedKernelError when a key without default is absent or the
    value is not a JSON number (null, a string, a boolean, a list, an object).
    """
    return _number(_field(definition, key, default), key)


def json_integer(definition: dict, key: str, default: int | None = None) -> int:
    """Like ``json_number`` for an int; integral floats such as 3.0 are accepted."""
    value = _field(definition, key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not _number(value, key).is_integer():
        raise MalformedKernelError(f"{key} must be an integer, got {json.dumps(value)}")
    return int(value)


def known_keys(definition: dict, known: tuple[str, ...], noun: str) -> dict:
    """``definition``; MalformedKernelError naming the first key (in file order) that is not
    ``known``, so a misspelled key fails instead of leaving its field at the default."""
    for key in definition:
        if key not in known:
            raise MalformedKernelError(f"unknown key {key!r} in {noun}; known keys: {', '.join(known)}")
    return definition


def json_string(definition: dict, key: str) -> str:
    """``definition[key]``; MalformedKernelError unless the key is present and its value a JSON string."""
    value = _field(definition, key, None)
    if not isinstance(value, str):
        raise MalformedKernelError(f"{key} must be a string, got {json.dumps(value)}")
    return value


#: The keys of each kernel family's ``params``.
_FAMILY_PARAMS = {"explicit": ("values",), "exponential": ("c0", "rho"), "gaussian": ("c0", "length")}


def kernel_from_dict(definition: dict) -> CorrelationKernel:
    """Build a kernel from its definition mapping (see ``load_kernel``)."""
    try:
        n = definition["n"]
        family = definition["family"]
    except (TypeError, KeyError) as exc:
        raise MalformedKernelError(f"kernel definition missing field: {exc}") from exc
    known_keys(definition, ("n", "family", "params"), "kernel definition")
    params = json_object(definition.get("params", {}), "params")
    if not isinstance(n, int):
        raise MalformedKernelError(f"n must be an integer, got {n!r}")
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise MalformedKernelError(f"unknown kernel family {family!r}")
    known_keys(params, _FAMILY_PARAMS[family], f"{family} kernel params")
    if family == "explicit":
        values = params.get("values")
        if not isinstance(values, list):
            raise MalformedKernelError("explicit kernel needs params.values as a list")
        return CorrelationKernel(n, tuple(_number(v, "params.values entry") for v in values))
    if family == "exponential":
        return exponential_kernel(n, c0=json_number(params, "c0", 1.0), rho=json_number(params, "rho"))
    return gaussian_kernel(n, c0=json_number(params, "c0", 1.0), length=json_number(params, "length"))


def load_kernel(path: str | Path) -> CorrelationKernel:
    """Read a kernel definition file.

    JSON object with fields ``n``, ``family`` (explicit | exponential |
    gaussian) and ``params``: the explicit form lists the covariances
    c_0..c_{floor(n/2)} under ``values``; exponential takes ``c0`` and ``rho``;
    gaussian takes ``c0`` and ``length``. Any other key, at either level, is
    refused (``known_keys``).
    """
    return kernel_from_dict(read_json_object(path, "kernel file"))


def read_json_object(path: str | Path, noun: str) -> dict:
    """The JSON object a file holds; MalformedKernelError, naming ``noun``, otherwise."""
    try:
        definition = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
