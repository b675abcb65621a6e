"""Span recording around the public functions of ringfisher, and self-time arithmetic.

A traced operation runs in its own interpreter. ``install`` replaces every
public function of the traced modules in every ringfisher namespace that bound
it (``mean_derivative`` lives in ``tuning``, ``fisher`` and ``mcsim``), plus a
few public methods on their classes. Each call then appends one span
``(name, start, end, parent, counts)`` to an in-memory list that ``Recorder.dump``
writes out when the operation ends. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = ("spectral", "tuning", "fisher", "optimal", "mcsim", "io", "cli")

#: Public methods traced on their class, as (module, class, method).
TRACED_METHODS = (
    ("spectral", "SpectralDecomposition", "mode"),
    ("spectral", "SpectralDecomposition", "cos_vector"),
    ("spectral", "SpectralDecomposition", "sin_vector"),
    ("mcsim", "NoiseModel", "sample"),
)

#: Spans whose peak traced allocation is recorded (tracemalloc runs only inside them).
ALLOC_SPANS = frozenset(
    {
        "optimal.audit_random_allocations",
        "mcsim.NoiseModel.sample",
        "mcsim.run_displacement_trials",
    }
)

MB = 1024.0 * 1024.0


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


#: Work counters taken at a span's boundary: name -> (counter, f(bound_args, result)).
COUNTERS = {
    "spectral.apply_inverse": ("vectors", lambda a, r: int(np.prod(np.shape(a["v"])[:-1]))),
    "mcsim.NoiseModel.sample": ("values", lambda a, r: int(getattr(r, "size", 0))),
    "optimal.audit_random_allocations": ("trials", lambda a, r: int(a["trials"])),
    "io.write_field_csv": ("bytes", lambda a, r: _file_bytes(a["path"])),
    "io.write_pgm": ("bytes", lambda a, r: _file_bytes(a["path"])),
    "io.write_curves_csv": ("bytes", lambda a, r: _file_bytes(a["path"])),
    "io.sha256_file": ("bytes", lambda a, r: _file_bytes(a["path"])),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory span list for one operation; the current span is the stack top."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._alloc_stack: list[list[float]] = []  # [traced bytes at entry, peak seen by children]

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent))
        self._stack.append(index)
        if name in ALLOC_SPANS:
            self._alloc_enter()
        self.spans[index].start = time.perf_counter()
        return index

    def leave(self, index: int, counts: dict | None = None) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        if counts:
            span.counts.update(counts)
        if span.name in ALLOC_SPANS:
            span.counts["peak_alloc_mb"] = self._alloc_leave()
        self._stack.pop()

    def _alloc_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._alloc_stack.append([float(current), 0.0])

    def _alloc_leave(self) -> float:
        base, child_peak = self._alloc_stack.pop()
        _, peak = tracemalloc.get_traced_memory()
        peak = max(peak, child_peak)
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        else:
            tracemalloc.stop()
        return max(0.0, peak - base) / MB

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            "op_id": self.op_id,
            "spans": [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans],
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _wrap(recorder: Recorder, name: str, func):
    counter = COUNTERS.get(name)
    signature = inspect.signature(func) if counter else None

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.enter(name)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = {counter[0]: counter[1](bound.arguments, result)}
            recorder.leave(index, counts)

    wrapper.__traced__ = True
    return wrapper


def install(recorder: Recorder, cli_command: str | None = None) -> None:
    """Wrap the traced public functions and methods.

    With ``cli_command`` the ``cli.main`` span is named ``cli.<cli_command>``,
    so the CLI layer's self time is reported per command.
    """
    import ringfisher

    modules = {name: importlib.import_module(f"ringfisher.{name}") for name in TRACED_MODULES}
    namespaces = [ringfisher] + [m for name, m in sorted(sys.modules.items()) if name.startswith("ringfisher.")]
    for short, module in modules.items():
        for attr, func in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(func):
                continue
            if func.__module__ != module.__name__ or getattr(func, "__traced__", False):
                continue
            name = f"{short}.{attr}"
            if name == "cli.main" and cli_command is not None:
                name = f"cli.{cli_command}"
            wrapper = _wrap(recorder, name, func)
            for namespace in namespaces:
                if vars(namespace).get(attr) is func:
                    setattr(namespace, attr, wrapper)
    for short, cls_name, method in TRACED_METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, _wrap(recorder, f"{short}.{cls_name}.{method}", vars(cls)[method]))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children's intervals.

    ``spans`` holds (name, start, end, parent, ...) rows with parents before
    children. Child intervals are clipped to the parent's, so overlapping or
    overhanging children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        _, start, end, parent = row[:4]
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, row in enumerate(spans):
        _, start, end = row[:3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
