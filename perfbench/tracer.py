"""In-memory span tracer that wraps functions at the module bindings callers use.

A :class:`Tracer` replaces each named binding (``module.attr``) with a thin
wrapper that records one span per call: (name, start, end, parent index).
Spans stay in a list until the traced region ends; nothing is written while
the program runs, and :meth:`Tracer.write` can dump them afterwards. :meth:`Tracer.restore` puts every original binding back,
and :func:`summarize` turns the spans into per-function call counts, median
durations and median self times (span minus the part its children cover).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced function: its report name and every binding that calls reach it by.

    ``path_arg`` names the positional index of an output path; when set, the
    size of the written file is recorded as the span's byte count.
    """

    name: str
    bindings: tuple[tuple[object, str], ...]
    path_arg: int | None = None


@dataclass
class LayerStats:
    calls: int = 0
    median_us: float = 0.0
    median_self_us: float = 0.0
    total_s: float = 0.0
    bytes: int = 0


class Tracer:
    """Context manager: wraps every target binding on entry, restores on exit."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int]] = []
        self.bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                for owner, attr in target.bindings:
                    original = getattr(owner, attr)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(target, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON object per line: name, start, end, parent, bytes."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                row = {"name": name, "start": start, "end": end, "parent": parent,
                       "bytes": self.bytes.get(i, 0)}
                fh.write(json.dumps(row) + "\n")

    def _wrap(self, target: Target, fn):
        spans, stack, sizes = self.spans, self._stack, self.bytes
        clock = time.perf_counter
        name, path_arg = target.name, target.path_arg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if path_arg is not None and len(args) > path_arg:
                sizes[index] = os.path.getsize(args[path_arg])
            return result

        return wrapper


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, []), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def summarize(spans, sizes: dict[int, int] | None = None) -> dict[str, LayerStats]:
    """Aggregate spans by name into :class:`LayerStats`."""
    sizes = sizes or {}
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    written: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        self_by_name.setdefault(name, []).append(selfs[i])
        written[name] = written.get(name, 0) + sizes.get(i, 0)
    return {
        name: LayerStats(
            calls=len(d),
            median_us=statistics.median(d) * 1e6,
            median_self_us=statistics.median(self_by_name[name]) * 1e6,
            total_s=sum(d),
            bytes=written[name],
        )
        for name, d in durations.items()
    }


def child_breakdown(spans, parent_name: str) -> dict[str, float]:
    """Mean time per ``parent_name`` call spent in each direct child name, plus 'self'.

    The values sum to the parent's mean duration, which is how the per-layer
    numbers account for a step.
    """
    parents = [i for i, s in enumerate(spans) if s[0] == parent_name]
    if not parents:
        return {}
    wanted = set(parents)
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        if parent in wanted:
            totals[name] = totals.get(name, 0.0) + (end - start)
    totals["self"] = sum(selfs[i] for i in parents)
    return {name: value / len(parents) for name, value in totals.items()}
