"""Spans and counters recorded in memory around calls into the library.

A :class:`Tracer` replaces a module or class attribute with a wrapper that
records one span per call: its name, start, end and the span that was open
when it began (its parent). Nothing is written while the run is measured;
the spans are reduced to per-name totals when it ends. Wrapping happens from
the benchmark's own files, at the names the library's callers resolve, so
the library itself is unchanged.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

# Percentiles a latency report may use, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_SAMPLES_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root


@dataclass(frozen=True)
class LayerTime:
    total_s: float
    self_s: float
    calls: int


class Tracer:
    """Records spans for wrapped callables and named counters.

    Use as a context manager: every attribute wrapped inside the ``with``
    block is restored on exit, also when the block raises.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span = Span(name, self.clock(), math.nan, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span.end = self.clock()

    def wrap(self, owner, attr: str, name: str, after=None):
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``after(result, *args, **kwargs)`` runs outside the span and may
        update counters. Returns the original callable.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patch(owner, attr, original, traced)
        return original

    def count_calls(self, owner, attr: str, counter: str):
        """Count calls to ``owner.attr`` without a span; returns the original."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counters[counter] = self.counters.get(counter, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)
        return original

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> dict[str, LayerTime]:
        return layer_times(self.spans)


def layer_times(spans: list[Span]) -> dict[str, LayerTime]:
    """Total time, self time and call count for each span name.

    A span's self time is its duration minus the durations of its direct
    children. Children of one span run one after another in this
    single-threaded program, so their durations never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, list] = {}
    for span, inner in zip(spans, child_time):
        duration = span.end - span.start
        entry = totals.setdefault(span.name, [0.0, 0.0, 0])
        entry[0] += duration
        entry[1] += duration - inner
        entry[2] += 1
    return {name: LayerTime(*entry) for name, entry in totals.items()}


def highest_percentile(n_samples: int) -> float | None:
    """The highest percentile in PERCENTILES with at least ten samples beyond it."""
    for p in PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            return p
    return None


def samples_needed(percentile: float) -> int:
    """Fewest samples that leave ten beyond ``percentile``."""
    return math.ceil(MIN_SAMPLES_BEYOND * 100.0 / (100.0 - percentile) - 1e-9)
