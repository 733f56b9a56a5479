"""A speed gauge that takes the host's slow and fast spells out of timings.

On a shared virtual machine the same single-threaded code runs up to about
1.6 times slower for seconds or minutes at a time, because other tenants
load the physical cores (seen on a 2-vCPU Intel Xeon VM at 2.1 GHz; steal
time stays near 1%, so CPU time slows as much as wall time). A median over
one run then reads whichever spell held during that run, and runs of the
same code differ by more than a useful regression bound.

The gauge times a fixed reference computation (object and dict work in the
interpreter plus many numpy calls on small blocks, the mix the library
spends its time in) from a timer signal every ``INTERVAL_S`` seconds, in
the benchmark's own thread, between the library's bytecodes. A timed
stretch of library work is then scaled by

    factor = NOMINAL_S / (trimmed mean of the readings taken during it)

which gives the time the work would take at the speed where the reference
takes ``NOMINAL_S``. A change that makes the program 20% slower makes the
normalized time 20% longer; a slow spell of the host lengthens the work and
the readings alike and mostly cancels. Gauge time is left out of every
timing.

``NOMINAL_S`` is a typical reading on a 2-vCPU Intel Xeon VM at 2.1 GHz
(numpy 2.4.6, one BLAS thread). Raw times are reported beside the
normalized ones. Keep other threads idle between calls: work on another
core during a reading slows the gauge and would read as a faster program.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
NOMINAL_S = 0.0007
MIN_READINGS = 3  # a stretch with fewer readings uses the ones nearest to it
TRIM = 0.1  # share of readings dropped at each end before averaging

_MAPS = np.random.default_rng(0).standard_normal((64, 16, 16))


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: float):
        self.key, self.value, self.children = key, value, []

    def weight(self) -> float:
        return self.value + sum(child.value for child in self.children)


def reference() -> float:
    """The fixed computation the gauge times; returns a checksum.

    Object, dict and sort work in the interpreter, then many numpy calls on
    16x16 blocks: the two kinds of work that the library's per-triple and
    per-query code is made of.
    """
    nodes = [_Node(i % 31, float(i)) for i in range(300)]
    for i, node in enumerate(nodes[1:], 1):
        nodes[(i * 7) % i].children.append(node)
    nodes.sort(key=lambda n: (n.key, -n.value))
    checksum = sum(n.weight() for n in nodes[:100]) + len({n.key: n for n in nodes})
    for j in range(60):
        block = _MAPS[j % 63] @ _MAPS[j % 63 + 1].T
        row = np.concatenate([block[0], block[1]])
        checksum += float(row[np.argsort(row)[0]]) + float(block.sum())
    return checksum


class Gauge:
    """Takes periodic readings of ``reference()`` while it is running.

    Use as a context manager around the timed part of a run, and time work
    with :meth:`clock` and :meth:`stop`. Scale timings with :meth:`factor`
    once the run is over, when the readings around every timing exist.
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self.interval_s = interval_s  # None: one reading at each end only
        self.reading_at: list[float] = []  # midpoint of each reading
        self.reading_s: list[float] = []
        self.spent_s = 0.0  # total time inside readings, left out of samples
        self._previous = None

    def __enter__(self) -> "Gauge":
        self.read()
        if self.interval_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def _on_alarm(self, signum, frame) -> None:
        self.read()

    def read(self) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.reading_at.append((start + end) / 2)
        self.reading_s.append(end - start)
        self.spent_s += end - start

    def clock(self) -> tuple[float, float]:
        """A start mark for :meth:`stop`."""
        return time.perf_counter(), self.spent_s

    def stop(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds of work) since ``mark``, gauge time left out."""
        end = time.perf_counter()
        return mark[0], end, (end - mark[0]) - (self.spent_s - mark[1])

    def factor(self, start: float, end: float) -> float:
        """The scale for work done between ``start`` and ``end``."""
        at = np.asarray(self.reading_at)
        secs = np.asarray(self.reading_s)
        lo, hi = np.searchsorted(at, start), np.searchsorted(at, end, side="right")
        if hi - lo < MIN_READINGS:
            nearest = np.argsort(np.abs(at - (start + end) / 2), kind="stable")
            inside = secs[nearest[:MIN_READINGS]]
        else:
            inside = secs[lo:hi]
        inside = np.sort(inside)
        cut = int(len(inside) * TRIM)
        return NOMINAL_S / float(np.mean(inside[cut:len(inside) - cut]))

    def summary(self) -> str:
        secs = self.reading_s
        return (f"{len(secs)} gauge readings, median {statistics.median(secs) * 1e3:.3f} ms"
                f" (nominal {NOMINAL_S * 1e3:.3f} ms), min {min(secs) * 1e3:.3f},"
                f" max {max(secs) * 1e3:.3f}")
