"""Timing at a fixed reference speed of the machine.

On a shared host, such as the 2-vCPU VM this benchmark was first run on,
the same computation can run up to about two times slower in stretches
that last from under a second to a whole run, with process time equal to
wall time (a slower CPU, not time lost to other processes).  Means,
medians or minima of raw times over a run then move with the share of
slow time the run happened to get.

So the machine's speed is measured next to the work.  While an item runs,
a short speed probe (a fixed ``Fraction`` loop, the kind of arithmetic the
program does) runs at the first traced ``hlmod`` call boundary, entry or
exit, after every INTERVAL_S of work.  The wall time between two probes is
scaled by ``REFERENCE_PROBE_S`` / the mean of the two probe times: the time
it would take on a machine where the probe takes REFERENCE_PROBE_S.  The
probes' own time is left out.  The probe runs only standard-library code
with the garbage collector paused, so a change to ``hlmod`` does not
change its time.
"""

from __future__ import annotations

import functools
import gc
import time
from fractions import Fraction

from tracing import patched

# Probe time in the fast state of the machine this benchmark was first run
# on: 2 vCPU x86_64 Xeon VM, Python 3.11.
REFERENCE_PROBE_S = 0.00035
# Work between probes; a probe costs 0.35-0.7 ms.
INTERVAL_S = 0.025


def probe() -> float:
    """Wall time of a fixed exact-arithmetic loop of about 0.35 ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 150):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times items at the reference speed while installed."""

    def __init__(self):
        self._last = 0.0  # end of the last probe
        self._marks: list[tuple[float, float]] = []  # (wall since the last probe, probe)

    def _mark(self) -> None:
        wall = time.perf_counter() - self._last
        self._marks.append((wall, probe()))
        self._last = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if time.perf_counter() - self._last >= INTERVAL_S:
                self._mark()
            try:
                return fn(*args, **kwargs)
            finally:
                if time.perf_counter() - self._last >= INTERVAL_S:
                    self._mark()

        return wrapper

    def installed(self):
        """Probe at traced call boundaries while the block runs."""
        return patched(self._wrap)

    def measure(self, fn):
        """Run ``fn()`` once: its result, wall time and time at the reference speed."""
        self._marks = [(0.0, probe())]
        self._last = time.perf_counter()
        result = fn()
        self._mark()
        marks = self._marks
        wall = sum(w for w, _ in marks)
        ref = sum(w / ((p0 + p1) / 2) for (_, p0), (w, p1) in zip(marks, marks[1:]))
        return result, wall, ref * REFERENCE_PROBE_S
