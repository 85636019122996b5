"""Host-speed reference for the timed benchmark runs.

On a shared host the same single-threaded request can take twice as long
from one minute to the next, with no steal time reported: the program's
CPU time grows with its wall time.  A run of a minute cannot average that
away, so the timed runs also time a fixed reference kernel between
measured stretches (requests, set-ups) and report each stretch at a
nominal host speed:

    reported = measured * NOMINAL_S / mean(reference just before, just after)

The host's speed drifts within a run too, so each stretch is scaled by
the probes on either side of it, not by a run-wide figure.  The reference
is the benchmark's own code, not the program's, so a change to the
program moves the reported times by exactly its own effect on the
measured ones.  Its three parts follow the program's mix: an interpreter
loop over dicts and ints, whole-array numpy passes over a few MB, and
small-array numpy calls from a Python loop.  One probe takes each part's
median over ``REPEATS`` passes (about 50 ms in all); after a stretch the
kernel is probed once, or as often as fits in ``SHARE`` of the stretch's
time, and the median of those probes is the reference after it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Reference time the reported seconds are scaled to; a run's median
#: reference time on a 2-vCPU Xeon VM ranged from 0.009 to 0.016 s.
NOMINAL_S = 0.014
REPEATS = 3
#: Share of a measured stretch spent probing after it.
SHARE = 0.03


class HostSpeed:
    """Times the reference kernel; ``nominal`` turns a measured stretch
    into seconds at the nominal reference speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stream = rng.random(250_000)
        self._small = rng.random(200)
        self.probes: List[float] = []
        #: Reference time just before the next stretch.
        self._last = self.probe()

    def _interpreter(self) -> None:
        total, table = 0, {}
        for i in range(24_000):
            total += i * i % 7
            table[i % 977] = total

    def _arrays(self) -> None:
        x = self._stream
        np.cumsum(x * x + 1.0)
        np.sort(x[:100_000])

    def _small_arrays(self) -> None:
        a = self._small.copy()
        for i in range(1_000):
            a = np.maximum(a, self._small * i)
            a[int(np.argmax(a))] = 0.0

    def probe(self) -> float:
        """Time one reference pass; returns its time in seconds."""
        total = 0.0
        for part in (self._interpreter, self._arrays, self._small_arrays):
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                part()
                samples.append(time.perf_counter() - t0)
            total += statistics.median(samples)
        self.probes.append(total)
        return total

    def nominal(self, measured_s: float) -> float:
        """Probe after a stretch just measured at *measured_s* seconds
        (once, or more often so the probes take about ``SHARE`` of it)
        and return the stretch in seconds at the nominal speed."""
        t0 = time.perf_counter()
        after = [self.probe()]
        cost = time.perf_counter() - t0
        for _ in range(int(SHARE * measured_s / cost) - 1):
            after.append(self.probe())
        before, self._last = self._last, statistics.median(after)
        return measured_s * NOMINAL_S / (0.5 * (before + self._last))
