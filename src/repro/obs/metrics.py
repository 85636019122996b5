"""Metrics registry: counters, gauges, and fixed-bucket histograms.

This is the structured successor of the planner kernel's hand-rolled
``counters``/``timers`` dicts: :class:`repro.core.kernel.PlannerKernel`
now keeps a :class:`MetricsRegistry` and serves the *same*
``CollectionTour.meta["perf"]`` snapshot from it (engine, integer work
counters, ``seconds`` per phase), so downstream consumers — the
experiment runner's perf aggregation, the bench ledger — see an
unchanged contract.

Three instrument kinds, all get-or-create by name:

* :class:`Counter` — monotonically-increasing float (work counts,
  accumulated seconds);
* :class:`Gauge` — last-write-wins value (queue depths, tour length);
* :class:`Histogram` — fixed upper-bound buckets plus sum/count, with a
  bucket-interpolated :meth:`~Histogram.quantile` — cheap enough for hot
  loops, stable enough for regression gates.

:meth:`MetricsRegistry.time` is the timing primitive the kernel uses::

    with metrics.time("rescore"):
        ...  # accumulates wall-clock seconds into timer "rescore"

Timers are plain counters in a separate namespace so a timer and a work
counter may share a name without colliding.

Registries also know how to **merge** (:meth:`MetricsRegistry.merge` /
:meth:`MetricsRegistry.merge_snapshot`): counters, timers, and histogram
buckets add, gauges add as partitions of one quantity — all
order-insensitive, which is what lets the parallel sweep executor fold
per-worker snapshots back into the parent registry deterministically.
An optional **ambient registry** (:func:`get_metrics` /
:func:`set_metrics` / :class:`metrics_scope`) mirrors the tracer's
active-instance pattern: ``None`` by default, installed for the duration
of a sweep or benchmark run so instrumented layers can accumulate into
one place without threading a registry through every signature.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def nearest_rank(n: int, q: float) -> int:
    """The 1-based nearest-rank index of quantile *q* in *n* samples.

    The single quantile definition shared by :meth:`Histogram.quantile`,
    the trace report's percentile column, and the regression
    observatory's p50/p95 aggregation (``rank = max(1, ceil(q * n))``;
    0 when there are no samples).  Raises for ``q`` outside ``[0, 1]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if n <= 0:
        return 0
    return max(1, math.ceil(q * n))


def quantile_sorted(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (0.0 when empty)."""
    rank = nearest_rank(len(sorted_values), q)
    if rank == 0:
        return 0.0
    return sorted_values[rank - 1]


class Counter:
    """A monotonically-increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level of the tracked quantity."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: counts per upper bound, plus sum/count.

    ``bounds`` are strictly-increasing inclusive upper bounds; a final
    implicit overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds_t = tuple(float(b) for b in bounds)
        if not bounds_t or any(b2 <= b1 for b1, b2
                               in zip(bounds_t, bounds_t[1:])):
            raise ValueError("histogram bounds must be non-empty and "
                             f"strictly increasing, got {bounds!r}")
        self.name = name
        self.bounds = bounds_t
        self.counts = [0] * (len(bounds_t) + 1)   # last = overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th observation; linear within the overflow bucket is
        impossible, so the last bound is returned there).  Uses the same
        nearest-rank definition (:func:`nearest_rank`) as the trace
        report and the regression observatory."""
        rank = nearest_rank(self.count, q)
        if rank == 0:
            return 0.0
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.total, "count": self.count}


class _TimerContext:
    """Accumulates a ``with`` block's wall-clock into a timer counter."""

    __slots__ = ("_counter", "_t0")

    def __init__(self, counter: Counter) -> None:
        self._counter = counter
        self._t0 = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._counter.value += time.perf_counter() - self._t0
        return None


class MetricsRegistry:
    """Named counters, gauges, histograms, and timers (get-or-create)."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_timers")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter *name*, created on first use."""
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters.setdefault(name, Counter(name))
            return c

    def gauge(self, name: str) -> Gauge:
        """The gauge *name*, created on first use."""
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges.setdefault(name, Gauge(name))
            return g

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram *name*, created on first use with *bounds*."""
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms.setdefault(
                name, Histogram(name, bounds if bounds is not None
                                else DEFAULT_BUCKETS))
            return h

    def timer(self, name: str) -> Counter:
        """The timer *name* (an accumulated-seconds counter), created on
        first use.  Timers live in their own namespace so a timer and a
        work counter may share a name."""
        try:
            return self._timers[name]
        except KeyError:
            c = self._timers.setdefault(name, Counter(name))
            return c

    def time(self, name: str) -> _TimerContext:
        """Context manager accumulating seconds into timer *name*."""
        return _TimerContext(self.timer(name))

    # -- Snapshots ----------------------------------------------------- #

    def counter_values(self) -> Dict[str, float]:
        """``{name: value}`` for every counter."""
        return {n: c.value for n, c in self._counters.items()}

    def timer_seconds(self) -> Dict[str, float]:
        """``{name: accumulated seconds}`` for every timer."""
        return {n: c.value for n, c in self._timers.items()}

    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-ready state of every instrument."""
        return {
            "counters": self.counter_values(),
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "timers_s": self.timer_seconds(),
            "histograms": {n: h.as_dict()
                           for n, h in self._histograms.items()},
        }

    # -- Merging ------------------------------------------------------- #

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other*'s instruments into this registry (returns self).

        Counters and timers add; gauges add too — a merged gauge reads as
        the sum over the per-registry levels, the right semantics for the
        per-worker partitions of one quantity (cache sizes, queue depths)
        this is used for; histograms add bucket-wise and must agree on
        bounds.  Merging is commutative and associative, so folding N
        worker snapshots produces the same registry in any order.
        """
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snap: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot`-shaped dict into this registry.

        This is the transport-side twin of :meth:`merge`: the parallel
        sweep executor ships worker registries across the process
        boundary as JSON snapshots and the parent folds them back here.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snap.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(gauge.value + float(value))
        for name, value in snap.get("timers_s", {}).items():
            self.timer(name).value += float(value)
        for name, hist in snap.get("histograms", {}).items():
            bounds = tuple(float(b) for b in hist["bounds"])
            mine = self.histogram(name, bounds)
            if mine.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} bounds mismatch on merge: "
                    f"{mine.bounds} vs {bounds}")
            for i, c in enumerate(hist["counts"]):
                mine.counts[i] += int(c)
            mine.total += float(hist["sum"])
            mine.count += int(hist["count"])
        return self


#: The ambient registry (``None`` = no ambient accumulation).
_active_metrics: Optional[MetricsRegistry] = None


def get_metrics() -> Optional[MetricsRegistry]:
    """The ambient registry installed by :func:`set_metrics`, or ``None``.

    Instrumented layers that *accumulate across calls* (the sweep
    runner's per-tour perf fold, the benchmark harness) write here when a
    scope is active; ``None`` — the default — means those sites do
    nothing, so ordinary planner runs pay no bookkeeping.
    """
    return _active_metrics


def set_metrics(registry: Optional[MetricsRegistry]
                ) -> Optional[MetricsRegistry]:
    """Install *registry* as ambient (``None`` disables); returns previous."""
    global _active_metrics
    previous = _active_metrics
    _active_metrics = registry
    return previous


class metrics_scope:
    """Temporarily install an ambient registry::

        with metrics_scope(MetricsRegistry()) as reg:
            run_sweep(...)            # kernel.* counters accumulate in reg

    ``metrics_scope(None)`` keeps the current ambient registry, so entry
    points can thread an optional parameter straight through.
    """

    __slots__ = ("registry", "_previous", "_installed")

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None
        self._installed = False

    def __enter__(self) -> Optional[MetricsRegistry]:
        if self.registry is None:
            return _active_metrics
        self._previous = set_metrics(self.registry)
        self._installed = True
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        if self._installed:
            set_metrics(self._previous)
            self._installed = False
        return None


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "nearest_rank", "quantile_sorted",
           "get_metrics", "set_metrics", "metrics_scope"]
