"""Per-layer attribution for the traced benchmark run.

The program's own spans are left off: this module wraps each layer's
public function at the name its caller looks up (for example
``repro.core.algorithm1.build_auxiliary_graph``) and records one span per
call into a private :class:`repro.obs.Tracer`.  Self time is a span's
duration minus the part its child spans cover, so every second of a
traced request lands in exactly one layer.  Work counts are read from
what each wrapped call returns, at the boundary where the work happens.

A wrapped name that no longer exists is skipped, so a later refactor that
renames or removes a layer only zeroes that layer's metrics.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.memprof import begin_peak_region, end_peak_region
from repro.obs.tracer import Tracer

Counts = Dict[str, float]
Observer = Callable[[Counts, tuple, Any], None]

#: Modules that look up the site/reduction builders by name.
_SITE_CALLERS = ("repro.core.algorithm1", "repro.core.algorithm2",
                 "repro.core.algorithm3", "repro.core.batch",
                 "repro.experiments.artifacts")


def _nbytes(value: Any) -> int:
    return int(getattr(value, "nbytes", 0) or 0)


def _on_sites(counts: Counts, args: tuple, sites: Any) -> None:
    counts["hovering.calls"] += 1
    counts["hovering.sites"] += sites.n_sites


def _on_reduce(counts: Counts, args: tuple, reduced: Any) -> None:
    counts["reduce.sites_in"] += args[0].n_sites
    counts["reduce.sites_kept"] += reduced.n_sites


def _on_overlap(counts: Counts, args: tuple, overlap: Any) -> None:
    # The matrix is symmetric with a False diagonal: each pair twice.
    counts["conflict.pairs"] += int(np.count_nonzero(overlap)) // 2


def _on_graph(counts: Counts, args: tuple, graph: Any) -> None:
    counts["auxgraph.calls"] += 1
    counts["auxgraph.nodes"] += graph.n_nodes
    costs = _nbytes(getattr(graph, "costs", None))
    # A graph class that exposes ``costs_t`` materialises a second,
    # transposed matrix of the same size once a solver asks for it.
    has_transpose = hasattr(type(graph), "costs_t")
    counts["auxgraph.bytes_computed"] += costs * (2 if has_transpose else 1)


def _on_polish(counts: Counts, args: tuple, solution: Any) -> None:
    stats = getattr(solution, "stats", None) or {}
    for key in ("restarts", "constructions_deduped", "ls_rounds",
                "ls_moves"):
        counts["grasp." + key] += stats.get(key, 0)


def _perf(tour: Any) -> Dict[str, Any]:
    return tour.meta.get("perf") or {}


def _on_kernel(counts: Counts, args: tuple, tour: Any) -> None:
    counts["kernel.sites_rescored"] += _perf(tour).get("sites_rescored", 0)


def _on_batch(counts: Counts, args: tuple, tours: Any) -> None:
    for tour in tours:
        perf = _perf(tour)
        counts["batch.insertions"] += perf.get("insertions", 0)
        counts["batch.deltas_recomputed"] += perf.get("deltas_recomputed", 0)


def _on_baseline(counts: Counts, args: tuple, tour: Any) -> None:
    counts["baseline.removals"] += tour.meta.get("removals", 0)


def _on_christofides(counts: Counts, args: tuple, tour: Any) -> None:
    counts["tsp.christofides.calls"] += 1


#: (span name, [(module, attribute)], observer, measure allocation peak).
#: An attribute ``"Class.method"`` wraps the method on the class.
LAYERS: List[Tuple[str, List[Tuple[str, str]], Optional[Observer], bool]] = [
    ("core.hovering", [(m, "build_hovering_sites") for m in _SITE_CALLERS],
     _on_sites, False),
    ("core.reduce", [(m, "reduce_sites") for m in _SITE_CALLERS],
     _on_reduce, False),
    ("conflict", [("repro.core.hovering", "HoveringSites.overlap_matrix")],
     _on_overlap, False),
    ("conflict", [("repro.core.algorithm1",
                   "_conflict_neighbors_from_overlap")], None, False),
    ("core.auxgraph", [("repro.core.algorithm1", "build_auxiliary_graph"),
                       ("repro.experiments.artifacts",
                        "build_auxiliary_graph")],
     _on_graph, True),
    ("core.algorithm1", [("repro.core.planner", "plan_algorithm1")],
     None, False),
    ("orienteering.construct", [("repro.orienteering.fast",
                                 "stacked_constructions")], None, False),
    ("orienteering.polish", [("repro.orienteering.fast",
                              "polish_constructions")], _on_polish, False),
    ("core.kernel", [("repro.core.planner", "plan_algorithm2"),
                     ("repro.core.planner", "plan_algorithm3")],
     _on_kernel, False),
    ("core.batch", [("repro.core.batch", "plan_algorithm2_batch"),
                    ("repro.core.batch", "plan_algorithm3_batch")],
     _on_batch, False),
    ("core.benchmark_alg", [("repro.core.planner", "plan_benchmark")],
     _on_baseline, False),
    ("tsp.christofides", [("repro.core.benchmark_alg", "christofides_tour"),
                          ("repro.core.algorithm2", "christofides_tour")],
     _on_christofides, False),
    ("sim.validate", [("repro.sim.validate", "cross_validate"),
                      ("repro.experiments.runner", "cross_validate")],
     None, False),
]

#: Per-layer metric name -> span whose summed self time it reports.
TIME_METRICS = {
    "hovering.time_s": "core.hovering",
    "reduce.time_s": "core.reduce",
    "conflict.time_s": "conflict",
    "auxgraph.time_s": "core.auxgraph",
    "orienteering.construct.time_s": "orienteering.construct",
    "orienteering.polish.time_s": "orienteering.polish",
    "batch.time_s": "core.batch",
    "kernel.time_s": "core.kernel",
    "baseline.time_s": "core.benchmark_alg",
    "tsp.christofides.time_s": "tsp.christofides",
    "sim.validate.time_s": "sim.validate",
}


class LayerTrace:
    """Install span wrappers on every layer; undo them on :meth:`close`."""

    def __init__(self) -> None:
        self.tracer = Tracer(capacity=1 << 20)
        self.counts: Counts = defaultdict(float)
        self.alloc_peak_bytes = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "LayerTrace":
        for name, targets, observer, track_alloc in LAYERS:
            for module_name, attr in targets:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                setattr(owner, leaf,
                        self._wrap(name, original, observer, track_alloc))
                self._undo.append((owner, leaf, original))
        return self

    def close(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def span(self, name: str, /, **attrs: Any):
        """A span on the private tracer (the benchmark's root spans)."""
        return self.tracer.span(name, **attrs)

    def _wrap(self, name: str, func: Callable, observer: Optional[Observer],
              track_alloc: bool) -> Callable:
        tracer, counts = self.tracer, self.counts

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                if not track_alloc:
                    result = func(*args, **kwargs)
                else:
                    started = begin_peak_region()
                    try:
                        result = func(*args, **kwargs)
                    finally:
                        peak = end_peak_region(started)
                    self.alloc_peak_bytes = max(self.alloc_peak_bytes, peak)
            if observer is not None:
                observer(counts, args, result)
            return result

        return traced

    # -- Read-out ------------------------------------------------------ #

    def records(self) -> List[Dict[str, Any]]:
        """Finished spans with ``self_s`` (duration minus children)."""
        records = self.tracer.records()
        covered: Dict[int, float] = defaultdict(float)
        for rec in records:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["dur_s"]
        out = []
        for rec in records:
            copy = dict(rec)
            copy["attrs"] = {**rec["attrs"],
                             "self_s": rec["dur_s"] - covered[rec["id"]]}
            out.append(copy)
        return out

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (call count, summed self time in seconds)."""
        table: Dict[str, Tuple[int, float]] = {}
        for rec in self.records():
            calls, total = table.get(rec["name"], (0, 0.0))
            table[rec["name"]] = (calls + 1, total + rec["attrs"]["self_s"])
        return table

    def metrics(self) -> Dict[str, float]:
        """Every per-layer count and time this module measures."""
        c = self.counts
        table = self.self_times()
        out = {metric: table.get(span, (0, 0.0))[1]
               for metric, span in TIME_METRICS.items()}
        sites_in = c["reduce.sites_in"]
        restarts = c["grasp.restarts"]
        out.update({
            "hovering.calls": c["hovering.calls"],
            "hovering.sites": c["hovering.sites"],
            # 1.0 when no pre-pass ran: nothing was removed.
            "reduce.kept_ratio": (c["reduce.sites_kept"] / sites_in
                                  if sites_in else 1.0),
            "conflict.pairs": c["conflict.pairs"],
            "auxgraph.calls": c["auxgraph.calls"],
            "auxgraph.nodes": c["auxgraph.nodes"],
            "auxgraph.bytes_computed": c["auxgraph.bytes_computed"],
            "auxgraph.alloc_peak_mb": self.alloc_peak_bytes / 2 ** 20,
            "grasp.ls_rounds": c["grasp.ls_rounds"],
            "grasp.ls_moves": c["grasp.ls_moves"],
            "grasp.dedup_ratio": (c["grasp.constructions_deduped"] / restarts
                                  if restarts else 0.0),
            "batch.insertions": c["batch.insertions"],
            "batch.deltas_recomputed": c["batch.deltas_recomputed"],
            "kernel.sites_rescored": c["kernel.sites_rescored"],
            "baseline.removals": c["baseline.removals"],
            "tsp.christofides.calls": c["tsp.christofides.calls"],
        })
        return out

    def export(self, stem: Path) -> List[Path]:
        """Write the spans as JSONL and Chrome ``trace_event`` JSON."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        records = self.records()
        jsonl = stem.with_suffix(".jsonl")
        chrome = stem.with_suffix(".chrome.json")
        write_jsonl(records, jsonl)
        write_chrome_trace(records, chrome)
        return [jsonl, chrome]
