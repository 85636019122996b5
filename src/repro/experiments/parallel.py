"""Process boundary of the sweep executor.

``run_sweep(..., jobs=N)`` maps the sweep's work units
(:class:`~repro.experiments.runner.WorkUnit`) over ``N`` worker
processes with an ordered ``pool.map`` through one entry,
:func:`_plan_unit`, which runs the same
:func:`~repro.experiments.runner._run_unit` as the in-process path.  The
units, their order, and the merge of their samples are the runner's;
this module holds only what the process boundary adds.

Transport is data, not objects:

* the :class:`~repro.experiments.config.ExperimentConfig` crosses as its
  :meth:`~repro.experiments.config.ExperimentConfig.as_dict` JSON and the
  instance set once per worker via
  :func:`repro.network.serialization.networks_to_json` — the JSON round
  trip is bitwise-exact (property-tested), which is what makes worker
  tours identical to in-process tours;
* each work unit crosses as :meth:`~repro.experiments.runner.WorkUnit.to_json`
  (all units are encoded before the pool starts, so a non-JSON planner
  kwarg fails before any worker does);
* each unit's samples come back as JSON ``[volume_gb, time_s, perf]``
  triples (the float round trip is exact), with the worker's metrics
  snapshot and artifact-cache statistics.

Each worker keeps its own
:class:`~repro.experiments.artifacts.ArtifactCache`, so geometry is
built once per (instance, δ) *per worker*, and — when the parent traces
or keeps a run ledger — its own :class:`~repro.obs.tracer.Tracer` /
:class:`~repro.obs.ledger.Ledger`, flushed to per-worker JSONL shards
that the parent merges after the pool shuts down
(:mod:`repro.obs.shards`).  Planning time is measured inside the worker
around the planning call only — queue wait and transport never pollute
the paper's Figs. 3(b)/4(b)/5(b) quantity.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import UnitContext, WorkUnit, _run_unit
from repro.network.sensor_network import SensorNetwork
from repro.network.serialization import networks_from_json, networks_to_json
from repro.obs.ledger import Ledger, get_ledger, set_ledger
from repro.obs.metrics import MetricsRegistry, get_metrics, metrics_scope
from repro.obs.record import RunRecord
from repro.obs.shards import (
    append_shard,
    merge_ledger_shards,
    merge_trace_shards,
    shard_path,
)
from repro.obs.tracer import Tracer, activated, get_tracer

#: Worker-process state installed by :func:`_init_worker` (one per worker).
_WORKER: Dict[str, Any] = {}


def _init_worker(config_json: str, instances_json: str, cache_enabled: bool,
                 validate: bool, tracing: bool, shard_dir: Optional[str],
                 ledgering: bool, ledger_mem: bool,
                 collect_metrics: bool) -> None:
    """Per-worker setup: decode instances once, build cache/tracer/ledger.

    When the parent has an active run ledger (``ledgering``), the worker
    installs its own :class:`~repro.obs.ledger.Ledger` streaming to a
    ``ledger-shard-<pid>.jsonl`` file — the facade's ``planner.call``
    records land there and are merged back by the parent.  When the
    parent has an ambient metrics registry (``collect_metrics``), each
    work unit scopes a fresh registry and ships its snapshot home.
    """
    config = ExperimentConfig.from_dict(json.loads(config_json))
    _WORKER["ctx"] = UnitContext(
        instances=networks_from_json(instances_json),
        radio=config.radio_model(),
        cache=ArtifactCache() if cache_enabled else None,
        validate=validate)
    _WORKER["tracer"] = Tracer() if tracing else None
    _WORKER["shard_dir"] = shard_dir
    _WORKER["collect_metrics"] = collect_metrics
    if ledgering and shard_dir is not None:
        set_ledger(Ledger(shard_path(shard_dir, os.getpid(), kind="ledger"),
                          track_memory=ledger_mem))
    else:
        set_ledger(None)        # never inherit a forked parent ledger


def _plan_unit(unit_json: str) -> str:
    """Worker entry: plan one work unit, return its samples as JSON."""
    ctx: UnitContext = _WORKER["ctx"]
    tracer: Optional[Tracer] = _WORKER["tracer"]
    registry = (MetricsRegistry() if _WORKER["collect_metrics"] else None)
    with activated(tracer), metrics_scope(registry):
        samples = _run_unit(WorkUnit.from_json(unit_json), ctx)
    if tracer is not None and _WORKER["shard_dir"] is not None:
        append_shard(tracer.records(),
                     shard_path(_WORKER["shard_dir"], os.getpid()))
        tracer.clear()
    return json.dumps({
        "worker": os.getpid(),
        "samples": samples,
        "metrics": registry.snapshot() if registry is not None else None,
        "cache": ctx.cache.stats() if ctx.cache is not None else None,
    })


class WorkerPool:
    """A process pool planning one sweep's work units.

    Constructing it encodes every unit (raising :class:`TypeError` on
    non-JSON planner kwargs); entering starts ``min(jobs, len(units))``
    workers; :meth:`results` yields each unit's samples in unit order;
    exiting shuts the pool down and merges the worker trace spans into
    the active tracer and the worker ledger records into the active
    ledger, counting them in :attr:`meta`.
    """

    def __init__(self, config: ExperimentConfig,
                 instances: Sequence[SensorNetwork],
                 units: Sequence[WorkUnit], *, jobs: int, cache: bool,
                 validate: bool) -> None:
        self._payloads = [unit.to_json() for unit in units]
        self._config = config
        self._instances = instances
        self._workers = min(jobs, len(self._payloads))
        self._cache = cache
        self._validate = validate
        self._worker_cache: Dict[int, Dict[str, int]] = {}
        #: ``trace_records`` / ``ledger_records`` merged from the shards.
        self.meta: Dict[str, Any] = {}

    def __enter__(self) -> "WorkerPool":
        self._tracer = get_tracer()
        self._ledger = get_ledger()
        self._metrics = get_metrics()
        self._tracing = bool(getattr(self._tracer, "enabled", False))
        self._shard_dir = (tempfile.mkdtemp(prefix="repro-shards-")
                           if self._tracing or self._ledger is not None
                           else None)
        self._pool = ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=_init_worker,
            initargs=(json.dumps(self._config.as_dict()),
                      networks_to_json(self._instances),
                      self._cache, self._validate, self._tracing,
                      self._shard_dir, self._ledger is not None,
                      bool(self._ledger is not None
                           and self._ledger.track_memory),
                      self._metrics is not None))
        return self

    def results(self) -> Iterator[List[List[Any]]]:
        """Each unit's ``[value][instance]`` samples, in unit order."""
        for text in self._pool.map(_plan_unit, self._payloads):
            payload = json.loads(text)
            if self._metrics is not None and payload["metrics"]:
                self._metrics.merge_snapshot(payload["metrics"])
            if payload["cache"] is not None:
                # Worker statistics are cumulative: keep each one's latest.
                self._worker_cache[payload["worker"]] = payload["cache"]
            yield payload["samples"]

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Artifact-cache statistics summed over the workers."""
        if not self._cache:
            return None
        return {key: sum(stats[key] for stats in self._worker_cache.values())
                for key in ("hits", "misses", "artifacts")}

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        self._pool.shutdown(cancel_futures=exc_type is not None)
        if self._shard_dir is None:
            return
        try:
            if exc_type is None and self._tracing:
                merged = merge_trace_shards(self._shard_dir)
                if isinstance(self._tracer, Tracer):
                    self._tracer.ingest(merged)
                self.meta["trace_records"] = len(merged)
            if exc_type is None and self._ledger is not None:
                # Worker records (the facade's planner.call entries) come
                # home in canonical order; the parent then emits the
                # per-cell aggregates itself.
                records = merge_ledger_shards(self._shard_dir)
                self._ledger.extend(RunRecord.from_dict(rec)
                                    for rec in records)
                self.meta["ledger_records"] = len(records)
        finally:
            shutil.rmtree(self._shard_dir, ignore_errors=True)


__all__ = ["WorkerPool"]
