"""Generic sweep engine.

One *sweep* = (algorithms x parameter values x instances).  For every cell
the runner plans a tour, measures wall-clock planning time (the quantity in
the paper's Figs. 3(b)/4(b)/5(b)), optionally cross-validates the tour
against the execution simulator, and aggregates means/standard deviations
across instances.

Work units
----------
:func:`_build_units` turns a sweep into one list of JSON-safe
:class:`WorkUnit` objects of three kinds:

* ``cell`` — one algorithm × one parameter value × every instance (the
  default for every spec);
* ``column`` (``batch_columns=True``) — one batch-eligible Algorithm 2/3
  spec × every value × one instance, planned in one stacked batch call
  (:mod:`repro.core.batch`).  Eligible means the spec's kwargs are
  identical at every value and only the energy model varies (Fig. 5's
  capacity sweep); ineligible specs silently keep cell units.  Batch
  plans are bitwise-identical to per-cell plans; only the perf
  engine/counters differ, and a cell's ``mean_time_s`` is the column
  wall-clock divided by the column width;
* ``chain`` (``delta_continuation=True``, δ sweeps only) — one Algorithm 1
  spec × every δ × one instance, planned coarse→fine with each finer
  grid's reduction corridor and first GRASP construction warm-started
  from the coarser grid's tour (:mod:`repro.experiments.continuation`);
  warm tours are accepted only on strict improvement.

:func:`_run_unit` plans one unit and returns its samples; the merge
buckets every sample under its cell in instance order and aggregates
each cell exactly once, reporting progress in canonical cell order.
``jobs=1`` (default) maps :func:`_run_unit` over the units in-process;
``jobs=N`` maps the same function over the same units on a process pool
(:mod:`repro.experiments.parallel`), units crossing as JSON.  Nothing
else differs, so every deterministic field of every :class:`SweepRow` —
volumes, instance counts, the kernel work counters in ``perf`` — is
bitwise-identical regardless of ``jobs``; only the measured wall-clock
fields vary run to run.  See ``docs/experiments.md``.

Every process planning units keeps an
:class:`~repro.experiments.artifacts.ArtifactCache` (``cache=True``,
default): δ-grid sites, conflict lists, and auxiliary graphs are built
once per (instance, δ) and reused across cells, so e.g. a capacity sweep
pays for its geometry once.  Cache lookups happen *outside* the per-cell
timer — with the cache on, ``mean_time_s`` is pure planning time over
prebuilt geometry; run ``cache=False`` to measure the paper-literal
geometry-included time.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.core.batch import plan_algorithm2_batch, plan_algorithm3_batch
from repro.core.planner import plan_tour
from repro.core.reduce import resolve_reduction
from repro.energy.model import EnergyModel
from repro.experiments.artifacts import (CACHEABLE_METHODS, ArtifactCache,
                                         resolve_cache)
from repro.experiments.continuation import (chainable_spec,
                                            continuation_order,
                                            project_warm_nodes,
                                            tour_seed_points)
from repro.experiments.config import ExperimentConfig
from repro.network.sensor_network import SensorNetwork
from repro.obs.ledger import get_ledger, record_event
from repro.obs.metrics import get_metrics
from repro.obs.record import (
    PERF_SECONDS_PREFIX,
    config_hash,
    flatten_perf,
    perf_counter_metrics,
    sanitize_config,
)
from repro.obs.tracer import TracerLike, activated, span
from repro.sim.validate import cross_validate
from repro.utils.timing import Timer

#: MB per GB — figure axes in the paper are GB.
MB_PER_GB = 1000.0


@dataclass(frozen=True)
class AlgoSpec:
    """One plotted algorithm: display name, planner method, fixed options."""

    name: str
    method: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepRow:
    """One aggregated data point (one algorithm at one parameter value)."""

    param_name: str
    param_value: float
    algorithm: str
    mean_volume_gb: float
    std_volume_gb: float
    mean_time_s: float
    std_time_s: float
    n_instances: int
    #: Mean planner-kernel work counters across instances (engine,
    #: sites_rescored, deltas_recomputed, ... — see
    #: ``CollectionTour.meta["perf"]``).  Diagnostic only: deliberately
    #: excluded from :meth:`as_dict` so committed CSV schemas stay stable.
    perf: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for CSV writers."""
        return {
            "param_name": self.param_name,
            "param_value": self.param_value,
            "algorithm": self.algorithm,
            "mean_volume_gb": self.mean_volume_gb,
            "std_volume_gb": self.std_volume_gb,
            "mean_time_s": self.mean_time_s,
            "std_time_s": self.std_time_s,
            "n_instances": self.n_instances,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The run-to-run reproducible view of the row.

        Drops the measured wall-clock fields (``mean_time_s``,
        ``std_time_s``) and the ``seconds.*`` perf means, keeping
        everything the planners compute deterministically: volumes,
        instance counts, engine name, and the kernel work counters.
        Two sweeps of the same campaign — any ``jobs``, any worker
        completion order, cache on or off — must agree *bitwise* on this
        view; the parallel-equality tests and the CI job compare it.
        """
        det = self.as_dict()
        del det["mean_time_s"], det["std_time_s"]
        if self.perf is not None:
            det["perf"] = {
                k: v for k, v in self.perf.items()
                if not k.startswith(PERF_SECONDS_PREFIX)}
        return det


@dataclass
class SweepResult:
    """All rows of one sweep plus the configuration that produced them."""

    config: ExperimentConfig
    rows: List[SweepRow]
    #: Execution metadata (jobs, artifact-cache hit/miss counters, trace
    #: shard count) — diagnostic only, never serialised into the CSVs.
    meta: Dict[str, Any] = field(default_factory=dict)

    def series(self, algorithm: str) -> List[SweepRow]:
        """The rows of one algorithm, ordered by parameter value."""
        return sorted((r for r in self.rows if r.algorithm == algorithm),
                      key=lambda r: r.param_value)

    def algorithms(self) -> List[str]:
        """Distinct algorithm names in plot order of first appearance."""
        seen: List[str] = []
        for r in self.rows:
            if r.algorithm not in seen:
                seen.append(r.algorithm)
        return seen


def _fold_perf_ambient(perf: Optional[Dict[str, Any]]) -> None:
    """Fold one tour's perf snapshot into the ambient metrics registry.

    A no-op unless a :class:`~repro.obs.metrics.metrics_scope` is active.
    Work counts become ``kernel.*`` counters (deterministic), the
    measured ``seconds.*`` phases become ``kernel.*`` timers — so a whole
    sweep's kernel work accumulates in one registry regardless of
    ``jobs`` (pool workers scope a fresh registry per work unit and the
    parent merges the snapshots back,
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`).
    """
    registry = get_metrics()
    if registry is None or not perf:
        return
    for key, value in flatten_perf(perf).items():
        if key.startswith(PERF_SECONDS_PREFIX):
            timer = registry.timer(
                f"kernel.{key[len(PERF_SECONDS_PREFIX):]}")
            timer.value += value
        else:
            registry.counter(f"kernel.{key}").inc(value)


def sweep_cells(algorithms: Sequence[AlgoSpec],
                param_values: Sequence[float]) -> List[tuple]:
    """The sweep's cell list in canonical order: ``(index, value, spec)``.

    Canonical order is parameter values outer, algorithms inner, and
    defines both the row order of :class:`SweepResult` and the
    progress-callback order at every ``jobs`` value.
    """
    cells = []
    for value in param_values:
        for spec in algorithms:
            cells.append((len(cells), value, spec))
    return cells


def format_progress(cell_index: int, total: int, param_name: str,
                    value: float, row: SweepRow) -> str:
    """One ``[k/total]``-prefixed status line for a finished cell."""
    return (f"[{cell_index + 1}/{total}] "
            f"{param_name}={value:g} {row.algorithm}: "
            f"{row.mean_volume_gb:.2f} GB, "
            f"{row.mean_time_s:.2f} s")


def _emit_sweep_records(config: ExperimentConfig,
                        algorithms: Sequence[AlgoSpec],
                        param_name: str,
                        param_values: Sequence[float],
                        rows: Sequence[SweepRow],
                        *,
                        jobs: int,
                        column_specs: Sequence[int] = ()) -> None:
    """Emit one ``sweep.cell`` ledger record per finished cell (plus one
    ``sweep.column`` per batched column); a no-op when no ledger is active.

    Called *after* every row exists — the parent emits these in canonical
    cell order at every ``jobs`` value, and nothing here touches the
    rows, so sweep outputs stay bitwise-identical with the ledger on or
    off.  Cell wall-clock is the aggregate planning time
    (``mean_time_s * n_instances``); the counters are the deterministic
    per-instance means from ``row.perf``.
    """
    if get_ledger() is None:
        return
    campaign = config.as_dict()
    n_specs = len(algorithms)
    for index, value, spec in sweep_cells(algorithms, param_values):
        row = rows[index]
        perf = row.perf or {}
        payload = sanitize_config({
            "campaign": campaign, "param_name": param_name,
            "param_value": float(value), "algorithm": spec.name,
            "method": spec.method, "kwargs": spec.kwargs})
        record_event(
            "sweep.cell",
            label=spec.name,
            config_hash=config_hash(payload),
            engine=perf.get("engine"),
            jobs=jobs,
            wall_s=row.mean_time_s * row.n_instances,
            metrics={"counters": perf_counter_metrics(perf)},
            extra={"cell": index, "param_name": param_name,
                   "param_value": float(value),
                   "mean_volume_gb": row.mean_volume_gb,
                   "n_instances": row.n_instances})
    for s_idx in sorted(column_specs):
        spec = algorithms[s_idx]
        col_rows = [rows[v_idx * n_specs + s_idx]
                    for v_idx in range(len(param_values))]
        payload = sanitize_config({
            "campaign": campaign, "param_name": param_name,
            "algorithm": spec.name, "method": spec.method,
            "kwargs": spec.kwargs, "column": True})
        record_event(
            "sweep.column",
            label=spec.name,
            config_hash=config_hash(payload),
            engine=(col_rows[0].perf or {}).get("engine"),
            jobs=jobs,
            wall_s=sum(r.mean_time_s * r.n_instances for r in col_rows),
            extra={"column": s_idx, "width": len(param_values)})


def _with_site_reduction(make_kwargs: Callable[[ExperimentConfig, float,
                                                AlgoSpec], Dict[str, Any]],
                         transport: Any
                         ) -> Callable[[ExperimentConfig, float, AlgoSpec],
                                       Dict[str, Any]]:
    """Wrap *make_kwargs* to inject a ``site_reduction`` planner kwarg.

    Injection targets only the δ-grid planners (the benchmark hovers over
    sensors directly — nothing to reduce) and never overrides a
    reduction a spec sets explicitly.  *transport* is the JSON-safe form
    from :meth:`~repro.core.reduce.SiteReduction.transport` (a level
    string or a plain dict), so the wrapped kwargs remain shippable to
    parallel worker processes as data.
    """
    def wrapped(config: ExperimentConfig, value: float,
                spec: AlgoSpec) -> Dict[str, Any]:
        kwargs = make_kwargs(config, value, spec)
        if spec.method not in CACHEABLE_METHODS or "site_reduction" in kwargs:
            return kwargs
        augmented = dict(kwargs)
        augmented["site_reduction"] = transport
        return augmented
    return wrapped


def run_sweep(config: ExperimentConfig,
              instances: Sequence[SensorNetwork],
              algorithms: Sequence[AlgoSpec],
              param_name: str,
              param_values: Sequence[float],
              *,
              make_energy: Callable[[ExperimentConfig, float], EnergyModel],
              make_kwargs: Callable[[ExperimentConfig, float, AlgoSpec], Dict[str, Any]],
              validate: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              trace: Optional[TracerLike] = None,
              jobs: int = 1,
              cache: Any = True,
              batch_columns: bool = False,
              site_reduction: Any = None,
              delta_continuation: bool = False) -> SweepResult:
    """Run a full sweep and aggregate per-cell statistics.

    Parameters
    ----------
    config:
        The campaign configuration.
    instances:
        The shared network instance set (see
        :func:`repro.experiments.instances.make_instances`).
    algorithms:
        Plotted algorithms.
    param_name, param_values:
        The swept axis (``"capacity"`` or ``"delta"``).
    make_energy:
        Maps (config, param value) to the :class:`EnergyModel` for a cell.
    make_kwargs:
        Maps (config, param value, spec) to planner kwargs for a cell.
        Under ``jobs > 1`` the returned kwargs must be JSON-serialisable
        (work units cross to worker processes as data, not pickles); a
        non-JSON kwarg raises :class:`TypeError` before any worker starts.
    validate:
        Cross-validate every planned tour against the simulator (cheap
        relative to planning; catches planner regressions during sweeps).
    progress:
        Optional callback receiving one ``[k/total]``-prefixed status
        line per cell, always in canonical cell order, as soon as every
        unit contributing to the cell (and to all cells before it) is done.
    trace:
        Optional :class:`repro.obs.Tracer` activated for the whole sweep;
        every unit gets a ``runner.cell``/``runner.column``/``runner.chain``
        span with the planner's own spans nested underneath.  Under
        ``jobs > 1`` workers record spans into JSONL shards which are
        merged into this tracer after the sweep
        (:mod:`repro.obs.shards`).
    jobs:
        Worker process count; ``1`` runs in-process.
    cache:
        ``True`` (default) — memoize per-(instance, δ) geometry across
        cells in an :class:`~repro.experiments.artifacts.ArtifactCache`
        (one per planning process); ``False`` — rebuild per cell,
        paper-literal; or a caller-owned cache instance, which only
        ``jobs=1`` can use (worker processes cannot share it, so
        ``jobs > 1`` raises :class:`ValueError`).
    batch_columns:
        Plan each eligible algorithm's whole value column per instance
        in one stacked batch call (``column`` units, see the module
        docstring).  Deterministic row fields other than the perf
        engine/counters are unchanged; ineligible specs keep cell units.
    site_reduction:
        Candidate-site reduction pre-pass applied to every δ-grid cell
        (``None``/``"off"``, ``"safe"``, ``"aggressive"``, a
        :class:`~repro.core.reduce.SiteReduction`, or its dict form).
        Implemented by wrapping *make_kwargs* with a JSON-safe
        ``site_reduction`` planner kwarg, so it reaches every unit kind
        at every ``jobs`` value the same way; benchmark specs and specs
        that already set their own ``site_reduction`` are left alone.
        Capacity-dependent stages bound a batch column by its largest
        capacity (see :mod:`repro.core.batch`).
    delta_continuation:
        Plan each Algorithm 1 spec's δ column per instance in descending
        δ order (``chain`` units), warm-starting every finer cell's
        reduction corridor and first GRASP construction from the coarser
        cell's finished tour (:mod:`repro.experiments.continuation`).
        Requires a δ sweep (``param_name == "delta"``) and the artifact
        cache (the warm payloads flow through it); warm tours are kept
        only on strict improvement, so with the reduction off or
        ``safe`` a continuation cell never collects less than its
        cold-start value.  Other specs keep cell units.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and isinstance(cache, ArtifactCache):
        raise ValueError(
            "a caller-owned ArtifactCache cannot be shared with worker "
            "processes; pass cache=True (one cache per worker) or jobs=1")
    artifact_cache = resolve_cache(cache)
    if delta_continuation:
        if param_name != "delta":
            raise ValueError(
                f"delta_continuation chains along the swept δ axis; this "
                f"sweep's param_name is {param_name!r}")
        if artifact_cache is None:
            raise ValueError(
                "delta_continuation needs the artifact cache (cache=True): "
                "warm payloads for the finer grids flow through it")
    reduction = resolve_reduction(site_reduction)
    if reduction.enabled:
        make_kwargs = _with_site_reduction(make_kwargs,
                                           reduction.transport())
    units = _build_units(config, len(instances), algorithms, param_name,
                        param_values, make_energy=make_energy,
                        make_kwargs=make_kwargs, batch_columns=batch_columns,
                        delta_continuation=delta_continuation)
    cells = sweep_cells(algorithms, param_values)
    pool_meta: Dict[str, Any] = {}
    with activated(trace):
        if jobs > 1 and units:
            from repro.experiments.parallel import WorkerPool
            with span("parallel.sweep", cells=len(cells), units=len(units),
                      jobs=jobs):
                with WorkerPool(config, instances, units, jobs=jobs,
                                cache=artifact_cache is not None,
                                validate=validate) as pool:
                    rows = _merge_rows(cells, units, pool.results(),
                                       len(instances), param_name, progress)
            cache_stats = pool.cache_stats()
            pool_meta = pool.meta
        else:
            ctx = UnitContext(instances, config.radio_model(),
                              artifact_cache, validate)
            rows = _merge_rows(cells, units,
                               (_run_unit(unit, ctx) for unit in units),
                               len(instances), param_name, progress)
            cache_stats = (None if artifact_cache is None
                           else artifact_cache.stats())
        column_specs = sorted({u.spec for u in units if u.kind == "column"})
        _emit_sweep_records(
            config, algorithms, param_name, param_values, rows, jobs=jobs,
            column_specs=column_specs)
    meta: Dict[str, Any] = {
        "jobs": jobs,
        "batch_columns": len(column_specs) * len(param_values),
        "continuation_chains": sum(u.kind == "chain" for u in units)}
    if cache_stats is not None:
        meta["cache"] = cache_stats
    meta.update(pool_meta)
    return SweepResult(config=config, rows=rows, meta=meta)


@dataclass(frozen=True)
class WorkUnit:
    """One piece of sweep work: a cell, a batch column or a δ chain.

    Plain data: everything a planning process needs besides the shared
    :class:`UnitContext`, and JSON-safe whenever the sweep's
    ``make_kwargs`` returns data.  The per-value fields (``cells``,
    ``values``, ``energies``, ``kwargs``) are aligned, in parameter-value
    order; a ``cell`` unit covers one value, ``column``/``chain`` units
    every value of their spec.
    """

    #: ``"cell"``, ``"column"`` or ``"chain"``.
    kind: str
    #: Index of the unit's algorithm in the sweep.
    spec: int
    algorithm: str
    method: str
    param_name: str
    #: Canonical cell index (:func:`sweep_cells`) per covered value.
    cells: List[int]
    values: List[float]
    #: :class:`EnergyModel` constructor fields per covered value.
    energies: List[Dict[str, Any]]
    #: Planner kwargs per covered value.
    kwargs: List[Dict[str, Any]]
    #: The one instance a column/chain plans; ``None`` (cells): all.
    instance: Optional[int] = None

    def to_json(self) -> str:
        """The unit as a JSON work payload; raises if kwargs are not data."""
        try:
            return json.dumps(vars(self))
        except TypeError as exc:
            raise TypeError(
                f"parallel sweeps ship planner kwargs to workers as JSON; "
                f"make_kwargs returned non-serialisable options for "
                f"{self.algorithm!r} at {self.param_name}="
                f"{self.values[0]:g}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "WorkUnit":
        return cls(**json.loads(text))


class UnitContext(NamedTuple):
    """What a planning process holds besides the work units themselves."""

    instances: Sequence[SensorNetwork]
    radio: Any
    cache: Optional[ArtifactCache]
    validate: bool


def _build_units(config: ExperimentConfig,
                n_instances: int,
                algorithms: Sequence[AlgoSpec],
                param_name: str,
                param_values: Sequence[float],
                *,
                make_energy: Callable[[ExperimentConfig, float],
                                      EnergyModel],
                make_kwargs: Callable[[ExperimentConfig, float, AlgoSpec],
                                      Dict[str, Any]],
                batch_columns: bool = False,
                delta_continuation: bool = False) -> List[WorkUnit]:
    """The sweep as one work-unit list (see the module docstring).

    Each spec becomes one chain per instance when ``delta_continuation``
    is set and :func:`~repro.experiments.continuation.chainable_spec`
    accepts it, else one column per instance when ``batch_columns`` is
    set and :func:`batchable_column` accepts it, else one cell per
    parameter value.  Chains come first, then columns (spec outer,
    instance inner), then cells in canonical order: the long units
    start first on a pool.
    """
    values = [float(v) for v in param_values]
    energies = [asdict(make_energy(config, v)) for v in param_values]
    n_specs = len(algorithms)
    grouped: Dict[str, List[WorkUnit]] = {"chain": [], "column": []}
    grouped_specs = set()
    for s_idx, spec in enumerate(algorithms):
        if delta_continuation and chainable_spec(config, spec, param_values,
                                                 make_kwargs):
            kind = "chain"
        elif batch_columns and batchable_column(config, spec, param_values,
                                                make_energy, make_kwargs):
            kind = "column"
        else:
            continue
        grouped_specs.add(s_idx)
        kwargs = [make_kwargs(config, v, spec) for v in param_values]
        cells = [v_idx * n_specs + s_idx for v_idx in range(len(values))]
        grouped[kind] += [
            WorkUnit(kind, s_idx, spec.name, spec.method, param_name, cells,
                     values, energies, kwargs, instance)
            for instance in range(n_instances)]
    cell_units = [
        WorkUnit("cell", index % n_specs, spec.name, spec.method, param_name,
                 [index], [values[index // n_specs]],
                 [energies[index // n_specs]],
                 [make_kwargs(config, value, spec)])
        for index, value, spec in sweep_cells(algorithms, param_values)
        if index % n_specs not in grouped_specs]
    return grouped["chain"] + grouped["column"] + cell_units


#: One per-instance measurement: (volume_gb, planning_time_s, perf dict).
Sample = Tuple[float, float, Optional[Dict[str, Any]]]


def _run_unit(unit: WorkUnit, ctx: UnitContext) -> List[List[Sample]]:
    """Plan one work unit; samples indexed ``[value][instance]``.

    The one planning entry of both execution modes: ``jobs=1`` calls it
    in-process, every pool worker calls it on the unit it was sent.  It
    opens the unit's ``runner.cell``/``runner.column``/``runner.chain``
    span, and every tour's perf snapshot is folded into the ambient
    metrics registry.
    """
    energies = [EnergyModel(**fields) for fields in unit.energies]
    common = {"param": unit.param_name, "algorithm": unit.algorithm,
              "worker": os.getpid()}
    if unit.kind == "cell":
        with span("runner.cell", cell=unit.cells[0], value=unit.values[0],
                  **common):
            return [[_instance_sample(net, unit.method, energies[0], ctx,
                                      unit.kwargs[0])
                     for net in ctx.instances]]
    assert unit.instance is not None
    net = ctx.instances[unit.instance]
    if unit.kind == "column":
        with span("runner.column", column=unit.spec, instance=unit.instance,
                  width=len(energies), **common):
            samples = _plan_column_instance(net, unit.method, energies, ctx,
                                            unit.kwargs[0])
    else:
        with span("runner.chain", chain=unit.spec, instance=unit.instance,
                  width=len(energies), **common):
            samples = _plan_chain_instance(net, unit.method, unit.values,
                                           energies, ctx, unit.kwargs)
    return [[sample] for sample in samples]


def _merge_rows(cells: Sequence[tuple],
                units: Sequence[WorkUnit],
                results: Iterable[List[List[Sample]]],
                n_instances: int,
                param_name: str,
                progress: Optional[Callable[[str], None]]) -> List[SweepRow]:
    """Bucket unit samples per cell and aggregate each cell once.

    *results* yields each unit's samples in unit order.  Samples land in
    their cell's bucket at their instance's slot, so every cell
    aggregates in instance order whatever unit produced it; a cell is
    aggregated (and reported to *progress*) once it and every cell
    before it in canonical order are complete.
    """
    buckets: List[List[Any]] = [[None] * n_instances for _ in cells]
    missing = [n_instances] * len(cells)
    rows: List[SweepRow] = []

    def flush() -> None:
        while len(rows) < len(cells) and not missing[len(rows)]:
            index, value, spec = cells[len(rows)]
            row = _aggregate_samples(param_name, value, spec, buckets[index])
            rows.append(row)
            if progress is not None:
                progress(format_progress(index, len(cells), param_name,
                                         value, row))

    for unit, samples in zip(units, results):
        slots = (range(n_instances) if unit.instance is None
                 else [unit.instance])
        for cell, by_instance in zip(unit.cells, samples):
            for slot, sample in zip(slots, by_instance):
                buckets[cell][slot] = sample
            missing[cell] -= len(by_instance)
        flush()
    flush()
    return rows


def _instance_sample(net: SensorNetwork,
                     method: str,
                     energy: EnergyModel,
                     ctx: UnitContext,
                     kwargs: Dict[str, Any]) -> Sample:
    """Plan one instance of one cell; the timer wraps only the planning."""
    call_kwargs = kwargs
    if ctx.cache is not None:
        # Outside the timer: cached sweeps report pure planning time
        # over prebuilt geometry (see the module docstring).
        call_kwargs = ctx.cache.augment_kwargs(net, energy, ctx.radio,
                                               method, kwargs)
    with Timer() as t:
        tour = plan_tour(net, energy, ctx.radio, method=method,
                         **call_kwargs)
    return _tour_sample(tour, t.elapsed, ctx)


def _tour_sample(tour: Any, time_s: float, ctx: UnitContext) -> Sample:
    """Validate one planned tour, fold its perf, and make its sample."""
    if ctx.validate:
        cross_validate(tour, ctx.radio)
    _fold_perf_ambient(tour.meta.get("perf"))
    return (tour.collected_volume / MB_PER_GB, time_s,
            tour.meta.get("perf"))


def _aggregate_samples(param_name: str, value: float, spec: AlgoSpec,
                       samples: Sequence[Sample]) -> SweepRow:
    """Aggregate one cell's per-instance samples into its sweep row.

    Called once per cell by the merge, with the samples in instance
    order whatever unit kind or process produced them, so every
    ``jobs`` value produces the identical float reductions.
    """
    volumes = [s[0] for s in samples]
    times = [s[1] for s in samples]
    perf_acc: Dict[str, List[float]] = {}
    perf_engine = None
    for _, _, perf in samples:
        if perf:
            perf_engine = perf.get("engine", perf_engine)
            for key, val in flatten_perf(perf).items():
                perf_acc.setdefault(key, []).append(val)
    perf_mean: Optional[Dict[str, Any]] = None
    if perf_acc:
        perf_mean = {k: float(np.mean(v)) for k, v in perf_acc.items()}
        perf_mean["engine"] = perf_engine
    return SweepRow(
        param_name=param_name,
        param_value=float(value),
        algorithm=spec.name,
        mean_volume_gb=float(np.mean(volumes)),
        std_volume_gb=_population_std(volumes),
        mean_time_s=float(np.mean(times)),
        std_time_s=_population_std(times),
        n_instances=len(samples),
        perf=perf_mean)


#: Planner kwargs the batch column executor understands, per method.
#: A spec using any other option falls back to the per-cell path.
_COLUMN_KWARGS: Dict[str, frozenset] = {
    "algorithm2": frozenset({"delta", "polish", "scoring", "max_iterations",
                             "tsp_mode", "site_reduction"}),
    "algorithm3": frozenset({"delta", "K", "polish", "max_iterations",
                             "site_reduction"}),
}


def batchable_column(config: ExperimentConfig,
                     spec: AlgoSpec,
                     param_values: Sequence[float],
                     make_energy: Callable[[ExperimentConfig, float],
                                           EnergyModel],
                     make_kwargs: Callable[[ExperimentConfig, float,
                                            AlgoSpec], Dict[str, Any]],
                     ) -> bool:
    """True if *spec*'s cells form one batchable column.

    Batchable means the stacked planner can replay every cell exactly:
    the method has a batch formulation (Algorithms 2/3 with the default
    insertion construction), the planner
    kwargs are identical JSON at every parameter value (so geometry and
    policy are shared), and the energy models differ only in capacity-like
    fields — :class:`~repro.core.batch.BatchPlannerKernel` requires equal
    hover/travel rates across the column.
    """
    allowed = _COLUMN_KWARGS.get(spec.method)
    if allowed is None or not len(param_values):
        return False
    try:
        kwargs0 = make_kwargs(config, param_values[0], spec)
        key0 = json.dumps(kwargs0, sort_keys=True)
        keys_equal = all(
            json.dumps(make_kwargs(config, v, spec), sort_keys=True) == key0
            for v in param_values[1:])
    except TypeError:
        return False             # non-JSON kwargs (e.g. prebuilt sites)
    if not keys_equal or not set(kwargs0) <= allowed:
        return False
    if "delta" not in kwargs0:
        return False
    if kwargs0.get("tsp_mode", "insertion") != "insertion":
        return False
    if spec.method == "algorithm3" and "K" not in kwargs0:
        return False
    energies = [make_energy(config, v) for v in param_values]
    e0 = energies[0]
    return all(e.hover_power == e0.hover_power
               and e.travel_cost_per_meter == e0.travel_cost_per_meter
               for e in energies)


def _plan_column_instance(net: SensorNetwork,
                          method: str,
                          energies: Sequence[EnergyModel],
                          ctx: UnitContext,
                          kwargs: Dict[str, Any]) -> List[Sample]:
    """Plan one instance's whole column in one batch call.

    Returns one sample per parameter value, in value order.  The timer
    wraps the single stacked planning call; each cell's time share is
    the column wall-clock divided by the column width (the work counters
    in ``perf`` stay per-variant and grouping-invariant).
    """
    call_kwargs = dict(kwargs)
    if ctx.cache is not None:
        # Outside the timer, like the per-cell path.  The largest
        # capacity is the column's reachability bound for capacity-
        # dependent site reductions (matching _reduce_column_sites in
        # repro.core.batch); plain geometry keys ignore the capacity, so
        # the choice is free for unreduced columns.
        cap_energy = max(energies, key=lambda e: e.capacity)
        call_kwargs = ctx.cache.augment_kwargs(net, cap_energy, ctx.radio,
                                               method, call_kwargs)
    delta = call_kwargs.pop("delta")
    call_kwargs.pop("tsp_mode", None)
    if method == "algorithm3":
        K = call_kwargs.pop("K")
        with Timer() as t:
            tours = plan_algorithm3_batch(net, list(energies), ctx.radio,
                                          delta, K, **call_kwargs)
    else:
        with Timer() as t:
            tours = plan_algorithm2_batch(net, list(energies), ctx.radio,
                                          delta, **call_kwargs)
    share = t.elapsed / len(tours)
    return [_tour_sample(tour, share, ctx) for tour in tours]


def _plan_chain_instance(net: SensorNetwork,
                         method: str,
                         param_values: Sequence[float],
                         energies: Sequence[EnergyModel],
                         ctx: UnitContext,
                         kwargs_by_value: Sequence[Dict[str, Any]]
                         ) -> List[Sample]:
    """Plan one instance's δ column coarse→fine with warm continuation.

    Cells run in descending δ order; each finer cell's kwargs gain the
    coarser cell's ``corridor_seed`` (consumed by the artifact cache's
    reduction pre-pass) and ``warm_nodes`` (the projected warm-start
    hint for Algorithm 1).  Returns one sample per parameter value, in
    *value* order; the timer wraps each cell's planning call exactly
    like the per-cell path, so ``mean_time_s`` keeps its semantics.
    The whole chain runs in one process, so its warm payloads never
    cross a process boundary.
    """
    cache = ctx.cache
    assert cache is not None   # run_sweep refuses continuation without it
    samples: List[Optional[Sample]] = [None] * len(param_values)
    seed_points: Optional[List[List[float]]] = None
    for i in continuation_order(param_values):
        kwargs = dict(kwargs_by_value[i])
        if seed_points:
            kwargs["corridor_seed"] = seed_points
        call_kwargs = cache.augment_kwargs(net, energies[i], ctx.radio,
                                           method, kwargs)
        if seed_points:
            warm = project_warm_nodes(seed_points, call_kwargs["sites"])
            if warm is not None:
                call_kwargs["warm_nodes"] = warm
        with Timer() as t:
            tour = plan_tour(net, energies[i], ctx.radio, method=method,
                             **call_kwargs)
        samples[i] = _tour_sample(tour, t.elapsed, ctx)
        seed_points = tour_seed_points(tour) or seed_points
    return [s for s in samples if s is not None]


def _population_std(values: Sequence[float]) -> float:
    """Population standard deviation (``np.std`` with ``ddof=0``).

    The paper averages each data point over its instance set and reports
    dispersion over that *full population* of instances, so ``ddof=0``
    (divide by n) is the right estimator — not the sample ``ddof=1``.
    A single-instance cell has no dispersion by definition: return an
    exact ``0.0`` instead of trusting the float arithmetic to cancel.
    """
    if len(values) == 1:
        return 0.0
    return float(np.std(np.asarray(values, dtype=float), ddof=0))


__all__ = ["AlgoSpec", "SweepRow", "SweepResult", "WorkUnit", "UnitContext",
           "run_sweep", "batchable_column", "sweep_cells", "format_progress",
           "MB_PER_GB"]
