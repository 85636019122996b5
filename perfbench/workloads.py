"""One benchmark workload in one process: set up, measure, check.

``perfbench/run.py`` starts this script once per workload, so the
process's peak RSS belongs to that workload alone.  It prints one JSON
object as the last line of its standard output.

Modes
-----
``timed``
    Tracing off.  One whole pass over the workload's fixed request list,
    then the same requests again in order while the next one, at its
    last latency, still ends within ``--seconds``.  A reference kernel
    (:mod:`hostspeed`) is timed after every request and every set-up,
    and each is reported at its nominal speed, scaled by the probes on
    either side of it.  ``setup_s`` is the median of ``SETUP_REPS``
    set-ups (a fresh interpreter's imports, instance generation, one
    warm-up request).  Reports the end-to-end metrics from each
    request's median latency:

    * ``wall_s`` — one pass, every request at its median;
    * ``request_s_p50`` — the median request;
    * ``request_s_max`` — the slowest kind of request, at its median.
``traced``
    One untraced pass at jobs=1, one more with a pool of up to two
    workers when the workload is a parallel sweep, then one pass with every
    layer wrapped by :mod:`layers` (in-process, jobs=1).  Reports the
    per-layer metrics and writes the spans under ``.perfbench_out/``.

Every request is checked: batch-column tours go through strict
``cross_validate``, the Fig. 4 sweep runs with ``validate=True``,
and a repeated request must reproduce its first outputs exactly.  An
exception (``MemoryError`` included) or a rejected tour counts as a
failed request instead of ending the run.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Thread pools pinned to one thread each, before numpy is imported, so
#: process count alone sets the parallelism (and pool workers inherit it).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Program switches that would trace, record or slow the timed runs.
UNSET_VARS = ("REPRO_TRACE", "REPRO_TRACE_FILE", "REPRO_LEDGER",
              "REPRO_LEDGER_MEM", "REPRO_BENCH_INJECT_SLEEP_S")

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 5
#: The program's modules the workloads call into.
PROGRAM_MODULES = ("repro.core.batch", "repro.experiments.config",
                   "repro.experiments.fig4", "repro.experiments.instances",
                   "repro.sim.validate")
#: A traced run skips its parallel pass when that pass and the traced
#: one, at the untraced pass's pace, would end later than this after
#: start (``run.py`` stops a workload at 175 s).
TRACE_BUDGET_S = 150.0
MB_PER_GB = 1000.0

#: (kind, label, call): the call returns (collected GB, fingerprint of
#: its outputs).  Requests of one kind do the same work on different
#: instances; the label names one request.
Request = Tuple[str, str, Callable[[], Tuple[float, Any]]]


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in UNSET_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import the program's modules."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import " + ", ".join(PROGRAM_MODULES)],
                   env=env, check=True)
    return time.perf_counter() - t0


def accepts(func: Callable, name: str) -> bool:
    """True while *func*'s public signature still takes keyword *name*."""
    return name in inspect.signature(func).parameters


class Workload:
    """Inputs and request list of one workload.

    Modules are looked up on every call (``self.m.batch.plan_...``) so the
    traced run's wrappers are the functions that run.
    """

    name = ""
    n_instances = 1
    #: Span wrapping each traced request.
    root_span = "bench.request"
    #: The traced run adds a pass with a worker pool when True.
    parallel = False

    def __init__(self, seed: int, modules: Any) -> None:
        self.m = modules
        self.config = modules.config.paper_settings().scaled(seed=seed)
        self.radio = self.config.radio_model()
        #: Sweep cells and artifact-cache lookups, summed over requests.
        self.sweep_stats: Dict[str, int] = {"cells": 0, "hits": 0,
                                            "misses": 0}

    def instances(self, config: Any, count: int = 0) -> list:
        return self.m.instances.make_instances(config,
                                               count or self.n_instances)

    def warm_config(self) -> Any:
        """A small network that runs the same code as a request."""
        return self.config.scaled(n_nodes=60, region_side=300.0,
                                  capacity_sweep=(5e4, 1e5))

    def requests(self, config: Any, nets: list, jobs: int) -> List[Request]:
        raise NotImplementedError

    def check_tours(self, tours: list) -> Tuple[float, Any]:
        volumes = []
        for tour in tours:
            self.m.validate.cross_validate(tour, self.radio, strict=True)
            volumes.append(float(tour.collected_volume))
        return sum(volumes) / MB_PER_GB, tuple(volumes)


class OverlapPaper(Workload):
    """Batch Algorithm 2 / 3 columns on 20 networks at the paper's density.

    A column's cost depends on its network: Alg. 3 K=4 took from 2.0 to
    5.4 s on three random 500-node networks, and from 1.0 to 4.1 s on
    16 random 250-node networks.  200 nodes on 40% of the paper's area
    keep its density, site grid and coverage overlap, and 20 of them fit
    a run, so a run's figures do not hang on a few draws.
    Each request is one batch-column call.
    """

    name = "overlap-paper"
    n_instances = 20

    def __init__(self, seed, modules):
        super().__init__(seed, modules)
        self.config = self.config.scaled(
            n_nodes=200, region_side=1000.0 * math.sqrt(200 / 500))

    def requests(self, config, nets, jobs):
        m = self.m
        energies = [config.energy_model(c) for c in config.capacity_sweep]

        def column(net, k):
            def run():
                if k is None:
                    tours = m.batch.plan_algorithm2_batch(
                        net, energies, self.radio, config.delta)
                else:
                    tours = m.batch.plan_algorithm3_batch(
                        net, energies, self.radio, config.delta, K=k)
                if len(tours) != len(energies):
                    raise RuntimeError(f"{len(tours)} tours for "
                                       f"{len(energies)} capacities")
                return self.check_tours(tours)
            return run

        kinds = {None: "alg2", 2: "alg3-K2", 4: "alg3-K4"}
        return [(kinds[k], f"{kinds[k]}@inst{i}", column(net, k))
                for i, net in enumerate(nets) for k in kinds]


class Fig4Sweep(Workload):
    """The Fig. 4 sweep on 20 networks at the paper's density.

    Its time is mostly Christofides on every network, whose cost differs
    by up to 1.7x between random 500-node networks; one paper-size
    network per run would measure that draw, and enough of them do not
    fit in a run.  140 nodes on 28% of the paper's area keep its sensor
    density, site grid and coverage overlap, and Christofides still takes
    the largest share of the time (42% of a traced pass's self time at
    seed 20200518, the Alg. 2/3 kernel 37%; the kernel overtakes it at
    125 nodes).  Each request is the whole sweep on one network at
    jobs=1, so the host-speed probes fall between requests a couple of
    seconds apart and one process does all the work; the traced run adds
    a pass with a two-worker pool.
    """

    name = "fig4-sweep"
    n_instances = 20
    root_span = "experiments.sweep"
    parallel = True

    def __init__(self, seed, modules):
        super().__init__(seed, modules)
        self.config = self.config.scaled(
            n_nodes=140, region_side=1000.0 * math.sqrt(140 / 500),
            delta_sweep=(15.0, 20.0, 25.0, 30.0))

    def warm_config(self):
        return super().warm_config().scaled(delta_sweep=(15.0, 30.0))

    def requests(self, config, nets, jobs):
        m = self.m
        options: Dict[str, Any] = {"algorithm1": True, "validate": True,
                                   "site_reduction": "safe", "jobs": jobs}
        if accepts(m.fig4.run_fig4, "engine"):
            options["engine"] = "fast"

        def figure(net):
            def run():
                result = m.fig4.run_fig4(config, [net], **options)
                cache = result.meta.get("cache") or {}
                self.sweep_stats["cells"] += len(result.rows)
                self.sweep_stats["hits"] += cache.get("hits", 0)
                self.sweep_stats["misses"] += cache.get("misses", 0)
                return self.check_rows(config, [net], result.rows)
            return run

        return [("figure", f"figure@inst{i}", figure(net))
                for i, net in enumerate(nets)]

    def check_rows(self, config, nets, rows):
        algorithms = sorted({row.algorithm for row in rows})
        # Algorithm 1, Algorithm 2, Algorithm 3 per K, and the benchmark.
        expected = 3 + len(config.k_values)
        cells = sorted((row.algorithm, row.param_value) for row in rows)
        if (len(algorithms) != expected or cells != sorted(
                (a, d) for a in algorithms for d in config.delta_sweep)):
            raise RuntimeError(f"unexpected sweep cells: {cells}")
        total = 0.0
        for row in rows:
            if (row.n_instances != len(nets)
                    or not math.isfinite(row.mean_volume_gb)
                    or row.mean_volume_gb <= 0):
                raise RuntimeError(f"bad sweep row: {row.as_dict()}")
            total += row.mean_volume_gb * row.n_instances
        fingerprint = tuple(json.dumps(row.deterministic_dict(),
                                       sort_keys=True) for row in rows)
        return total, fingerprint


WORKLOADS = {w.name: w for w in (OverlapPaper, Fig4Sweep)}


class Runner:
    """Times requests, checks them and counts failures.

    A request's latency runs from its call to its checked output.  The
    run's figures are built from each request's median latency, so one
    slow sample moves them less than in a single pass.
    """

    def __init__(self, workload: Workload, config: Any, nets: list,
                 host: Any = None) -> None:
        self.workload = workload
        self.config = config
        self.nets = nets
        #: A :class:`hostspeed.HostSpeed`: latencies are then reported at
        #: its nominal speed; without one they are measured seconds.
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.latencies: Dict[str, List[float]] = {}
        #: The same samples as measured, before any host-speed scaling.
        self.measured: Dict[str, List[float]] = {}
        self.collected_gb: Dict[str, float] = {}
        self.kinds: Dict[str, str] = {}
        self._fingerprints: Dict[str, Any] = {}

    def run(self, kind: str, label: str, request: Callable,
            tracer: Any = None) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                gb, fingerprint = request()
            else:
                with tracer.span(self.workload.root_span, request=label):
                    gb, fingerprint = request()
        except Exception:   # counted, reported, and the run goes on
            self.failed += 1
            print(f"[{self.workload.name}] request {label} failed:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return
        finally:
            elapsed = time.perf_counter() - t0
            self.measured.setdefault(label, []).append(elapsed)
            self.latencies.setdefault(label, []).append(
                self.host.nominal(elapsed) if self.host else elapsed)
        expected = self._fingerprints.setdefault(label, fingerprint)
        if fingerprint != expected:
            self.failed += 1
            print(f"[{self.workload.name}] request {label} differs from its "
                  f"first run", file=sys.stderr)
        self.collected_gb.setdefault(label, gb)
        self.kinds[label] = kind

    def run_pass(self, jobs: int, tracer: Any = None) -> float:
        """Every request once, in order; returns the pass's wall time."""
        start = time.perf_counter()
        for kind, label, request in self.workload.requests(
                self.config, self.nets, jobs):
            self.run(kind, label, request, tracer)
        return time.perf_counter() - start

    def run_for(self, seconds: float) -> None:
        """One whole pass at jobs=1, then requests in the same order while
        the next one, at its last latency, still ends within *seconds*."""
        start = time.perf_counter()
        self.run_pass(jobs=1)
        requests = self.workload.requests(self.config, self.nets, jobs=1)
        for kind, label, request in itertools.cycle(requests):
            if time.perf_counter() - start + self.latencies[label][-1] \
                    > seconds:
                break
            self.run(kind, label, request)

    def medians(self) -> Dict[str, float]:
        """Each request's median latency, at the nominal host speed when
        the runner has a host reference."""
        return {label: statistics.median(samples)
                for label, samples in self.latencies.items()}

    def slowest_kind(self) -> float:
        """The slowest kind of request, at its median over requests.

        A single slowest sample would mostly measure the host's noise
        and the one slowest instance, not the program.
        """
        by_kind: Dict[str, List[float]] = {}
        for label, median in self.medians().items():
            by_kind.setdefault(self.kinds.get(label, label), []).append(median)
        return max(statistics.median(v) for v in by_kind.values())


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"),
                        default="timed")
    args = parser.parse_args(argv)

    pin_environment()
    started = time.perf_counter()
    modules = SimpleNamespace(**{
        name.rsplit(".", 1)[1]: importlib.import_module(name)
        for name in PROGRAM_MODULES})

    workload = WORKLOADS[args.workload](args.seed, modules)

    host = None
    if args.mode == "timed":
        from hostspeed import HostSpeed
        host = HostSpeed()

    import_reps, setup_reps, setup_nominal = [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        import_reps.append(time_imports())
        nets = workload.instances(workload.config)
        warm_config = workload.warm_config()
        warm = Runner(workload, warm_config,
                      workload.instances(warm_config, count=1))
        warm.run_pass(jobs=1)
        if warm.failed:
            print(f"[{workload.name}] warm-up request failed", file=sys.stderr)
            return 1
        setup_reps.append(time.perf_counter() - t0)
        setup_nominal.append(host.nominal(setup_reps[-1]) if host
                             else setup_reps[-1])

    if host:
        runner = Runner(workload, workload.config, nets, host)
        runner.run_for(args.seconds)
        medians = runner.medians()
        metrics = {
            "setup_s": (statistics.median(setup_nominal), "s"),
            # One pass over every request, each at its median latency.
            "wall_s": (sum(medians.values()), "s"),
            "request_s_p50": (statistics.median(medians.values()), "s"),
            "request_s_max": (runner.slowest_kind(), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "collected_gb": (sum(runner.collected_gb.values()), "GB"),
            "valid_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
        }
        info: Dict[str, Any] = {
            "samples": sum(len(v) for v in runner.latencies.values()),
            "requests": len(medians),
            "measured_wall_s": sum(statistics.median(v)
                                   for v in runner.measured.values()),
            "measured_setup_s": statistics.median(setup_reps),
            "reference_s_p50": statistics.median(host.probes),
            "reference_probes": len(host.probes),
            "import_s": import_reps, "setup_reps_s": setup_reps}
    else:
        runner = Runner(workload, workload.config, nets)
        nproc = len(os.sched_getaffinity(0))
        jobs = min(2, nproc) if workload.parallel else 1
        metrics, info = traced_run(workload, runner, jobs, args.seed,
                                   started + TRACE_BUDGET_S)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": info,
    }))
    return 0


def traced_run(workload: Workload, runner: Runner, jobs: int, seed: int,
               budget_end: float) -> Tuple[Dict[str, Tuple[float, str]],
                                           Dict[str, Any]]:
    """Untraced reference pass(es), then one traced pass at jobs=1."""
    from layers import LayerTrace

    untraced_s = runner.run_pass(jobs=1)
    parallel_s = None
    # A jobs=2 pass takes over half the jobs=1 time; the traced one more.
    if jobs > 1 and time.perf_counter() + 1.7 * untraced_s < budget_end:
        parallel_s = runner.run_pass(jobs)

    workload.sweep_stats = dict.fromkeys(workload.sweep_stats, 0)
    trace = LayerTrace().install()
    try:
        traced_s = runner.run_pass(jobs=1, tracer=trace)
    finally:
        trace.close()
    files = trace.export(OUT_DIR / f"trace-{workload.name}-seed{seed}")

    layer = trace.metrics()
    table = trace.self_times()
    stats = workload.sweep_stats
    lookups = stats["hits"] + stats["misses"]
    layer.update({
        "sweep.cells": stats["cells"],
        "sweep.overhead_s": table.get("experiments.sweep", (0, 0.0))[1],
        "sweep.parallel_efficiency": (untraced_s / (jobs * parallel_s)
                                      if parallel_s else 0.0),
        "artifacts.hit_ratio": stats["hits"] / lookups if lookups
        else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    units = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "_efficiency": "ratio",
             "bytes_computed": "bytes"}
    metrics = {name: (float(value),
                      next((u for suffix, u in units.items()
                            if name.endswith(suffix)), "count"))
               for name, value in layer.items()}
    info = {"untraced_s": untraced_s, "traced_s": traced_s,
            "parallel_s": parallel_s, "jobs": jobs,
            "layers": {name: [calls, self_s]
                       for name, (calls, self_s) in table.items()},
            "trace_files": [str(p.relative_to(ROOT)) for p in files]}
    return metrics, info


if __name__ == "__main__":
    sys.exit(main())
