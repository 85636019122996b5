"""Reference formulations the planners are checked against.

Each production planner has one code path.  The textbook formulations
they replaced live here, as test oracles only:

* :class:`DensePlannerKernel` — Algorithms 2/3 state recomputed from
  scratch every greedy round (``cov @ rem``, a masked ``(m, n)`` row-max
  and a full cheapest-insertion scan), instead of the dirty-set and
  delta-cache repairs of :class:`repro.core.kernel.PlannerKernel`;
* :class:`DensePruneCache` — the Christofides-prune baseline rescanning
  every tour node per removal;
* :func:`solve_grasp_scalar` — GRASP grown one restart at a time, one
  insertion at a time, instead of the stacked constructions of
  :mod:`repro.orienteering.fast`;
* :func:`insertion_deltas_full` — the O(m·|tour|) cheapest-insertion
  scan the kernel's delta cache must always agree with.

The ``plan_*_dense``/``plan_algorithm1_scalar`` wrappers run the
production policy code (which candidate to take, under which rule) on
top of these state engines, so a bitwise match pins exactly the
incremental bookkeeping.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple
from unittest import mock

import numpy as np

from repro.core import algorithm1, algorithm2, algorithm3, benchmark_alg
from repro.core.batch import plan_algorithm2_batch, plan_algorithm3_batch
from repro.core.kernel import PlannerKernel, PruneCache
from repro.geometry.distance import cross_distances
from repro.orienteering import solver
from repro.orienteering._vector import (all_insertion_deltas,
                                        conflict_neighbors, draw_rng_tape,
                                        insertion_ratio, rcl_pick)
from repro.orienteering.fast import solve_grasp_fast
from repro.orienteering.grasp import (polish_constructions,
                                      resolve_tape_nodes)
from repro.orienteering.problem import (OrienteeringInstance,
                                        OrienteeringSolution)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_integer


def insertion_deltas_full(site_points: np.ndarray,
                          tour_points: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Cheapest-insertion delta of every site into the closed tour.

    Returns ``(deltas, positions)`` where ``positions[j]`` is the tour
    index *before which* site ``j`` would be inserted.
    """
    k = len(tour_points)
    if k == 1:
        d = 2.0 * cross_distances(site_points, tour_points)[:, 0]
        return d, np.ones(len(site_points), dtype=int)
    d_site_tour = cross_distances(site_points, tour_points)      # (m, k)
    nxt = np.roll(np.arange(k), -1)
    edge_len = np.linalg.norm(tour_points[nxt] - tour_points, axis=1)
    cand = d_site_tour + d_site_tour[:, nxt] - edge_len[None, :]
    best = np.argmin(cand, axis=1)
    deltas = cand[np.arange(len(site_points)), best]
    positions = (best + 1) % k
    positions[positions == 0] = k
    return deltas, positions


class DensePlannerKernel(PlannerKernel):
    """Full recompute of every score, every round."""

    engine = "dense"

    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        self._p_res = self.sites.residual_awards(self.rem)
        self._t_res = self.sites.residual_hover_times(self.rem)
        self.metrics.counter("sites_rescored").inc(self.m)
        return self._p_res, self._t_res

    def partial_scores(self, fractions: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        fractions = np.asarray(fractions, dtype=float)
        R = np.where(self.sites.cov_matrix, self.rem[None, :], 0.0)
        t_max = (R.max(axis=1) if self.n else np.zeros(self.m)) \
            / self.bandwidth
        tau = t_max[:, None] * fractions[None, :]
        p_partial = np.empty((self.m, len(fractions)))
        for k in range(len(fractions)):
            p_partial[:, k] = np.minimum(
                R, (self.bandwidth * tau[:, k])[:, None]).sum(axis=1)
        self._t_res = t_max
        self.metrics.counter("sites_rescored").inc(self.m)
        return t_max, tau, p_partial

    def insertion_state(self) -> Tuple[np.ndarray, np.ndarray]:
        self._flush_insertion()
        return self._ins_deltas.copy(), (self._ins_edges + 1).astype(int)

    def insert(self, site: int) -> int:
        if self._ins_stale:
            self._flush_insertion()
        pos = 1 if len(self.tour) == 1 else int(self._ins_edges[site]) + 1
        self.tour.insert(pos, site + 1)
        self.in_tour[site + 1] = True
        self._ins_stale = True
        self.metrics.counter("insertions").inc()
        return pos


class DensePruneCache(PruneCache):
    """Rescans every tour node's removal ratio per removal."""

    def set_tour(self, tour) -> None:
        self.tour = [int(v) for v in tour]

    def best(self) -> int:
        tour, dist = self.tour, self.dist
        k = len(tour)
        best_i, best_ratio = -1, np.inf
        for i in range(k):
            v = tour[i]
            if v == 0:
                continue
            prev_node = tour[i - 1]
            next_node = tour[(i + 1) % k]
            saved_travel = (dist[prev_node, v] + dist[v, next_node]
                            - dist[prev_node, next_node])
            saved = (self.hover_times[v - 1] * self.eta_h
                     + saved_travel * self.etat_m)
            self.rescored += 1
            ratio = self.volumes[v - 1] / saved if saved > 1e-12 else np.inf
            if ratio < best_ratio:
                best_ratio, best_i = ratio, i
        return best_i

    def remove(self, i: int) -> int:
        return self.tour.pop(i)


@contextmanager
def dense_state() -> Iterator[None]:
    """Run Algorithms 2/3 and the baseline on the dense oracles."""
    with mock.patch.object(algorithm2, "PlannerKernel", DensePlannerKernel), \
            mock.patch.object(algorithm3, "PlannerKernel",
                              DensePlannerKernel), \
            mock.patch.object(benchmark_alg, "PruneCache", DensePruneCache):
        yield


def plan_algorithm2_dense(*args, **kwargs):
    with dense_state():
        return algorithm2.plan_algorithm2(*args, **kwargs)


def plan_algorithm3_dense(*args, **kwargs):
    with dense_state():
        return algorithm3.plan_algorithm3(*args, **kwargs)


def plan_benchmark_dense(*args, **kwargs):
    with dense_state():
        return benchmark_alg.plan_benchmark(*args, **kwargs)


def plan_algorithm2_column(network, energy, radio, delta, **kwargs):
    """Algorithm 2 as a width-1 batch column."""
    return plan_algorithm2_batch(network, [energy], radio, delta,
                                 **kwargs)[0]


def plan_algorithm3_column(network, energy, radio, delta, K, **kwargs):
    """Algorithm 3 as a width-1 batch column."""
    return plan_algorithm3_batch(network, [energy], radio, delta, K,
                                 **kwargs)[0]


#: Algorithm 2/3 state engines, keyed by the ``meta["engine"]`` label
#: their tours carry: the production kernel, the dense oracle, and a
#: width-1 batch column.  All must agree bitwise.
ALG2_PATHS = {"kernel": algorithm2.plan_algorithm2,
              "dense": plan_algorithm2_dense,
              "batch": plan_algorithm2_column}
ALG3_PATHS = {"kernel": algorithm3.plan_algorithm3,
              "dense": plan_algorithm3_dense,
              "batch": plan_algorithm3_column}
PATHS = tuple(ALG2_PATHS)


def scalar_construct(instance: OrienteeringInstance,
                     tape: Optional[np.ndarray] = None,
                     rcl_size: int = 1) -> np.ndarray:
    """Grow one GRASP construction alone, one insertion per step.

    Without a *tape* (or with ``rcl_size == 1``) this is the
    deterministic greedy; otherwise each insertion consumes one tape
    entry through the sorted-RCL pick.
    """
    n = instance.n_nodes
    awards = instance.awards
    neigh = conflict_neighbors(instance)
    randomized = tape is not None and rcl_size > 1
    cur = np.array([instance.depot], dtype=int)
    cost = instance.tour_cost(cur)
    unavailable = np.zeros(n, dtype=bool)
    unavailable[cur] = True
    unavailable[awards <= 0] = True
    if neigh is not None and len(neigh[instance.depot]):
        unavailable[neigh[instance.depot]] = True
    drawn = 0
    while not unavailable.all():
        deltas, positions = all_insertion_deltas(cur, instance.costs)
        feasible = ~unavailable & (cost + deltas <= instance.budget + 1e-9)
        if not feasible.any():
            break
        ratio = insertion_ratio(deltas, awards, feasible)
        if randomized:
            assert tape is not None
            v = rcl_pick(ratio, int(feasible.sum()), float(tape[drawn]),
                         rcl_size)
            drawn += 1
        else:
            v = int(np.argmax(ratio))
        pos = int(positions[v])
        cur = np.insert(cur, pos if pos != 0 else len(cur), v)
        cost += float(deltas[v])
        unavailable[v] = True
        if neigh is not None and len(neigh[v]):
            unavailable[neigh[v]] = True
    return cur


def solve_grasp_scalar(instance: OrienteeringInstance, *,
                       n_restarts: int = 8, rcl_size: int = 3,
                       seed: SeedLike = None, local_search: bool = True,
                       tape_nodes: Optional[int] = None,
                       warm_tour: Optional[np.ndarray] = None
                       ) -> OrienteeringSolution:
    """GRASP restart by restart (the stacked solver's oracle)."""
    n_restarts = check_integer(n_restarts, "n_restarts", minimum=1)
    tape = draw_rng_tape(as_rng(seed), n_restarts,
                         resolve_tape_nodes(instance, tape_nodes))
    constructions = [scalar_construct(instance)] + [
        scalar_construct(instance, tape[r - 1], rcl_size)
        for r in range(1, n_restarts)]
    return polish_constructions(instance, constructions,
                                local_search=local_search,
                                warm_tour=warm_tour)


def _validated_instance(costs, awards, budget, *, depot=0,
                        conflict_neighbor_lists=None) -> OrienteeringInstance:
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=depot,
                                conflict_neighbor_lists=conflict_neighbor_lists)


@contextmanager
def scalar_grasp() -> Iterator[None]:
    """Run Algorithm 1 over validated instances with scalar GRASP."""
    with mock.patch.object(algorithm1, "trusted_instance",
                           _validated_instance), \
            mock.patch.object(solver, "solve_grasp_fast", solve_grasp_scalar):
        yield


def plan_algorithm1_scalar(*args, **kwargs):
    with scalar_grasp():
        return algorithm1.plan_algorithm1(*args, **kwargs)


#: GRASP and Algorithm 1, keyed by the restart strategy: the stacked
#: production solver and the one-restart-at-a-time oracle.
GRASP_PATHS = {"fast": solve_grasp_fast, "scalar": solve_grasp_scalar}
ALG1_PATHS = {"fast": algorithm1.plan_algorithm1,
              "scalar": plan_algorithm1_scalar}
