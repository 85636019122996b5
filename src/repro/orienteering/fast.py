"""Stacked GRASP: all restarts as one numpy program.

GRASP runs ``n_restarts`` independent constructions that would each
recompute the same insertion-delta geometry step by step.  This module
runs them *stacked*: one ``(R, k, n)`` candidate tensor per step serves
every still-active restart, so the per-step numpy dispatch overhead is
paid once instead of ``R`` times and the cost-matrix rows stream through
the CPU cache once.

Each restart's choices are exactly those of growing it alone, step by
step, because

* every restart reads its own row of the pre-drawn RNG tape
  (:func:`~repro.orienteering._vector.draw_rng_tape`) through the sorted-
  RCL pick (:func:`~repro.orienteering._vector.rcl_pick`), and restart 0
  is the deterministic greedy of
  :func:`~repro.orienteering._vector.greedy_fill`;
* every float expression (insertion deltas, feasibility, ratios) is the
  same elementwise numpy program evaluated on the same values — the
  stacked tensor's row ``r`` slice is the one-restart array;
* all active restarts insert exactly one node per step, so they share a
  tour length and the stack never ragged-pads.

Construction dedup, local search, and best-selection follow in
:func:`~repro.orienteering.grasp.polish_constructions`.
``tests/test_orienteering_fast.py`` pins the restart-by-restart
equivalence against a one-restart-at-a-time oracle, property-style.
"""
# repro: hot-path

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.orienteering._vector import (conflict_neighbors, draw_rng_tape,
                                        insertion_ratio, rcl_pick)
from repro.orienteering.grasp import (polish_constructions,
                                      resolve_tape_nodes)
from repro.orienteering.problem import OrienteeringInstance, OrienteeringSolution
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_integer


def stacked_constructions(instance: OrienteeringInstance, n_restarts: int,
                          rcl_size: int,
                          tape: np.ndarray) -> List[np.ndarray]:
    """All GRASP constructions at once; row 0 is the deterministic greedy.

    Returns the restart tours in restart order; row ``r`` of *tape*
    drives restart ``r + 1``.
    """
    n = instance.n_nodes
    costs = instance.costs
    budget = instance.budget
    awards = instance.awards
    neigh = conflict_neighbors(instance)
    depot = instance.depot

    R = n_restarts
    # Once-per-solve state, not per-step: the (R, n) buffers are the
    # whole point of stacking.
    # repro: allow[hot-path-purity] -- once-per-solve restart-stack state
    tours = np.zeros((R, n), dtype=np.int64)
    tours[:, 0] = depot
    lens = np.ones(R, dtype=np.int64)
    cost = np.full(R, float(instance.tour_cost(np.array([depot]))))
    active = np.ones(R, dtype=bool)

    base_unavailable = np.zeros(n, dtype=bool)
    base_unavailable[depot] = True
    base_unavailable[awards <= 0] = True
    if neigh is not None and len(neigh[depot]):
        base_unavailable[neigh[depot]] = True
    # repro: allow[hot-path-purity] -- once-per-solve restart-stack state
    unavailable = np.tile(base_unavailable, (R, 1))

    k = 1
    while active.any():
        rows = np.flatnonzero(active)
        a = len(rows)
        tact = tours[rows, :k]
        if k == 1:
            deltas = np.broadcast_to(2.0 * costs[depot], (a, n))
            # First step only (k == 1 happens once); every insertion
            # lands at position 1 of a depot-only tour.
            # repro: allow[hot-path-purity] -- once per solve, not per step
            positions = np.ones((a, n), dtype=np.int64)
        else:
            # Successor view of the (a, k) active tours; k is the shared
            # tour length, not the candidate count — no (m, n) blowup.
            # repro: allow[hot-path-purity] -- (a, k) roll, once per step
            nxt = np.concatenate([tact[:, 1:], tact[:, :1]], axis=1)
            edge = costs[tact, nxt]                              # (a, k)
            # cand[r, i, v]: insert v after position i of restart r's tour,
            # gathered over contiguous rows of the symmetric ``costs``;
            # slice [r] is all_insertion_deltas' (k, n) matrix.
            cand = costs[tact]
            cand += costs[nxt]
            cand -= edge[:, :, None]
            best = np.argmin(cand, axis=1)                       # (a, n)
            deltas = np.take_along_axis(
                cand, best[:, None, :], axis=1)[:, 0, :]         # (a, n)
            positions = (best + 1) % k
            positions[positions == 0] = k
        feasible = ~unavailable[rows] & (cost[rows, None] + deltas
                                         <= budget + 1e-9)       # (a, n)
        ratio = insertion_ratio(deltas, awards, feasible)
        inserted = False
        for j in range(a):
            r = int(rows[j])
            if not feasible[j].any():
                active[r] = False
                continue
            if r == 0:
                v = int(np.argmax(ratio[j]))
            else:
                v = rcl_pick(ratio[j], int(feasible[j].sum()),
                             float(tape[r - 1, k - 1]), rcl_size)
            p = int(positions[j, v])
            p = p if p != 0 else k
            row = tours[r]
            row[p + 1:k + 1] = row[p:k].copy()
            row[p] = v
            cost[r] += float(deltas[j, v])
            lens[r] = k + 1
            unavailable[r, v] = True
            if neigh is not None and len(neigh[v]):
                unavailable[r, neigh[v]] = True
            if unavailable[r].all():
                active[r] = False
            inserted = True
        if inserted:
            k += 1
    return [tours[r, :int(lens[r])].copy() for r in range(R)]


def solve_grasp_fast(instance: OrienteeringInstance, *,
                     n_restarts: int = 8, rcl_size: int = 3,
                     seed: SeedLike = None, local_search: bool = True,
                     tape_nodes: Optional[int] = None,
                     warm_tour: Optional[np.ndarray] = None
                     ) -> OrienteeringSolution:
    """Solve via GRASP, all restarts stacked.

    Parameters
    ----------
    instance:
        The orienteering instance.
    n_restarts:
        Total construction attempts (>= 1).  Restart 0 is deterministic
        greedy; restarts 1.. are randomised.
    rcl_size:
        Restricted-candidate-list size for the randomised constructions.
    seed:
        RNG seed for reproducibility.
    local_search:
        Apply the add/drop/replace/2-opt polish after each construction.
    tape_nodes:
        Node count the RNG tape is sized for (default: the instance's
        own).  Pass the *original* pre-reduction count so restarts on a
        reduced instance replay the exact same tape as unreduced runs.
    warm_tour:
        Optional extra starting tour (e.g. a coarser δ-grid's projected
        solution) polished *after* the restarts; it replaces the restart
        winner only on strict improvement, so a non-improving warm start
        leaves the result bitwise unchanged.
    """
    n_restarts = check_integer(n_restarts, "n_restarts", minimum=1)
    check_integer(rcl_size, "rcl_size", minimum=1)
    tape = draw_rng_tape(as_rng(seed), n_restarts,
                         resolve_tape_nodes(instance, tape_nodes))
    tours = stacked_constructions(instance, n_restarts, rcl_size, tape)
    return polish_constructions(instance, tours,
                                local_search=local_search,
                                warm_tour=warm_tour)


__all__ = ["solve_grasp_fast", "stacked_constructions"]
