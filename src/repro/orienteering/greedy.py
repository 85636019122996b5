"""Deterministic greedy orienteering construction.

Repeatedly inserts the node with the best award-per-marginal-cost ratio at
its cheapest tour position, subject to the budget and conflict groups.
This is both a fast standalone solver and the construction GRASP's
deterministic restart 0 replays (:mod:`repro.orienteering.fast`).  The
per-step work is fully vectorised (:mod:`repro.orienteering._vector`).
"""

from __future__ import annotations

import numpy as np

from repro.orienteering._vector import greedy_fill
from repro.orienteering.problem import OrienteeringInstance, OrienteeringSolution, make_solution


def solve_greedy(instance: OrienteeringInstance) -> OrienteeringSolution:
    """Pure deterministic greedy best-ratio insertion."""
    start = np.array([instance.depot], dtype=int)
    tour = greedy_fill(instance, start)
    return make_solution(instance, tour, "greedy")


__all__ = ["solve_greedy"]
