"""Orienteering instance and solution dataclasses.

An instance is a complete undirected graph given by a symmetric cost
matrix, per-node awards, a depot index, and a budget.  A feasible solution
is a closed tour (sequence of distinct node indices beginning at the depot)
whose total edge cost is at most the budget; its value is the sum of the
awards of the visited nodes.

Optional *conflict groups* mark sets of nodes of which at most one may be
visited — used by Algorithm 1 to enforce non-overlapping hovering coverage
and by the partial-collection reduction tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.tsp.length import tour_length_matrix, validate_tour
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_non_negative


@dataclass
class OrienteeringInstance:
    """A budget-constrained award-collection tour problem.

    Attributes
    ----------
    costs:
        Symmetric non-negative ``(n, n)`` edge-cost matrix.  For Algorithm 1
        these are the paper's ``w2`` energy weights, so "tour cost" is
        exactly "tour energy".  After construction it is *exactly*
        symmetric: a matrix symmetric only within tolerance
        (``allclose``, ``atol=1e-9``) has its upper triangle mirrored
        into a copy, so the solvers may gather row ``v`` wherever they
        need column ``v``.
    awards:
        Length-``n`` non-negative node awards (``p(s_j)``; MB for Alg. 1).
    budget:
        Maximum tour cost (the UAV battery capacity ``E`` for Alg. 1).
    depot:
        Index of the mandatory start/end node.
    conflict_groups:
        Optional list of index arrays; at most one node from each group may
        appear on a tour.
    conflict_neighbor_lists:
        Alternative conflict encoding: one array per node listing the
        nodes it may not share a tour with (must be symmetric).  More
        compact than pairwise groups when conflicts are dense — this is
        what Algorithm 1 passes for overlapping hovering coverage.
        Mutually exclusive with ``conflict_groups``.
    """

    costs: np.ndarray
    awards: np.ndarray
    budget: float
    depot: int = 0
    conflict_groups: Optional[List[np.ndarray]] = None
    conflict_neighbor_lists: Optional[List[np.ndarray]] = None

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=float)
        n = self.costs.shape[0]
        if self.costs.ndim != 2 or self.costs.shape != (n, n):
            raise InvalidParameterError(
                f"costs must be square, got shape {self.costs.shape}")
        if not np.isfinite(self.costs).all() or (self.costs < 0).any():
            raise InvalidParameterError("costs must be finite and >= 0")
        if not np.allclose(self.costs, self.costs.T, atol=1e-9):
            raise InvalidParameterError("costs must be symmetric")
        if not np.array_equal(self.costs, self.costs.T):
            lower = np.tril_indices(n, -1)
            costs = self.costs.copy()
            costs[lower] = costs.T[lower]
            self.costs = costs
        self.awards = np.asarray(self.awards, dtype=float)
        if self.awards.shape != (n,):
            raise InvalidParameterError(
                f"awards must have shape ({n},), got {self.awards.shape}")
        if not np.isfinite(self.awards).all() or (self.awards < 0).any():
            raise InvalidParameterError("awards must be finite and >= 0")
        check_non_negative(self.budget, "budget")
        if not (0 <= self.depot < n):
            raise InvalidParameterError(
                f"depot {self.depot} out of range [0, {n})")
        if (self.conflict_groups is not None
                and self.conflict_neighbor_lists is not None):
            raise InvalidParameterError(
                "pass conflict_groups or conflict_neighbor_lists, not both")
        self._neighbors: Optional[List[np.ndarray]] = None
        if self.conflict_groups is not None:
            groups = []
            neighbor_sets: List[set] = [set() for _ in range(n)]
            for g in self.conflict_groups:
                arr = np.unique(np.asarray(g, dtype=int))
                if len(arr) and (arr.min() < 0 or arr.max() >= n):
                    raise InvalidParameterError("conflict group index out of range")
                groups.append(arr)
                members = [int(v) for v in arr]
                for v in members:
                    neighbor_sets[v].update(u for u in members if u != v)
            self.conflict_groups = groups
            self._neighbors = [
                np.fromiter(sorted(s), dtype=int) if s else np.empty(0, dtype=int)
                for s in neighbor_sets]
        elif self.conflict_neighbor_lists is not None:
            if len(self.conflict_neighbor_lists) != n:
                raise InvalidParameterError(
                    f"conflict_neighbor_lists must have {n} entries")
            lists = []
            for v, nb in enumerate(self.conflict_neighbor_lists):
                arr = np.unique(np.asarray(nb, dtype=int))
                if len(arr) and (arr.min() < 0 or arr.max() >= n):
                    raise InvalidParameterError(
                        "conflict neighbor index out of range")
                if v in arr:
                    raise InvalidParameterError(
                        f"node {v} lists itself as a conflict neighbor")
                lists.append(arr)
            # Symmetry check: u in N(v) <=> v in N(u) (set-based, O(edges)).
            directed = {(v, int(u)) for v, nb in enumerate(lists) for u in nb}
            for v, u in directed:
                if (u, v) not in directed:
                    raise InvalidParameterError(
                        f"conflict neighbors not symmetric: {v} lists {u} "
                        "but not vice versa")
            self.conflict_neighbor_lists = lists
            self._neighbors = lists

    @property
    def n_nodes(self) -> int:
        """Number of nodes including the depot."""
        return self.costs.shape[0]

    @property
    def conflict_lists(self) -> Optional[List[np.ndarray]]:
        """Per-node conflict neighbor arrays, or None when unconstrained.

        The canonical arrays built at construction — shared, not copied;
        callers must treat them as read-only.
        """
        return self._neighbors

    def tour_cost(self, tour) -> float:
        """Total edge cost of the closed *tour*."""
        return tour_length_matrix(np.asarray(tour, dtype=int), self.costs)

    def tour_award(self, tour) -> float:
        """Total award of the visited nodes."""
        arr = np.asarray(tour, dtype=int)
        return float(self.awards[arr].sum()) if len(arr) else 0.0

    def neighbors_of(self, node: int) -> np.ndarray:
        """Nodes that may not share a tour with *node* (empty if none)."""
        if self._neighbors is None:
            return np.empty(0, dtype=int)
        return self._neighbors[int(node)]

    @property
    def has_conflicts(self) -> bool:
        """True when any conflict constraint is configured."""
        return self._neighbors is not None

    def conflicts_ok(self, tour) -> bool:
        """True when no two mutually-conflicting nodes are both on *tour*."""
        if self._neighbors is None:
            return True
        on_tour = set(int(v) for v in np.asarray(tour, dtype=int))
        for v in on_tour:
            nb = self._neighbors[v]
            if len(nb) and any(int(u) in on_tour for u in nb):
                return False
        return True

    def node_conflicts_with(self, node: int, tour) -> bool:
        """True when adding *node* to *tour* would violate a conflict."""
        if self._neighbors is None:
            return False
        nb = self._neighbors[int(node)]
        if not len(nb):
            return False
        on_tour = set(int(v) for v in np.asarray(tour, dtype=int))
        return any(int(u) in on_tour for u in nb)

    def is_feasible(self, tour, *, tol: float = 1e-6) -> bool:
        """Full feasibility check: validity, depot, budget, conflicts."""
        arr = validate_tour(tour, self.n_nodes)
        if len(arr) == 0 or arr[0] != self.depot:
            return False
        if self.tour_cost(arr) > self.budget + tol:
            return False
        return self.conflicts_ok(arr)


@dataclass(frozen=True)
class OrienteeringSolution:
    """A solver's output: the tour, its award, cost, and provenance tag.

    ``stats`` carries optional solver-side work counters (GRASP restart
    accounting, local-search rounds); it never participates in equality
    so two solutions with the same tour/award/cost still compare equal.
    """

    tour: np.ndarray
    award: float
    cost: float
    method: str = ""
    stats: Optional[Dict[str, int]] = field(default=None, compare=False,
                                            repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tour", np.asarray(self.tour, dtype=int))

    @property
    def n_visited(self) -> int:
        """Number of nodes on the tour (depot included)."""
        return len(self.tour)


def make_solution(instance: OrienteeringInstance, tour, method: str,
                  stats: Optional[Dict[str, int]] = None
                  ) -> OrienteeringSolution:
    """Build a solution record with award/cost computed from *instance*."""
    arr = np.asarray(tour, dtype=int)
    return OrienteeringSolution(tour=arr,
                                award=instance.tour_award(arr),
                                cost=instance.tour_cost(arr),
                                method=method, stats=stats)


def trusted_instance(costs: np.ndarray, awards: np.ndarray, budget: float, *,
                     depot: int = 0,
                     conflict_neighbor_lists: Optional[List[np.ndarray]] = None
                     ) -> OrienteeringInstance:
    """Build an instance *without* the O(n²) validation pass.

    :class:`OrienteeringInstance.__post_init__` re-checks symmetry,
    finiteness, and conflict-list consistency on every construction —
    dominant when the inputs are the already-validated outputs of the
    repo's own builders (``build_auxiliary_graph`` costs are exactly
    symmetric by construction; the artifact cache's conflict lists are
    unique, sorted, and symmetric).  This constructor trusts the caller:
    pass it nothing but artifacts produced by those builders.
    """
    inst = object.__new__(OrienteeringInstance)
    inst.costs = np.asarray(costs, dtype=float)
    inst.awards = np.asarray(awards, dtype=float)
    inst.budget = float(budget)
    inst.depot = int(depot)
    inst.conflict_groups = None
    if conflict_neighbor_lists is not None:
        lists = [np.asarray(nb, dtype=int) for nb in conflict_neighbor_lists]
        inst.conflict_neighbor_lists = lists
        inst._neighbors = lists
    else:
        inst.conflict_neighbor_lists = None
        inst._neighbors = None
    return inst


__all__ = ["OrienteeringInstance", "OrienteeringSolution", "make_solution",
           "trusted_instance"]
