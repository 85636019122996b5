"""Direct unit tests for the vectorised orienteering kernels."""

import numpy as np
import pytest

from repro.geometry.distance import pairwise_distances
from repro.orienteering._vector import (
    all_insertion_deltas,
    conflict_neighbors,
    drop_worst,
    greedy_fill,
    swap_pass,
)
from repro.orienteering.problem import OrienteeringInstance
from repro.tsp.construct import insertion_delta


def make_instance(rng, n=9, budget=1e6, groups=None):
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0, conflict_groups=groups)


class TestAllInsertionDeltas:
    def test_matches_scalar_reference(self, rng):
        inst = make_instance(rng)
        tour = np.array([0, 3, 6, 2])
        deltas, positions = all_insertion_deltas(tour, inst.costs)
        for v in range(inst.n_nodes):
            if v in tour:
                continue
            ref_delta, ref_pos = insertion_delta(tour, inst.costs, v)
            assert deltas[v] == pytest.approx(ref_delta)
            assert positions[v] == ref_pos

    def test_empty_tour(self, rng):
        inst = make_instance(rng)
        deltas, _ = all_insertion_deltas(np.empty(0, dtype=int), inst.costs)
        np.testing.assert_array_equal(deltas, 0.0)

    def test_singleton_tour(self, rng):
        inst = make_instance(rng)
        deltas, _ = all_insertion_deltas(np.array([0]), inst.costs)
        np.testing.assert_allclose(deltas, 2.0 * inst.costs[0])

    def test_positions_valid_range(self, rng):
        inst = make_instance(rng)
        tour = np.array([0, 4, 7])
        _, positions = all_insertion_deltas(tour, inst.costs)
        assert (positions >= 1).all() and (positions <= len(tour)).all()


class TestGreedyFill:
    def test_grows_feasibly(self, rng):
        inst = make_instance(rng, budget=250.0)
        tour = greedy_fill(inst, np.array([0]))
        assert inst.is_feasible(tour)
        assert len(tour) >= 1

    def test_respects_blocked_mask(self, rng):
        inst = make_instance(rng, budget=1e6)
        blocked = np.zeros(inst.n_nodes, dtype=bool)
        blocked[3] = True
        tour = greedy_fill(inst, np.array([0]), blocked=blocked)
        assert 3 not in tour

    def test_zero_award_nodes_skipped(self, rng):
        inst = make_instance(rng, budget=1e6)
        tour = greedy_fill(inst, np.array([0]))
        # Node 0 is the depot (award 0); all others have positive award
        # and a huge budget, so everything else is included.
        assert len(tour) == inst.n_nodes

    def test_starting_tour_preserved(self, rng):
        inst = make_instance(rng, budget=1e6)
        start = np.array([0, 5])
        tour = greedy_fill(inst, start)
        assert tour[0] == 0 and 5 in tour


class TestSwapPass:
    def test_never_decreases_award(self, rng):
        inst = make_instance(rng, budget=280.0)
        tour = greedy_fill(inst, np.array([0]))
        swapped = swap_pass(inst, tour)
        assert inst.tour_award(swapped) >= inst.tour_award(tour) - 1e-9
        assert inst.is_feasible(swapped)

    def test_preserves_depot(self, rng):
        inst = make_instance(rng, budget=280.0)
        tour = greedy_fill(inst, np.array([0]))
        swapped = swap_pass(inst, tour)
        assert swapped[0] == 0

    def test_short_tour_unchanged(self, rng):
        inst = make_instance(rng)
        out = swap_pass(inst, np.array([0]))
        np.testing.assert_array_equal(out, [0])

    def test_finds_obvious_upgrade(self, rng):
        # Tour holds a low-award node; a colocated high-award node exists.
        pts = np.array([[0, 0], [10, 0], [10, 0.01], [90, 90]])
        costs = pairwise_distances(pts)
        inst = OrienteeringInstance(costs=costs,
                                    awards=[0.0, 1.0, 9.0, 2.0],
                                    budget=25.0, depot=0)
        swapped = swap_pass(inst, np.array([0, 1]))
        assert 2 in swapped and 1 not in swapped


class TestDropWorst:
    def test_removes_worst_ratio(self, rng):
        inst = make_instance(rng, budget=1e6)
        tour = greedy_fill(inst, np.array([0]))
        reduced, removed = drop_worst(inst, tour)
        assert removed in tour and removed not in reduced
        assert len(reduced) == len(tour) - 1

    def test_never_removes_depot(self, rng):
        inst = make_instance(rng, budget=1e6)
        tour = greedy_fill(inst, np.array([0]))
        reduced, _ = drop_worst(inst, tour)
        assert reduced[0] == 0

    def test_depot_only_no_op(self, rng):
        inst = make_instance(rng)
        reduced, removed = drop_worst(inst, np.array([0]))
        assert removed == -1
        np.testing.assert_array_equal(reduced, [0])


class TestConflictNeighbors:
    def test_none_when_unconstrained(self, rng):
        inst = make_instance(rng)
        assert conflict_neighbors(inst) is None

    def test_reflects_groups(self, rng):
        inst = make_instance(rng, groups=[np.array([1, 2, 3])])
        neigh = conflict_neighbors(inst)
        np.testing.assert_array_equal(sorted(neigh[1]), [2, 3])
        np.testing.assert_array_equal(sorted(neigh[2]), [1, 3])
        assert len(neigh[5]) == 0
