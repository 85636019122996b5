"""Unit tests for repro.orienteering.problem."""

import numpy as np
import pytest

from repro.geometry.distance import pairwise_distances
from repro.orienteering.problem import OrienteeringInstance, make_solution
from repro.utils.errors import InvalidParameterError


@pytest.fixture
def instance(rng):
    pts = rng.uniform(0, 100, (8, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, 8)
    awards[0] = 0.0
    return OrienteeringInstance(costs=costs, awards=awards,
                                budget=300.0, depot=0)


class TestConstruction:
    def test_basic(self, instance):
        assert instance.n_nodes == 8

    def test_rejects_asymmetric_costs(self):
        costs = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1], budget=10.0)

    def test_near_symmetric_costs_become_exactly_symmetric(self, rng):
        # The solvers gather rows in place of columns, so a matrix that
        # is symmetric only within tolerance is mirrored from its upper
        # triangle — into a copy, never the caller's array.
        costs = pairwise_distances(rng.uniform(0, 100, (6, 2)))
        costs[4, 1] += 1e-12
        given = costs.copy()
        inst = OrienteeringInstance(costs=costs, awards=np.ones(6),
                                    budget=500.0)
        np.testing.assert_array_equal(inst.costs, inst.costs.T)
        np.testing.assert_array_equal(np.triu(inst.costs), np.triu(given))
        np.testing.assert_array_equal(costs, given)

    def test_rejects_negative_awards(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, -1, 2], budget=10.0)

    def test_rejects_award_shape_mismatch(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1], budget=10.0)

    def test_rejects_bad_depot(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1, 2],
                                 budget=10.0, depot=3)

    def test_rejects_negative_budget(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1, 2], budget=-1.0)

    def test_conflict_group_index_validated(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1, 2], budget=10.0,
                                 conflict_groups=[np.array([1, 9])])


class TestEvaluation:
    def test_tour_cost(self, instance):
        tour = [0, 3, 5]
        expected = (instance.costs[0, 3] + instance.costs[3, 5]
                    + instance.costs[5, 0])
        assert instance.tour_cost(tour) == pytest.approx(expected)

    def test_tour_award(self, instance):
        tour = [0, 3, 5]
        assert instance.tour_award(tour) == pytest.approx(
            instance.awards[3] + instance.awards[5])

    def test_empty_tour_zero(self, instance):
        assert instance.tour_award([]) == 0.0
        assert instance.tour_cost([]) == 0.0


class TestFeasibility:
    def test_depot_only_feasible(self, instance):
        assert instance.is_feasible([0])

    def test_must_start_at_depot(self, instance):
        assert not instance.is_feasible([1, 0])

    def test_budget_enforced(self, instance):
        tight = OrienteeringInstance(costs=instance.costs,
                                     awards=instance.awards,
                                     budget=1e-6, depot=0)
        assert not tight.is_feasible([0, 1])

    def test_empty_tour_infeasible(self, instance):
        assert not instance.is_feasible([])

    def test_duplicate_node_raises(self, instance):
        with pytest.raises(InvalidParameterError):
            instance.is_feasible([0, 1, 1])


class TestConflicts:
    @pytest.fixture
    def conflicted(self, rng):
        pts = rng.uniform(0, 100, (6, 2))
        return OrienteeringInstance(
            costs=pairwise_distances(pts),
            awards=[0.0, 1, 2, 3, 4, 5],
            budget=1e6, depot=0,
            conflict_groups=[np.array([1, 2]), np.array([3, 4, 5])])

    def test_single_member_ok(self, conflicted):
        assert conflicted.conflicts_ok([0, 1, 3])

    def test_two_from_pair_violates(self, conflicted):
        assert not conflicted.conflicts_ok([0, 1, 2])

    def test_two_from_triple_violates(self, conflicted):
        assert not conflicted.conflicts_ok([0, 4, 5])

    def test_node_conflicts_with(self, conflicted):
        assert conflicted.node_conflicts_with(2, [0, 1])
        assert not conflicted.node_conflicts_with(3, [0, 1])

    def test_is_feasible_includes_conflicts(self, conflicted):
        assert not conflicted.is_feasible([0, 1, 2])

    def test_no_groups_always_ok(self, instance):
        assert instance.conflicts_ok([0, 1, 2, 3])
        assert not instance.node_conflicts_with(4, [0, 1])


class TestSolutionRecord:
    def test_make_solution_computes_metrics(self, instance):
        sol = make_solution(instance, [0, 2, 4], "test")
        assert sol.award == pytest.approx(instance.tour_award([0, 2, 4]))
        assert sol.cost == pytest.approx(instance.tour_cost([0, 2, 4]))
        assert sol.method == "test"
        assert sol.n_visited == 3

    def test_solution_tour_is_array(self, instance):
        sol = make_solution(instance, [0, 1], "t")
        assert isinstance(sol.tour, np.ndarray)
