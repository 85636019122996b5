"""Unit tests for the greedy / local-search / GRASP orienteering solvers."""

import numpy as np
import pytest

from repro.geometry.distance import pairwise_distances
from repro.orienteering._vector import draw_rng_tape
from repro.orienteering.exact import solve_exact
from repro.orienteering.fast import solve_grasp_fast, stacked_constructions
from repro.orienteering.greedy import solve_greedy
from repro.orienteering.local_search import improve_solution
from repro.orienteering.problem import OrienteeringInstance
from repro.orienteering.solver import AUTO_EXACT_THRESHOLD, solve_orienteering
from repro.utils.errors import InvalidParameterError


def make_instance(rng, n=12, budget=None, groups=None):
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    if budget is None:
        budget = rng.uniform(150, 400)
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0, conflict_groups=groups)


class TestGreedy:
    @pytest.mark.parametrize("seed", range(5))
    def test_feasible(self, seed):
        inst = make_instance(np.random.default_rng(seed))
        sol = solve_greedy(inst)
        assert inst.is_feasible(sol.tour)

    def test_zero_budget_depot_only(self, rng):
        inst = make_instance(rng, budget=0.0)
        sol = solve_greedy(inst)
        np.testing.assert_array_equal(sol.tour, [0])

    def test_collects_everything_with_huge_budget(self, rng):
        inst = make_instance(rng, budget=1e9)
        sol = solve_greedy(inst)
        assert sol.award == pytest.approx(inst.awards.sum())

    def test_zero_award_nodes_never_visited(self, rng):
        inst = make_instance(rng, budget=1e9)
        # All awards zero except node 1.
        awards = np.zeros(inst.n_nodes)
        awards[1] = 5.0
        inst2 = OrienteeringInstance(costs=inst.costs, awards=awards,
                                     budget=1e9, depot=0)
        sol = solve_greedy(inst2)
        assert sorted(sol.tour) == [0, 1]

    def test_respects_conflicts(self, rng):
        groups = [np.array([1, 2, 3])]
        inst = make_instance(rng, budget=1e9, groups=groups)
        sol = solve_greedy(inst)
        assert inst.conflicts_ok(sol.tour)
        on = set(sol.tour) & {1, 2, 3}
        assert len(on) <= 1


def randomized_constructions(inst, seed, n_restarts=4, rcl_size=3):
    tape = draw_rng_tape(np.random.default_rng(seed), n_restarts,
                         inst.n_nodes)
    return stacked_constructions(inst, n_restarts, rcl_size, tape)


class TestRandomizedConstruct:
    def test_feasible(self, rng):
        inst = make_instance(rng)
        for tour in randomized_constructions(inst, seed=1):
            assert inst.is_feasible(tour)

    def test_deterministic_given_seed(self, rng):
        inst = make_instance(rng)
        a = randomized_constructions(inst, seed=9)
        b = randomized_constructions(inst, seed=9)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta, tb)


class TestLocalSearch:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_start(self, seed):
        inst = make_instance(np.random.default_rng(seed))
        start = solve_greedy(inst).tour
        improved = improve_solution(inst, start)
        assert improved.award >= inst.tour_award(start) - 1e-9
        assert inst.is_feasible(improved.tour)

    def test_depot_only_start(self, rng):
        inst = make_instance(rng)
        sol = improve_solution(inst, np.array([0]))
        assert inst.is_feasible(sol.tour)
        assert sol.award >= 0

    def test_respects_conflicts(self, rng):
        groups = [np.array([1, 2]), np.array([3, 4])]
        inst = make_instance(rng, budget=1e9, groups=groups)
        sol = improve_solution(inst, np.array([0]))
        assert inst.conflicts_ok(sol.tour)


class TestGrasp:
    @pytest.mark.parametrize("seed", range(4))
    def test_at_least_as_good_as_greedy(self, seed):
        inst = make_instance(np.random.default_rng(seed))
        gr = solve_greedy(inst)
        gp = solve_grasp_fast(inst, seed=0, n_restarts=4)
        assert gp.award >= gr.award - 1e-9
        assert inst.is_feasible(gp.tour)

    @pytest.mark.parametrize("seed", range(6))
    def test_near_exact_on_small(self, seed):
        rng = np.random.default_rng(200 + seed)
        inst = make_instance(rng, n=9)
        ex = solve_exact(inst)
        gp = solve_grasp_fast(inst, seed=1, n_restarts=8)
        assert gp.award >= 0.9 * ex.award - 1e-9

    def test_deterministic_given_seed(self, rng):
        inst = make_instance(rng)
        a = solve_grasp_fast(inst, seed=5, n_restarts=4)
        b = solve_grasp_fast(inst, seed=5, n_restarts=4)
        np.testing.assert_array_equal(a.tour, b.tour)

    def test_restart_count_validated(self, rng):
        inst = make_instance(rng)
        with pytest.raises(InvalidParameterError):
            solve_grasp_fast(inst, n_restarts=0)

    def test_no_local_search_mode(self, rng):
        inst = make_instance(rng)
        sol = solve_grasp_fast(inst, seed=2, n_restarts=3, local_search=False)
        assert inst.is_feasible(sol.tour)


class TestSolverFacade:
    def test_auto_small_uses_exact(self, rng):
        inst = make_instance(rng, n=AUTO_EXACT_THRESHOLD)
        sol = solve_orienteering(inst)
        assert sol.method == "exact-dp"

    def test_auto_large_uses_grasp(self, rng):
        inst = make_instance(rng, n=AUTO_EXACT_THRESHOLD + 1)
        sol = solve_orienteering(inst, seed=0)
        assert sol.method == "grasp"

    def test_explicit_methods(self, rng):
        inst = make_instance(rng, n=8)
        for method in ("exact", "grasp", "greedy"):
            sol = solve_orienteering(inst, method=method, seed=0)
            assert inst.is_feasible(sol.tour)

    def test_unknown_method_rejected(self, rng):
        inst = make_instance(rng, n=8)
        with pytest.raises(InvalidParameterError):
            solve_orienteering(inst, method="magic")

    def test_exact_size_guard(self, rng):
        from repro.orienteering.exact import MAX_EXACT_NODES
        inst = make_instance(rng, n=MAX_EXACT_NODES + 2)
        with pytest.raises(InvalidParameterError):
            solve_orienteering(inst, method="exact")
