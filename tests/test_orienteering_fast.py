"""Stacked GRASP — bitwise equivalence and warm-start contracts.

The stacked constructions are *not* a different solver: every restart
replays the choices of growing it alone (same RNG tape, same sorted-RCL
picks), so tours, awards, costs, and the restart stats must match the
one-restart-at-a-time oracle (``tests/oracles.py``) bitwise.  Hypothesis
hunts the corners; the plan-level tests pin Algorithm 1 against the
oracle, the reduction-aware tape sizing, and the strict-improvement
warm-start acceptance the δ-continuation mode relies on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithm1 import plan_algorithm1
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.geometry.region import Region
from repro.network.sensor_network import SensorNetwork
from repro.orienteering._vector import draw_rng_tape
from repro.orienteering.fast import solve_grasp_fast, stacked_constructions
from repro.orienteering.grasp import GRASP_STAT_NAMES, warm_tour_from_nodes
from repro.orienteering.greedy import solve_greedy
from repro.orienteering.problem import OrienteeringInstance
from repro.orienteering.solver import solve_orienteering
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from tests.oracles import (ALG1_PATHS, GRASP_PATHS, scalar_construct,
                           solve_grasp_scalar)

RADIO = RadioModel(bandwidth=150.0, transmission_range=60.0, altitude=0.0)


def make_instance(seed, n=12, budget=None, conflicts=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    if budget is None:
        budget = float(rng.uniform(100, 500))
    groups = None
    if conflicts and n >= 5:
        groups = [np.array([1, 2]), np.array([3, 4])]
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0, conflict_groups=groups)


def make_network(seed, n=10):
    rng = np.random.default_rng(seed)
    region = Region.square(300.0)
    return SensorNetwork(positions=region.sample_uniform(n, rng),
                         volumes=rng.uniform(10.0, 500.0, n),
                         depot=region.center, region=region)


ENERGY = EnergyModel(capacity=3e4, hover_power=150.0, travel_power=100.0,
                     speed=10.0)


class TestBitwiseEquivalence:
    @given(seed=st.integers(0, 10_000),
           n=st.integers(2, 16),
           n_restarts=st.integers(1, 9),
           rcl_size=st.integers(1, 5),
           grasp_seed=st.integers(0, 1_000),
           conflicts=st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fast_matches_scalar_bitwise(self, seed, n, n_restarts,
                                         rcl_size, grasp_seed, conflicts):
        inst = make_instance(seed, n=n, conflicts=conflicts)
        scalar = solve_grasp_scalar(inst, n_restarts=n_restarts,
                                    rcl_size=rcl_size, seed=grasp_seed)
        fast = solve_grasp_fast(inst, n_restarts=n_restarts,
                                rcl_size=rcl_size, seed=grasp_seed)
        np.testing.assert_array_equal(scalar.tour, fast.tour)
        assert scalar.award == fast.award          # bitwise, not approx
        assert scalar.cost == fast.cost
        assert scalar.stats == fast.stats

    @given(seed=st.integers(0, 5_000), n=st.integers(2, 14),
           n_restarts=st.integers(1, 6))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stacked_constructions_match_scalar_restarts(self, seed, n,
                                                         n_restarts):
        """Restart r of the stack equals the r-th scalar construction."""
        inst = make_instance(seed, n=n)
        rng = np.random.default_rng(0)
        tape = draw_rng_tape(rng, n_restarts, inst.n_nodes)
        stacked = stacked_constructions(inst, n_restarts, 3, tape)
        assert len(stacked) == n_restarts
        np.testing.assert_array_equal(stacked[0], solve_greedy(inst).tour)
        for r in range(1, n_restarts):
            ref = scalar_construct(inst, tape[r - 1], rcl_size=3)
            np.testing.assert_array_equal(stacked[r], ref)

    def test_solver_facade_dispatch(self):
        inst = make_instance(3, n=10)
        facade = solve_orienteering(inst, method="grasp", seed=1)
        fast = solve_grasp_fast(inst, seed=1)
        np.testing.assert_array_equal(facade.tour, fast.tour)
        assert facade.stats == fast.stats


class TestAlgorithm1Engines:
    @pytest.mark.parametrize("reduction", [None, "safe", "aggressive"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_engines_agree_bitwise(self, seed, reduction):
        net = make_network(seed)
        tours = {
            name: plan(net, ENERGY, RADIO, 30.0, n_restarts=4, seed=seed,
                       site_reduction=reduction)
            for name, plan in ALG1_PATHS.items()}
        a, b = tours["scalar"], tours["fast"]
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.sojourns, b.sojourns)
        np.testing.assert_array_equal(a.collected, b.collected)
        assert a.meta["perf"]["grasp"] == b.meta["perf"]["grasp"]
        assert b.meta["perf"]["engine"] == "fast"

    def test_safe_reduction_invariant_per_engine(self):
        """Reduction-aware tape: safe renumbering never changes the tour."""
        net = make_network(11)
        for plan in ALG1_PATHS.values():
            cold = plan(net, ENERGY, RADIO, 30.0, n_restarts=5, seed=2)
            red = plan(net, ENERGY, RADIO, 30.0, n_restarts=5, seed=2,
                       site_reduction="safe")
            np.testing.assert_array_equal(cold.points, red.points)
            assert cold.collected_volume == red.collected_volume

    def test_meta_perf_grasp_stats_contract(self):
        net = make_network(5)
        tour = plan_algorithm1(net, ENERGY, RADIO, 30.0, n_restarts=3,
                               seed=0)
        stats = tour.meta["perf"]["grasp"]
        assert set(stats) == set(GRASP_STAT_NAMES)
        assert list(stats) == sorted(stats)      # sorted-key emission
        assert stats["restarts"] == 3
        assert stats["constructions"] >= 1
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())


class TestWarmStarts:
    @given(seed=st.integers(0, 3_000), n=st.integers(3, 14),
           hint_seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_warm_tour_from_nodes_always_feasible(self, seed, n, hint_seed):
        inst = make_instance(seed, n=n, conflicts=True)
        rng = np.random.default_rng(hint_seed)
        hints = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        tour = warm_tour_from_nodes(inst, hints)
        if tour is not None:
            assert inst.is_feasible(tour)
            assert inst.conflicts_ok(tour)
            assert set(tour) <= set(hints) | {0}

    def test_warm_tour_from_nodes_validates_range(self):
        inst = make_instance(0, n=8)
        with pytest.raises(InvalidParameterError):
            warm_tour_from_nodes(inst, [99])
        assert warm_tour_from_nodes(inst, np.empty(0, dtype=int)) is None

    @given(seed=st.integers(0, 3_000), n=st.integers(2, 12),
           engine=st.sampled_from(sorted(GRASP_PATHS)))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_non_improving_warm_tour_leaves_result_unchanged(self, seed, n,
                                                             engine):
        """Strict-improvement acceptance: the winner's own tour as a warm
        start can never displace it, so the solution stays bitwise
        identical (only the warm-start counters move)."""
        inst = make_instance(seed, n=n)
        solver = GRASP_PATHS[engine]
        cold = solver(inst, n_restarts=3, seed=0)
        warm = solver(inst, n_restarts=3, seed=0, warm_tour=cold.tour)
        np.testing.assert_array_equal(cold.tour, warm.tour)
        assert cold.award == warm.award
        assert warm.stats["warm_starts"] == 1
        assert warm.stats["warm_improved"] == 0

    def test_improving_warm_tour_wins(self):
        """A warm tour strictly better than every restart is kept."""
        inst = make_instance(42, n=12, budget=1e9)
        best = solve_grasp_fast(inst, n_restarts=6, seed=0)
        # With an enormous budget the polish collects everything, so
        # force a weak baseline: single restart, no local search.
        weak = solve_grasp_fast(inst, n_restarts=1, seed=0,
                                local_search=False)
        if best.award > weak.award:
            warm = solve_grasp_fast(inst, n_restarts=1, seed=0,
                                    local_search=False, warm_tour=best.tour)
            assert warm.award >= best.award
            assert warm.stats["warm_improved"] == 1
