"""Unit tests for repro.core.auxgraph (G_s construction, Lemma 1)."""

import itertools

import numpy as np
import pytest

from repro.core.auxgraph import build_auxiliary_graph
from repro.core.hovering import build_hovering_sites
from repro.utils.errors import InvalidParameterError


@pytest.fixture
def graph(small_net, radio, energy):
    sites = build_hovering_sites(small_net, radio, delta=30.0)
    return build_auxiliary_graph(sites, energy)


class TestStructure:
    def test_depot_is_node_zero(self, graph, small_net):
        np.testing.assert_allclose(graph.points[0], small_net.depot)
        assert graph.awards[0] == 0.0
        assert graph.hover_energies[0] == 0.0

    def test_node_count(self, graph):
        assert graph.n_nodes == graph.sites.n_sites + 1

    def test_costs_symmetric_zero_diagonal(self, graph):
        # Exactly, not within tolerance: the orienteering kernels gather
        # rows of ``costs`` wherever they need columns.
        np.testing.assert_array_equal(graph.costs, graph.costs.T)
        np.testing.assert_array_equal(np.diag(graph.costs), 0.0)

    def test_w1_is_hover_time_times_power(self, graph, energy):
        np.testing.assert_allclose(
            graph.hover_energies, graph.hover_times * energy.hover_power)

    def test_edge_weight_formula(self, graph, energy):
        # Eq. 9 spot check on a few random pairs.
        rng = np.random.default_rng(0)
        n = graph.n_nodes
        for _ in range(10):
            i, j = rng.choice(n, 2, replace=False)
            dist = np.linalg.norm(graph.points[i] - graph.points[j])
            expected = (0.5 * (graph.hover_energies[i] + graph.hover_energies[j])
                        + dist * energy.travel_cost_per_meter)
            assert graph.costs[i, j] == pytest.approx(expected)

    def test_rejects_non_energy_model(self, small_net, radio):
        sites = build_hovering_sites(small_net, radio, delta=30.0)
        with pytest.raises(InvalidParameterError):
            build_auxiliary_graph(sites, "not a model")


class TestMetricity:
    def test_lemma1_exhaustive_small(self, tiny_net, radio, energy):
        sites = build_hovering_sites(tiny_net, radio, delta=40.0)
        graph = build_auxiliary_graph(sites, energy)
        c = graph.costs
        n = graph.n_nodes
        for i, j, k in itertools.permutations(range(n), 3):
            assert c[i, k] <= c[i, j] + c[j, k] + 1e-9

    def test_verify_metric_sampled(self, graph):
        assert graph.verify_metric(n_samples=500)

    def test_verify_metric_detects_violation(self, graph):
        # Corrupt one edge far below the metric floor.
        broken = graph
        broken.costs[1, 2] = broken.costs[2, 1] = (
            broken.costs[1, 0] + broken.costs[0, 2]) * 10 + 100.0
        # (1,2) is now way too long: triangle through 0 is shorter, which is
        # fine; instead make an edge absurdly *cheap* elsewhere to violate.
        broken.costs[3, 4] = broken.costs[4, 3] = 0.0
        broken.costs[3, 5] = broken.costs[5, 3] = 1e9
        broken.costs[4, 5] = broken.costs[5, 4] = 0.0
        assert not broken.verify_metric(n_samples=5000)


class TestTourEnergy:
    def test_closed_tour_energy_decomposition(self, graph, energy):
        # Sum of w2 edges along a closed tour = total hover + travel energy.
        tour = np.array([0, 3, 1, 5])
        edge_sum = graph.tour_energy(tour)
        hover = graph.hover_energies[tour].sum()
        travel = 0.0
        for a, b in zip(tour, np.roll(tour, -1)):
            travel += np.linalg.norm(graph.points[a] - graph.points[b])
        expected = hover + travel * energy.travel_cost_per_meter
        assert edge_sum == pytest.approx(expected)

    def test_trivial_tours_zero(self, graph):
        assert graph.tour_energy([0]) == 0.0
        assert graph.tour_energy([]) == 0.0
