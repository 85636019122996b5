"""The auxiliary energy-weighted graph ``G_s`` (paper §IV-A, Eqs. 8–9).

Node 0 is the depot; nodes ``1..m`` are the hovering sites.  Edge weights

    w2(s_j, s_k) = (w1(s_j) + w1(s_k)) / 2 + l(s_j, s_k) * eta_t / speed

split each endpoint's hovering energy ``w1 = t * eta_h`` evenly across its
two incident tour edges, so the total weight of any closed tour equals the
tour's true energy (hover + travel) exactly — the observation Theorem 2's
feasibility argument rests on.  Lemma 1 proves ``w2`` is metric; the
property test suite re-verifies that on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hovering import HoveringSites
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import as_rng


@dataclass
class AuxiliaryGraph:
    """Materialised ``G_s`` for the orienteering reduction.

    Attributes
    ----------
    points:
        ``(m+1, 2)`` coordinates; row 0 is the depot.
    costs:
        ``(m+1, m+1)`` ``w2`` edge-weight matrix (joules), exactly
        symmetric: row ``v`` is column ``v`` bit for bit.
    awards:
        Length-``m+1`` node awards; ``awards[0] = 0`` (the depot collects
        nothing).
    hover_energies:
        ``w1`` per node (joules); 0 at the depot.
    hover_times:
        ``t`` per node (seconds); 0 at the depot.
    sites:
        The underlying :class:`HoveringSites` (site ``j`` is node ``j+1``).
    energy:
        The energy model used to weight the graph.
    """

    points: np.ndarray
    costs: np.ndarray
    awards: np.ndarray
    hover_energies: np.ndarray
    hover_times: np.ndarray
    sites: HoveringSites
    energy: EnergyModel

    @property
    def n_nodes(self) -> int:
        """Node count ``m + 1`` (depot included)."""
        return len(self.points)

    def tour_energy(self, tour) -> float:
        """Energy of a closed tour = sum of its ``w2`` edge weights."""
        arr = np.asarray(tour, dtype=int)
        if len(arr) < 2:
            return 0.0
        nxt = np.roll(arr, -1)
        return float(self.costs[arr, nxt].sum())

    def verify_metric(self, *, n_samples: int = 200,
                      seed: int = 0, tol: float = 1e-6) -> bool:
        """Spot-check the triangle inequality on random node triples.

        Exhaustive verification is O(n^3); the planners call this sampled
        version defensively, while the Lemma 1 proof (and the hypothesis
        suite) covers the general case.
        """
        n = self.n_nodes
        if n < 3:
            return True
        rng = as_rng(seed)
        for _ in range(n_samples):
            i, j, k = rng.choice(n, size=3, replace=False)
            if self.costs[i, k] > self.costs[i, j] + self.costs[j, k] + tol:
                return False
        return True


def build_auxiliary_graph(sites: HoveringSites,
                          energy: EnergyModel) -> AuxiliaryGraph:
    """Construct ``G_s`` from hovering *sites* under *energy*.

    The travel term uses ``energy.travel_cost_per_meter`` (= eta_t / speed),
    making the edge weights joules end to end; see
    :mod:`repro.energy.model` for why this matches the paper's
    ``l * eta_t`` notation.
    """
    if not isinstance(energy, EnergyModel):
        raise InvalidParameterError("energy must be an EnergyModel")
    depot = sites.network.depot
    points = np.vstack([depot[None, :], sites.points])
    m1 = len(points)

    hover_times = np.concatenate([[0.0], sites.hover_times])
    w1 = hover_times * energy.hover_power
    awards = np.concatenate([[0.0], sites.awards])

    # In-place accumulation: bitwise-identical to
    # ``0.5 * (w1[:, None] + w1[None, :]) + dist * rate`` (same elementwise
    # operations in the same order) without the three (m+1, m+1) temps.
    # Every step is exactly symmetric (``pairwise_distances`` is, and
    # ``w1_i + w1_j`` commutes), which the orienteering kernels rely on
    # when they gather rows in place of columns.
    dist = pairwise_distances(points)
    dist *= energy.travel_cost_per_meter
    costs = w1[:, None] + w1[None, :]
    costs *= 0.5
    costs += dist
    np.fill_diagonal(costs, 0.0)
    return AuxiliaryGraph(points=points, costs=costs, awards=awards,
                          hover_energies=w1, hover_times=hover_times,
                          sites=sites, energy=energy)


__all__ = ["AuxiliaryGraph", "build_auxiliary_graph"]
