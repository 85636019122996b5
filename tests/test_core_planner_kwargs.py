"""``plan_tour`` kwarg validation: unknown methods and stray options,
including the removed ``engine=`` option."""

from __future__ import annotations

import pytest

from repro.core.planner import PLANNERS, plan_tour
from repro.orienteering.problem import OrienteeringInstance
from repro.orienteering.solver import solve_orienteering
from repro.utils.errors import InvalidParameterError


class TestMethodValidation:
    def test_unknown_method_raises_and_names_the_registry(
            self, small_net, energy, radio):
        with pytest.raises(InvalidParameterError) as exc:
            plan_tour(small_net, energy, radio, method="algorithm7")
        message = str(exc.value)
        assert "algorithm7" in message
        for known in PLANNERS:
            assert known in message

    def test_method_is_keyword_only(self, small_net, energy, radio):
        with pytest.raises(TypeError):
            plan_tour(small_net, energy, radio, "algorithm2")

    def test_every_registered_method_dispatches(self, tiny_net, energy,
                                                radio):
        for method in PLANNERS:
            tour = plan_tour(tiny_net, energy, radio, method=method,
                             delta=25.0)
            assert tour.method == method


class TestStrayKwargs:
    def test_benchmark_rejects_stray_kwargs(self, small_net, energy, radio):
        with pytest.raises(InvalidParameterError) as exc:
            plan_tour(small_net, energy, radio, method="benchmark",
                      K=4, polish=True)
        message = str(exc.value)
        assert "K" in message and "polish" in message

    def test_algorithm2_rejects_unknown_kwargs(self, small_net, energy,
                                               radio):
        with pytest.raises(TypeError):
            plan_tour(small_net, energy, radio, method="algorithm2",
                      warp_speed=True)

    def test_bad_engine_rejected_everywhere(self, small_net, energy, radio):
        """Each planner has one code path, so ``engine=`` fails loudly."""
        for method in ("algorithm1", "algorithm2", "algorithm3"):
            with pytest.raises(TypeError, match="engine"):
                plan_tour(small_net, energy, radio, method=method,
                          delta=25.0, engine="kernel")
        with pytest.raises(InvalidParameterError, match="engine"):
            plan_tour(small_net, energy, radio, method="benchmark",
                      engine="kernel")
        instance = OrienteeringInstance(costs=[[0.0, 1.0], [1.0, 0.0]],
                                        awards=[0.0, 1.0], budget=5.0)
        with pytest.raises(TypeError, match="engine"):
            solve_orienteering(instance, method="grasp", engine="fast")


class TestEnginePassthrough:
    """The code-path label passes through to the tour meta."""

    def test_engine_default_is_kernel(self, small_net, energy, radio):
        for method in ("algorithm2", "algorithm3", "benchmark"):
            tour = plan_tour(small_net, energy, radio, method=method,
                             delta=25.0)
            assert tour.meta["engine"] == "kernel"
