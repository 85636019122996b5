"""Golden lock on the Fig. 3/4/5 sweep rows.

A tiny campaign (40 nodes, 2 instances, 2 capacities, 2 δ values) runs
every figure under each site-reduction level, plus Fig. 4 with
δ-continuation, and its planner outputs are compared *exactly* against
``tests/golden/figure_rows.json``.  Only the deterministic plan outputs
are locked — volumes, instance counts, row identity — never times or
``perf`` counters, which describe how a code path did its work rather
than what it planned.

A mismatch is a behaviour change.  The file is rewritten only on
purpose, with::

    PYTHONPATH=src python tests/test_golden_figure_rows.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

from repro.experiments.config import ExperimentConfig, reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.instances import make_instances

GOLDEN = Path(__file__).resolve().parent / "golden" / "figure_rows.json"

#: The row fields the lock compares.
LOCKED_FIELDS = ("param_name", "param_value", "algorithm",
                 "mean_volume_gb", "std_volume_gb", "n_instances")

REDUCTIONS = ("off", "safe", "aggressive")


def golden_config() -> ExperimentConfig:
    """The locked campaign: small enough to run in a few seconds."""
    return reduced_settings().scaled(
        n_nodes=40, region_side=550.0, n_instances=2, seed=7,
        capacity=3e4, capacity_sweep=(2e4, 4e4),
        delta=15.0, delta_sweep=(15.0, 25.0), k_values=(2, 4))


def _cases() -> Dict[str, Callable[..., Any]]:
    cases: Dict[str, Callable[..., Any]] = {}
    for level in REDUCTIONS:
        cases[f"fig3/{level}"] = (
            lambda cfg, nets, level=level: run_fig3(
                cfg, nets, site_reduction=level, validate=False))
        cases[f"fig4/{level}"] = (
            lambda cfg, nets, level=level: run_fig4(
                cfg, nets, site_reduction=level, algorithm1=True,
                validate=False))
        cases[f"fig5/{level}"] = (
            lambda cfg, nets, level=level: run_fig5(
                cfg, nets, site_reduction=level, validate=False))
    cases["fig4/continuation"] = (
        lambda cfg, nets: run_fig4(cfg, nets, delta_continuation=True,
                                   validate=False))
    return cases


CASES = _cases()


def locked_rows(result) -> List[Dict[str, Any]]:
    """The locked view of a sweep's rows, in row order."""
    return [{k: row.as_dict()[k] for k in LOCKED_FIELDS}
            for row in result.rows]


def generate() -> Dict[str, List[Dict[str, Any]]]:
    """Run every locked case and return its rows keyed by case name."""
    cfg = golden_config()
    nets = make_instances(cfg)
    return {name: locked_rows(run(cfg, nets)) for name, run in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def instances():
    return make_instances(golden_config())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_match_golden(case, golden, instances):
    rows = locked_rows(CASES[case](golden_config(), instances))
    assert rows == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_figure_rows.py --write")
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
