"""Benchmark of the Algorithm 1 / 2 / 3 planners at the paper's density.

    python3 perfbench/run.py --workload overlap-paper --seed 20200518 \\
        --seconds 48 --trace 0

Runs each workload in a fresh process (``perfbench/workloads.py``), with
BLAS/OpenMP pinned to one thread and the program's trace/ledger switches
unset, and prints every metric by name and unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload in turn and prefixes each metric with its
workload's name.  The exit code is 0 only when every request produced a
checked, valid result.

Request and set-up times are reported at a nominal host speed: each
timed run also times a fixed reference kernel between requests and scales
each measured time by the reference on either side of it
(``perfbench/hostspeed.py``).  The measured times are printed beside them.

Inputs are generated from ``--seed`` by the program's own
``make_instances`` on the paper configuration; the program sees only the
generated networks.  BENCHMARK.json at the repository root records the
workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("overlap-paper", "fig4-sweep")

#: The paper configuration's master seed; runs default to it.
DEFAULT_SEED = 20200518
#: A seed kept out of tuning, for checking that a claim holds elsewhere.
HELD_OUT_SEED = 314159

#: Whole-run limit: a workload process still running is killed.
TIME_LIMIT_S = 175.0


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> Dict[str, Any]:
    """Run one workload in its own process group; return its JSON result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--mode", "traced" if trace else "timed"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        # Whatever is left of the group: everything on a timeout or a
        # signal, stray pool workers otherwise.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def describe(name: str, result: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one workload's result."""
    info = result.get("info", {})
    lines = [f"{name}: attempted={result['attempted']} "
             f"failed={result['failed']} "
             + " ".join(f"{k}={v}" for k, v in info.items()
                        if not isinstance(v, (dict, list)))]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    layers = info.get("layers")
    if layers:
        total = sum(self_s for _, self_s in layers.values()) or 1.0
        lines.append("  span self time (traced pass):")
        for span, (calls, self_s) in sorted(layers.items(),
                                            key=lambda kv: -kv[1][1]):
            lines.append(f"    {span:<28} calls={calls:<5} "
                         f"self={self_s:9.3f} s  {100 * self_s / total:5.1f}%")
    return lines


def _terminated(signum: int, frame: Any) -> None:
    # Raised inside ``communicate``, so the workload's group is killed.
    raise SystemExit(128 + signum)


def main(argv: List[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(
        description="Paper-scale planner benchmark (see module docstring).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, results[name])), flush=True)

    metrics = {}
    for name, result in results.items():
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, entry in result["metrics"].items():
            metrics[prefix + metric] = entry
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
