"""What the benchmark runs: the scenario of each workload and its batch size.

``BENCHMARK.json`` at the repository root is the one source of the workload
names, the metric names, units and bounds, and ``run_seconds``.  This module
loads it and adds what only the benchmark needs: each workload's scenario,
its Monte-Carlo runs per batch, and how many runs the gate replays.
"""

from __future__ import annotations

import json
from pathlib import Path

_BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS = _BENCH["run_seconds"]
END_TO_END = _BENCH["end_to_end"]
PER_LAYER = _BENCH["per_layer"]

# A batch is one ``gdas run|bandit --config ... --out ...`` call.  Its run
# count is the one the program is used with: the ``rounds`` preset runs 500
# runs per access mode and ``bandit-tau1`` runs 200.  K=400 has no preset
# and the default of 100 runs would take ~110 s on a 2-core Xeon, longer
# than one benchmark run may last, so it runs 16: enough stacked runs that
# batching the run axis shows in time and memory.
WORKLOADS = {
    "aloha-k100": {
        "command": "run",
        "scenario": dict(mode="aloha", K=100, rho=0.95, N=4, p=0.2, kbar=75, T=150),
        "batch_runs": 500,
        "replay_runs": 2,
    },
    "polling-k100": {
        "command": "run",
        "scenario": dict(mode="polling", K=100, rho=0.95, N=4, p=0.2, kbar=75, T=250),
        "batch_runs": 500,
        "replay_runs": 2,
    },
    "bandit-k100": {
        "command": "bandit",
        "scenario": dict(mode="bandit", K=100, N=4, p=0.2, tau=1.0, T=50),
        "batch_runs": 200,
        "replay_runs": 1,
    },
    "aloha-k400": {
        "command": "run",
        "scenario": dict(mode="aloha", K=400, rho=0.95, N=16, p=0.2, kbar=300, T=150),
        "batch_runs": 16,
        "replay_runs": 1,
    },
}
if sorted(WORKLOADS) != sorted(w["name"] for w in _BENCH["workloads"]):
    raise RuntimeError("the workloads of BENCHMARK.json and spec.WORKLOADS differ")

# Per-call latency buckets: picks per select call, nodes per ingest call.
SELECT_BUCKETS = ("q4", "q20", "q80", "qother")
INGEST_BUCKETS = ("n0", "n1", "n2", "n3-4", "n5plus")


def select_bucket(picks: int) -> str:
    name = f"q{picks}"
    return name if name in SELECT_BUCKETS else "qother"


def ingest_bucket(nodes: int) -> str:
    if nodes <= 2:
        return f"n{nodes}"
    return "n3-4" if nodes <= 4 else "n5plus"
