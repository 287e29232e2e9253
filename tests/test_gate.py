"""The benchmark's correctness gate accepts a tiny batch of each mode.

``perfbench/run.py`` checks every batch's rounds CSV with
``gate.check_batch`` and re-executes runs through the one-run API
(``initial_state``, ``select_nodes``, ``ingest``, ...) with ``gate.replay``.
This runs both on a tiny CLI call per mode, so a change that breaks what the
gate reads or replays fails here rather than in the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

import gdas.cli
from gdas.config import scenario_to_text
from gdas.experiments import Scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The gate reads the scenario as the benchmark's workload dicts spell it.
TINY = {
    "polling": dict(mode="polling", K=12, rho=0.9, N=2, p=0.4, kbar=9, T=30),
    "aloha": dict(mode="aloha", K=12, rho=0.9, N=2, p=0.4, kbar=9, T=30),
    "bandit": dict(mode="bandit", K=12, N=2, p=0.4, tau=1.0, T=20),
}
RUNS = 3
SEED = 3


@pytest.fixture(scope="module")
def gate():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("gate")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("mode", sorted(TINY))
def test_gate_passes_a_tiny_batch(mode, gate, tmp_path):
    sc = TINY[mode]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(scenario_to_text(Scenario(**sc, runs=RUNS, seed=SEED)))
    command = "bandit" if mode == "bandit" else "run"
    assert gdas.cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    (rounds,) = tmp_path.glob("rounds_*.csv")
    columns, rows = gate.read_rounds_csv(rounds)
    failed, _ = gate.check_batch(sc, RUNS, columns, rows)
    assert failed == {}
    assert gate.replay(sc, SEED, 0, columns, rows) is None
