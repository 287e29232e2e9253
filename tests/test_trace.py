"""The benchmark's tracer finds and sees called every layer it wraps.

``perfbench/run.py --trace 1`` fails when a layer it wraps is renamed,
deleted or bypassed; this runs the same check on a tiny run of each mode.
"""

import importlib
import sys
from pathlib import Path

import pytest

import gdas.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TINY = "K = 12\nrho = 0.9\nN = 2\np = 0.4\nkbar = 9\nT = 30\nruns = 3\nseed = 3\n"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("mode", ["polling", "aloha", "bandit"])
def test_every_traced_layer_is_called(mode, tracing, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"mode = {mode}\n{TINY}")
    command = "bandit" if mode == "bandit" else "run"
    tracer = tracing.Tracer(mode)
    with tracer:
        assert gdas.cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert tracer.problems() == []
