"""Regenerate the golden preset outputs that ``tests/test_golden.py`` compares against.

Each case is one ``gdas`` command line at a reduced run count: enough runs to
span two or more lockstep blocks (19 runs per block at K=100, 6 bandit runs),
with runs long enough that the posterior stack compacts mid-run.  A case's
CSV files and its stdout go to ``tests/golden/<case>/``.

Run from the repository root after an intended change of outputs::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from gdas.cli import main

HERE = Path(__file__).resolve().parent

CASES: dict[str, list[str]] = {
    "rounds": ["run", "--preset", "rounds", "--runs", "20"],
    "mse-curve": ["run", "--preset", "mse-curve", "--runs", "20"],
    "p-sweep": ["sweep", "--preset", "p-sweep", "--runs", "20", "--check"],
    "n-sweep": ["sweep", "--preset", "n-sweep", "--runs", "20", "--check"],
    "bandit-tau1": ["bandit", "--preset", "bandit-tau1", "--runs", "8"],
    "bandit-tau20": ["bandit", "--preset", "bandit-tau20", "--runs", "8"],
    "mismatch": ["bandit", "--preset", "mismatch", "--runs", "8"],
    "aloha-topq": ["run", "--config", str(HERE / "aloha-topq.cfg")],
    "polling-fixed1": ["run", "--config", str(HERE / "polling-fixed1.cfg")],
    "bandit-fixed1": ["bandit", "--config", str(HERE / "bandit-fixed1.cfg")],
}


def run_case(name: str, out: Path) -> int:
    """Run case ``name`` with its CSV files and ``stdout.txt`` written to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CASES[name] + ["--out", str(out)])
    (out / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
    return code


if __name__ == "__main__":
    for name in CASES:
        run_case(name, HERE / name)
        print(f"wrote {HERE / name}", file=sys.stderr)
