"""Regenerate the golden preset outputs that ``tests/test_golden.py`` compares against.

Each case is one ``gdas`` command line at a reduced run count: enough runs to
span two or more lockstep blocks (19 runs per block at K=100, 6 bandit runs,
one run at K=400, so that ``aloha-k400`` covers the one-run selection), with
runs long enough that the posterior stack compacts mid-run.  A case's CSV
files and its stdout go to ``tests/golden/<case>/``.

Run from the repository root after an intended change of outputs::

    PYTHONPATH=src python tests/golden/regenerate.py

or, to see how far the outputs moved without writing ``tests/golden/``::

    PYTHONPATH=src python tests/golden/regenerate.py --check

which prints one verdict a file (byte-identical, moved within the golden
tolerance with the largest relative difference, or FAILED with the first
difference) and exits nonzero when a file fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import re
import sys
import tempfile
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
    "aloha-greedy": ["run", "--config", str(HERE / "aloha-greedy.cfg")],
    "aloha-k400": ["run", "--config", str(HERE / "aloha-k400.cfg")],
    "polling-fixed1": ["run", "--config", str(HERE / "polling-fixed1.cfg")],
    "bandit-fixed1": ["bandit", "--config", str(HERE / "bandit-fixed1.cfg")],
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
INTEGER = re.compile(r"[-+]?\d+")
# Relative tolerance of the non-integer numbers: a moved pick or a flipped
# tie fails, a different BLAS does not.
RTOL = 1e-12


def run_case(name: str, out: Path) -> int:
    """Run case ``name`` with its CSV files and ``stdout.txt`` written to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CASES[name] + ["--out", str(out)])
    (out / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
    return code


def compare(want: str, got: str) -> tuple[str | None, float]:
    """The first difference of ``got`` from the golden text ``want`` that
    fails (None if none does), and the largest relative difference of the
    non-integer numbers up to it.

    Text between numbers and integer fields (run, t, K_t, delivered,
    collided, m, counts and stop rounds) must match exactly; other numbers
    within ``RTOL``, nan matching nan.
    """
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}", 0.0
    worst = 0.0
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if NUMBER.split(g) != NUMBER.split(w):
            return f"line {i}: {g!r} != {w!r}", worst
        for a, b in zip(NUMBER.findall(w), NUMBER.findall(g)):
            if INTEGER.fullmatch(a):
                if a != b:
                    return f"line {i}: {b} != {a} in {g!r}", worst
                continue
            x, y = float(a), float(b)
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            if not rel <= RTOL:
                return f"line {i}: {b} != {a} in {g!r}", worst
            worst = max(worst, rel)
    return None, worst


def check() -> int:
    """Regenerate every case into a temporary directory, print one verdict a
    file against ``tests/golden/`` and return the number of files that fail."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            out = Path(tmp) / name
            run_case(name, out)
            files = {p.name for p in (HERE / name).iterdir()} | {p.name for p in out.iterdir()}
            for file in sorted(files):
                want, got = HERE / name / file, out / file
                if not want.exists() or not got.exists():
                    verdict = f"FAILED: {'not written' if want.exists() else 'not in golden'}"
                elif want.read_bytes() == got.read_bytes():
                    verdict = "byte-identical"
                else:
                    problem, worst = compare(
                        want.read_text(encoding="utf-8"), got.read_text(encoding="utf-8")
                    )
                    verdict = (
                        f"FAILED: {problem}"
                        if problem
                        else f"moved within rtol {RTOL:g} (largest relative difference {worst:.1e})"
                    )
                failed += verdict.startswith("FAILED")
                print(f"{name}/{file}: {verdict}")
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with tests/golden/ instead of writing it"
    )
    if parser.parse_args().check:
        sys.exit(1 if check() else 0)
    for name in CASES:
        run_case(name, HERE / name)
        print(f"wrote {HERE / name}", file=sys.stderr)
