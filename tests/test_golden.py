"""Every preset, a topq config, a greedy-first-round config, a K=400 config and
fixed:1 configs reproduce their committed outputs, also under a second BLAS
kernel.

``tests/golden/regenerate.py`` defines the cases, wrote the files under
``tests/golden/`` and owns the comparison: integer fields (run, t, K_t,
delivered, collided, m, counts and stop rounds) must match exactly; other
numbers within a relative 1e-12, so a moved pick or a flipped tie fails
while a different BLAS does not.
"""

import os
import re
import subprocess
import sys

import pytest

from golden.regenerate import CASES, HERE, compare, run_case

ROOT = HERE.parent.parent
# A DYNAMIC_ARCH OpenBLAS names the kernel it loaded on stderr under
# OPENBLAS_VERBOSE=2.
CORE = re.compile(r"^Core: (\S+)$", re.MULTILINE)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    run_case(case, tmp_path)
    want = sorted(p.name for p in (HERE / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        problem, _ = compare(
            (HERE / case / name).read_text(encoding="utf-8"),
            (tmp_path / name).read_text(encoding="utf-8"),
        )
        assert problem is None, f"{case}/{name}: {problem}"


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_outputs_match_golden_under_another_blas_kernel(coretype):
    # OPENBLAS_CORETYPE swaps a DYNAMIC_ARCH OpenBLAS's kernel for one
    # process; Prescott runs the generic Katmai kernel.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_VERBOSE"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True
    )
    default = CORE.findall(probe.stderr)
    if not default:
        pytest.skip(
            "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS (no 'Core:' line under "
            "OPENBLAS_VERBOSE=2), so OPENBLAS_CORETYPE cannot swap its kernel"
        )
    if default[0].lower() == coretype.lower():
        pytest.skip(f"OpenBLAS runs its {default[0]} kernel by default here")
    env["OPENBLAS_CORETYPE"] = coretype
    check = subprocess.run(
        [sys.executable, str(HERE / "regenerate.py"), "--check"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    core = CORE.findall(check.stderr)
    assert core and core != default, f"the kernel did not change: {check.stderr[-500:]}"
    assert check.returncode == 0, check.stdout + check.stderr[-2000:]
    assert check.stdout.count("\n") == sum(len(list((HERE / c).iterdir())) for c in CASES)
