"""Every preset, a topq config and fixed:1 configs reproduce their committed outputs.

``tests/golden/regenerate.py`` defines the cases and wrote the files under
``tests/golden/``.  Integer fields (run, t, K_t, delivered, collided, m,
counts and stop rounds) must match exactly; other numbers within a relative
1e-12, so a moved pick or a flipped tie fails while a different BLAS does not.
"""

import math
import re

import pytest

from golden.regenerate import CASES, HERE, run_case

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def assert_same_text(want: str, got: str, where: str) -> None:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: line count"
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        assert NUMBER.split(g) == NUMBER.split(w), f"{where}:{i}: {g!r} != {w!r}"
        for a, b in zip(NUMBER.findall(w), NUMBER.findall(g)):
            if re.fullmatch(r"[-+]?\d+", a):
                same = a == b
            else:
                x, y = float(a), float(b)
                same = (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=1e-12)
            assert same, f"{where}:{i}: {b} != {a} in {g!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    run_case(case, tmp_path)
    want = sorted(p.name for p in (HERE / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        assert_same_text(
            (HERE / case / name).read_text(encoding="utf-8"),
            (tmp_path / name).read_text(encoding="utf-8"),
            f"{case}/{name}",
        )
