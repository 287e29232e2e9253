"""Every preset, a topq config, a greedy-first-round config, a K=400 config and
fixed:1 configs reproduce their committed outputs.

``tests/golden/regenerate.py`` defines the cases, wrote the files under
``tests/golden/`` and owns the comparison: integer fields (run, t, K_t,
delivered, collided, m, counts and stop rounds) must match exactly; other
numbers within a relative 1e-12, so a moved pick or a flipped tie fails
while a different BLAS does not.
"""

import pytest

from golden.regenerate import CASES, HERE, compare, run_case


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
