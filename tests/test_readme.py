"""README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no Library example python block"
    exec(compile(block[1], str(README), "exec"), {"__name__": "readme_example"})
    mse, sqerr = map(float, capsys.readouterr().out.split())
    # The prior trace is K = 100; the round's deliveries lower it.
    assert 0.0 < mse < 100.0 and math.isfinite(sqerr)
