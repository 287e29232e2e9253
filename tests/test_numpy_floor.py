"""The package runs on the oldest numpy that pyproject.toml allows (1.24).

Functions added in numpy 2.x would pass every other test on a newer numpy
and fail only on an old one, so the sources are scanned for them instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gdas"

# Module-level numpy functions that numpy 1.24 does not have.
NUMPY_2_NAMES = {
    "vecdot",
    "matvec",
    "vecmat",
    "trapezoid",
    "concat",
    "permute_dims",
    "isdtype",
    "unique_values",
    "unique_counts",
    "unique_inverse",
    "unique_all",
    "bitwise_count",
    "astype",
    "cumulative_sum",
    "cumulative_prod",
    "matrix_transpose",
}


def numpy_2_uses(source: str, filename: str) -> list[str]:
    """``file:line np.name`` for each use of a numpy-2-only name in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in NUMPY_2_NAMES
        ):
            hits.append(f"{filename}:{node.lineno} {node.value.id}.{node.attr}")
    return hits


def test_the_scan_catches_a_numpy_2_call():
    source = "import numpy as np\nx = np.ones(3)\ny = np.vecdot(x, x)\nz = x.astype(int)\n"
    assert numpy_2_uses(source, "demo.py") == ["demo.py:3 np.vecdot"]


def test_sources_use_no_numpy_2_functions():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = [hit for path in files for hit in numpy_2_uses(path.read_text(encoding="utf-8"), path.name)]
    assert not hits, "numpy >= 2.0 only: " + ", ".join(hits)
