"""Flat key=value scenario files.

One assignment per line, ``#`` comments, keys matching Scenario fields::

    mode = aloha
    K = 100
    p = 0.2
    kbar = 75

The upload probability is given only as ``p``; ``gdas.uploading_probability``
turns a fading model into it.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

from .experiments import Scenario

# Each key's base type and nullability come from its Scenario annotation.
_TYPES = get_type_hints(Scenario)
_CANONICAL = {f.name.lower(): f.name for f in fields(Scenario)}


def _coerce(key: str, raw: str, lineno: int):
    kinds = get_args(_TYPES[key]) or (_TYPES[key],)
    if raw.lower() in ("none", "null"):
        if type(None) not in kinds:
            raise ValueError(f"line {lineno}: {key} cannot be none")
        return None
    try:
        return kinds[0](raw)
    except ValueError:
        kind = {int: "an int", float: "a float"}[kinds[0]]
        raise ValueError(f"line {lineno}: {key} must be {kind}, got {raw!r}") from None


def parse_scenario_text(text: str) -> Scenario:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key_raw, val_raw = (part.strip() for part in stripped.split("=", 1))
        key = _CANONICAL.get(key_raw.lower())
        if key is None:
            raise ValueError(f"line {lineno}: unknown scenario key {key_raw!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key_raw!r}")
        values[key] = _coerce(key, val_raw, lineno)
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"))


def scenario_to_text(scenario: Scenario) -> str:
    lines = []
    for f in fields(Scenario):
        value = getattr(scenario, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
