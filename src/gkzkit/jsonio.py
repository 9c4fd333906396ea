"""Exact input parsing and deterministic JSON output.

Rationals arrive as fraction strings "p/q" (or integers); floating point
is rejected everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .lattice import ParameterVector, PointConfig, validate_config


def parse_fraction(text) -> Fraction:
    """Exact rational from a "p/q" or integer string; floats are refused."""
    if isinstance(text, bool):
        raise ValueError("boolean is not a number")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError("floating point input is not accepted")
    text = str(text).strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"not an exact fraction string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_alpha(entries: Sequence) -> ParameterVector:
    return ParameterVector(tuple(parse_fraction(e) for e in entries))


def load_config(source) -> PointConfig:
    """Point configuration from {"points": [[...], ...]} (dict or JSON text)."""
    data = json.loads(source) if isinstance(source, str) else source
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('expected an object with a "points" key')
    points = data["points"]
    if not isinstance(points, (list, tuple)) or \
            not all(isinstance(p, (list, tuple)) for p in points):
        raise ValueError("points must be a list of integer vectors")
    for p in points:
        for c in p:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError("points must be integer vectors")
    return validate_config([[int(c) for c in p] for p in points])


def dump_json(obj: dict) -> str:
    """Deterministic rendering: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
