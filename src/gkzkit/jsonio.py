"""JSON parsing and serialization for exact data.

Coefficients travel as fraction strings "p/q" (or plain integers as
strings); floating point is rejected everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .lattice import ParameterVector, PointConfig, validate_config
from .laurent import LambdaPoly, LaurentPoly
from .weyl import WeylElement


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


def format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


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


def _lambda_key(e: tuple[int, ...]) -> str:
    bits = [f"l{j + 1}^{p}" if p > 1 else f"l{j + 1}"
            for j, p in enumerate(e) if p]
    return "*".join(bits) if bits else "1"


def _parse_lambda_key(key: str, nlam: int) -> tuple[int, ...]:
    e = [0] * nlam
    if key.strip() == "1":
        return tuple(e)
    for factor in key.split("*"):
        factor = factor.strip()
        if "^" in factor:
            name, power = factor.split("^")
        else:
            name, power = factor, "1"
        if not name.startswith("l"):
            raise ValueError(f"bad parameter monomial {key!r}")
        e[int(name[1:]) - 1] += int(power)
    return tuple(e)


def laurent_to_json(p: LaurentPoly) -> list[dict]:
    out = []
    for u, c in sorted(p.terms.items()):
        if isinstance(c, LambdaPoly):
            coeff = {_lambda_key(e): format_fraction(v)
                     for e, v in sorted(c.terms.items())}
        else:
            coeff = format_fraction(c)
        out.append({"exp": list(u), "coeff": coeff})
    return out


def laurent_from_json(data: Sequence[dict], n: int,
                      nlam: int | None = None) -> LaurentPoly:
    terms = {}
    for item in data:
        u = tuple(int(x) for x in item["exp"])
        coeff = item["coeff"]
        if isinstance(coeff, dict):
            if nlam is None:
                raise ValueError("symbolic coefficient without a parameter count")
            terms[u] = LambdaPoly(nlam, {_parse_lambda_key(k, nlam): parse_fraction(v)
                                         for k, v in coeff.items()})
        else:
            terms[u] = parse_fraction(coeff)
    return LaurentPoly(n, terms, nlam)


def weyl_to_json(w: WeylElement) -> list[dict]:
    return [{"lam": list(e), "del": list(b), "coeff": format_fraction(c)}
            for (e, b), c in sorted(w.terms.items())]


def weyl_from_json(data: Sequence[dict], nvars: int) -> WeylElement:
    terms = {}
    for item in data:
        key = (tuple(int(x) for x in item["lam"]),
               tuple(int(x) for x in item["del"]))
        terms[key] = parse_fraction(item["coeff"])
    return WeylElement(nvars, terms)


def dump_json(obj: dict) -> str:
    """Deterministic rendering: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
