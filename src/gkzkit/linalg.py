"""Exact sparse linear algebra over the rationals and over prime fields.

Vectors are dicts from comparable keys to coefficients; a row's pivot is its
largest key.  Rational elimination keeps rows as content-normalized integer
dicts and reduces by cross-multiplication, so no Fraction arithmetic happens
in the inner loop.
"""

from __future__ import annotations

from math import gcd
from typing import Hashable


class RationalEchelon:
    """Incremental row echelon over Q.

    Vectors come in with integer coefficients (a caller clears its own
    denominators).  Each stored row is an integer dict whose pivot is its
    largest key; rows are kept with content 1.
    """

    def __init__(self):
        self.rows: dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Fully reduce a vector; the result has no pivot as leading key."""
        v = _normalize_content({k: c for k, c in vec.items() if c})
        while v:
            lead = max(v)
            row = self.rows.get(lead)
            if row is None:
                return v
            a, b = v[lead], row[lead]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            if ca != 1:
                v = {k: ca * c for k, c in v.items()}
            for k, rv in row.items():
                s = v.get(k, 0) - cb * rv
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
            if len(v) > 64:
                v = _normalize_content(v)
        return v

    def insert(self, vec: dict) -> bool:
        """Reduce and store; returns True when the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        v = _normalize_content(v)
        lead = max(v)
        if v[lead] < 0:
            v = {k: -c for k, c in v.items()}
        self.rows[lead] = v
        return True


def _normalize_content(vec: dict) -> dict:
    g = 0
    for c in vec.values():
        g = gcd(g, abs(c))
        if g == 1:
            return vec
    if g > 1:
        return {k: c // g for k, c in vec.items()}
    return vec


class ModpEchelon:
    """Incremental row echelon over the field with p elements; the pivot of
    a row is its largest key."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        p = self.p
        v = {k: c % p for k, c in vec.items() if c % p}
        while v:
            lead = max(v)
            row = self.rows.get(lead)
            if row is None:
                return v
            factor = v[lead]
            for k, rv in row.items():
                s = (v.get(k, 0) - factor * rv) % p
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
        return v

    def insert(self, vec: dict) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        lead = max(v)
        inv = pow(v[lead], -1, self.p)
        self.rows[lead] = {k: (inv * c) % self.p for k, c in v.items()}
        return True
