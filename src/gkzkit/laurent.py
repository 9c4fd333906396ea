"""Sparse Laurent polynomials over exact rationals.

A LaurentPoly maps exponent keys to nonzero exact rationals: ints, kept as
ints so that integer polynomials compute over Z, or Fractions; every other
number is converted to a Fraction.  ``n`` is the torus dimension.  With
the deformation parameters lambda_1..lambda_N kept as symbols
(``nlam = N``) it is an element of Q[lambda_1..lambda_N][x^{+-1}],
and each key is the flat tuple (u_1..u_n, e_1..e_N) of the monomial
lambda^e x^u: the x exponents, then the nonnegative lambda exponents.  With
``nlam = 0`` the parameters are specialized to numbers and a key is just u.
Products add whole keys, so they multiply the lambda monomials too; the
derivations x_i d/dx_i read only the first n coordinates.  Polynomials of
different (n, nlam) never mix; binary operations raise ScalarModeError.

The constructor checks what it is given: key lengths, and coefficients
(floats are refused, strings parsed).  Results the module computes from
polynomials, which are already checked, go through ``LaurentPoly._of``,
which only drops zero coefficients.  The identity battery computes with
these polynomials; the ranks on the torus and on the complement
(``window``) do not.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from operator import add
from typing import Sequence

from .errors import ScalarModeError
from .lattice import ParameterVector, PointConfig

IntVec = tuple[int, ...]


def lazy_exports(owner: str, module: str, names: Sequence[str]):
    """A module ``__getattr__`` (PEP 562) for the module named owner that
    reads names from the package module ``module`` on first access, so a
    process that never asks for them never loads that module."""
    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f".{module}", __package__), name)
    return __getattr__


# the benchmark tracer (bench/traced_job.py) finds ConeSupport in this
# module; the identity battery never asks for it, so it loads no window code
__getattr__ = lazy_exports(__name__, "window", ("ConeSupport",))


class LaurentPoly:
    """Finite map from exponent keys of length n + nlam to nonzero ints or
    Fractions."""

    __slots__ = ("n", "nlam", "terms")

    def __init__(self, n: int, terms: dict[IntVec, Fraction] | None = None,
                 nlam: int = 0):
        self.n = n
        self.nlam = nlam
        self.terms: dict[IntVec, Fraction] = {}
        if terms:
            width = n + nlam
            for u, c in terms.items():
                u = tuple(u)
                if len(u) != width:
                    raise ValueError("exponent length mismatch")
                if type(c) is not int and type(c) is not Fraction:
                    if isinstance(c, float):
                        raise TypeError(f"float coefficient {c!r}: use an int, "
                                        "a Fraction or a string")
                    c = Fraction(c)
                if c:
                    self.terms[u] = c

    @classmethod
    def _of(cls, n: int, terms: dict[IntVec, Fraction], nlam: int = 0) -> "LaurentPoly":
        """The polynomial with the nonzero terms of a map the package built
        itself: tuple keys of length n + nlam, int or Fraction values.  Only
        zero coefficients are dropped; keys and types are not re-checked, so
        user input goes through the constructor."""
        p = cls.__new__(cls)
        p.n = n
        p.nlam = nlam
        p.terms = {u: c for u, c in terms.items() if c}
        return p

    @staticmethod
    def zero(n: int, nlam: int = 0) -> "LaurentPoly":
        return LaurentPoly(n, {}, nlam)

    @staticmethod
    def monomial(u: Sequence[int], coeff=1, nlam: int = 0) -> "LaurentPoly":
        """coeff times x^u, constant in the parameters."""
        return LaurentPoly(len(u), {tuple(int(x) for x in u) + (0,) * nlam: coeff}, nlam)

    @staticmethod
    def one(n: int, nlam: int = 0) -> "LaurentPoly":
        return LaurentPoly(n, {(0,) * (n + nlam): 1}, nlam)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_mode(self, other: "LaurentPoly") -> None:
        if (self.n, self.nlam) != (other.n, other.nlam):
            raise ScalarModeError(f"polynomials with (n, nlam) = {(self.n, self.nlam)} "
                                  f"and {(other.n, other.nlam)} mixed")

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.n == other.n
                and self.nlam == other.nlam and self.terms == other.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_mode(other)
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out[u] + c if u in out else c
        return LaurentPoly._of(self.n, out, self.nlam)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.n, {u: -c for u, c in self.terms.items()}, self.nlam)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_mode(other)
        out: dict[IntVec, Fraction] = {}
        for u1, c1 in self.terms.items():
            for u2, c2 in other.terms.items():
                u = tuple(a + b for a, b in zip(u1, u2))
                c = c1 * c2
                out[u] = out[u] + c if u in out else c
        return LaurentPoly._of(self.n, out, self.nlam)

    def scalar_mul(self, c) -> "LaurentPoly":
        """Multiply by a rational number."""
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        return LaurentPoly._of(self.n, {u: v * c for u, v in self.terms.items()},
                               self.nlam)

    def shift(self, u: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial x^u."""
        u = tuple(int(x) for x in u)
        if len(u) != self.n:
            raise ValueError("exponent length mismatch")
        u += (0,) * self.nlam
        return LaurentPoly._of(self.n, {tuple(a + b for a, b in zip(w, u)): c
                                        for w, c in self.terms.items()}, self.nlam)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = [f"x{i + 1}^{p}" for i, p in enumerate(key[:self.n]) if p]
            mono += [f"l{j + 1}^{p}" for j, p in enumerate(key[self.n:]) if p]
            bits.append(f"({c})" + ("*" + "*".join(mono) if mono else ""))
        return " + ".join(bits)


def build_f(config: PointConfig, lam: Sequence) -> LaurentPoly:
    """The Laurent polynomial sum of lam_j times the j-th point monomial."""
    if len(lam) != config.N:
        raise ValueError("need one coefficient per point")
    terms: dict[IntVec, Fraction] = {}
    for point, c in zip(config.points, lam):
        c = Fraction(c)
        if c == 0:
            continue
        terms[point] = terms.get(point, Fraction(0)) + c
    return LaurentPoly(config.n, terms)


def build_f_symbolic(config: PointConfig) -> LaurentPoly:
    """The same polynomial with the parameters kept as symbols: the j-th
    point a_j gives the term lambda_j x^{a_j}, the key a_j + e_j."""
    N = config.N
    return LaurentPoly(config.n, {point + tuple(int(k == j) for k in range(N)): 1
                                  for j, point in enumerate(config.points)}, N)


def toric_derivative(i: int, p: LaurentPoly) -> LaurentPoly:
    """x_i d/dx_i in the exponent encoding: each term scales by its i-th exponent."""
    if not 1 <= i <= p.n:
        raise ValueError("derivative index out of range")
    k = i - 1
    return LaurentPoly._of(p.n, {u: c * u[k] for u, c in p.terms.items() if u[k]}, p.nlam)


def int_if_integral(c):
    """c as an int when its value is an integer, else c itself."""
    return c.numerator if c.denominator == 1 else c


def _add_scaled(out: dict[IntVec, Fraction], p: LaurentPoly, factor) -> None:
    """Add factor times p into the term map out; factor is a nonzero integer
    or Fraction."""
    for u, c in p.terms.items():
        if factor != 1:
            c = c * factor
        out[u] = out[u] + c if u in out else c


class TwistedDerivations:
    """scale times the twisted derivations D_i = x_i d/dx_i + alpha_i +
    (x_i df/dx_i) of one (alpha, f), with the table of each direction built
    once: scale alpha_i and the terms of scale x_i df/dx_i.  On x^u, D_i
    gives (u_i + alpha_i) x^u plus the shifts by the terms of f.  When scale
    clears the denominators of alpha and f, the tables are ints and integer
    polynomials map to integer polynomials.  The identity battery's maps
    (``apply_D``, ``derham.nabla`` and the checks on them) take these tables
    alone and read alpha, f and scale off them."""

    __slots__ = ("alpha", "f", "scale", "tables")

    def __init__(self, alpha: ParameterVector, f: LaurentPoly, scale: int = 1):
        self.alpha = alpha
        self.f = f
        self.scale = scale
        self.tables = [(int_if_integral(a * scale),
                        [(v, int_if_integral(c * v[k] * scale))
                         for v, c in f.terms.items() if v[k]])
                       for k, a in enumerate(alpha.entries[:f.n])]

    def add_to(self, out: dict[IntVec, Fraction], i: int, xi: LaurentPoly,
               sign: int = 1) -> None:
        """Add sign (+1 or -1) times D_i xi into the term map out."""
        k = i - 1
        a, df = self.tables[k]
        s = self.scale
        for u, c in xi.terms.items():
            if sign < 0:
                c = -c
            t = c * (u[k] * s + a)
            out[u] = out[u] + t if u in out else t
            for v, d in df:
                w = tuple(map(add, u, v))
                t = d * c
                out[w] = out[w] + t if w in out else t


def apply_D(derivations: TwistedDerivations, i: int, xi: LaurentPoly) -> LaurentPoly:
    """The twisted derivation in direction i of ``derivations``, scaled as
    they are, applied to xi."""
    if not 1 <= i <= xi.n:
        raise ValueError("derivative index out of range")
    derivations.f._check_mode(xi)
    out: dict[IntVec, Fraction] = {}
    derivations.add_to(out, i, xi)
    return LaurentPoly._of(xi.n, out, xi.nlam)
