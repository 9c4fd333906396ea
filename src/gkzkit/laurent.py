"""Sparse Laurent polynomials over exact rationals, with two coefficient modes.

Coefficients are either plain Fractions ("rational mode", the deformation
parameters specialized to numbers) or sparse polynomials in the parameters
lambda_1..lambda_N with Fraction coefficients ("symbolic mode").  The two
modes never mix inside one polynomial; binary operations raise
ScalarModeError on a mismatch.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .errors import ScalarModeError
from .intmat import solve_integer
from .lattice import ParameterVector, PointConfig, newton_polytope

IntVec = tuple[int, ...]


class LambdaPoly:
    """Polynomial in the parameters lambda_1..lambda_N over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[IntVec, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[IntVec, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(value, nvars: int) -> "LambdaPoly":
        return LambdaPoly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def gen(j: int, nvars: int) -> "LambdaPoly":
        """The generator lambda_j (1-based)."""
        e = [0] * nvars
        e[j - 1] = 1
        return LambdaPoly(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, LambdaPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LambdaPoly(self.nvars, out)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        out: dict[IntVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LambdaPoly(self.nvars, out)

    def scale(self, c) -> "LambdaPoly":
        if type(c) is not Fraction:
            c = Fraction(c)
        return LambdaPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def derivative(self, j: int) -> "LambdaPoly":
        """Formal derivative with respect to lambda_j (1-based)."""
        out: dict[IntVec, Fraction] = {}
        for e, c in self.terms.items():
            if e[j - 1]:
                e2 = list(e)
                e2[j - 1] -= 1
                out[tuple(e2)] = c * e[j - 1]
        return LambdaPoly(self.nvars, out)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, p in zip(values, e):
                term *= Fraction(v) ** p
            total += term
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"l{j + 1}^{p}" if p > 1 else f"l{j + 1}"
                            for j, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


Scalar = object  # Fraction in rational mode, LambdaPoly in symbolic mode


def _scalar_is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, LambdaPoly) else c == 0


class LaurentPoly:
    """Finite map from integer exponent vectors to nonzero coefficients.

    ``nlam`` is None in rational mode, or the number of lambda variables in
    symbolic mode.
    """

    __slots__ = ("n", "nlam", "terms")

    def __init__(self, n: int, terms: dict[IntVec, Scalar] | None = None,
                 nlam: int | None = None):
        self.n = n
        self.nlam = nlam
        self.terms: dict[IntVec, Scalar] = {}
        if terms:
            for u, c in terms.items():
                u = tuple(u)
                if len(u) != n:
                    raise ValueError("exponent length mismatch")
                if nlam is None and type(c) is not Fraction:
                    c = Fraction(c)
                if not _scalar_is_zero(c):
                    self.terms[u] = c

    @staticmethod
    def zero(n: int, nlam: int | None = None) -> "LaurentPoly":
        return LaurentPoly(n, {}, nlam)

    @staticmethod
    def monomial(u: Sequence[int], coeff=Fraction(1), nlam: int | None = None) -> "LaurentPoly":
        return LaurentPoly(len(u), {tuple(int(x) for x in u): coeff}, nlam)

    @staticmethod
    def one(n: int, nlam: int | None = None) -> "LaurentPoly":
        coeff = LambdaPoly.const(1, nlam) if nlam is not None else Fraction(1)
        return LaurentPoly(n, {(0,) * n: coeff}, nlam)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_mode(self, other: "LaurentPoly") -> None:
        if self.n != other.n:
            raise ScalarModeError("ambient dimension mismatch")
        if self.nlam != other.nlam:
            raise ScalarModeError("rational and symbolic coefficients mixed")

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.n == other.n
                and self.nlam == other.nlam and self.terms == other.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_mode(other)
        out = dict(self.terms)
        for u, c in other.terms.items():
            if u in out:
                s = out[u] + c
                if _scalar_is_zero(s):
                    del out[u]
                else:
                    out[u] = s
            else:
                out[u] = c
        return LaurentPoly(self.n, out, self.nlam)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.n, {u: -c for u, c in self.terms.items()}, self.nlam)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_mode(other)
        out: dict[IntVec, Scalar] = {}
        for u1, c1 in self.terms.items():
            for u2, c2 in other.terms.items():
                u = tuple(a + b for a, b in zip(u1, u2))
                c = c1 * c2
                if u in out:
                    s = out[u] + c
                    if _scalar_is_zero(s):
                        del out[u]
                    else:
                        out[u] = s
                elif not _scalar_is_zero(c):
                    out[u] = c
        return LaurentPoly(self.n, out, self.nlam)

    def scalar_mul(self, c) -> "LaurentPoly":
        """Multiply by a Fraction (valid in both modes) or a LambdaPoly."""
        if isinstance(c, LambdaPoly):
            if self.nlam != c.nvars:
                raise ScalarModeError("symbolic scalar on a rational-mode polynomial")
            return LaurentPoly(self.n, {u: v * c for u, v in self.terms.items()}, self.nlam)
        if type(c) is not Fraction:
            c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero(self.n, self.nlam)
        if self.nlam is None:
            return LaurentPoly(self.n, {u: v * c for u, v in self.terms.items()}, None)
        return LaurentPoly(self.n, {u: v.scale(c) for u, v in self.terms.items()}, self.nlam)

    def shift(self, u: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial with exponent u."""
        u = tuple(int(x) for x in u)
        return LaurentPoly(self.n, {tuple(a + b for a, b in zip(w, u)): c
                                    for w, c in self.terms.items()}, self.nlam)

    def as_symbolic(self, nlam: int) -> "LaurentPoly":
        """Lift a rational-mode polynomial to symbolic mode with constant coefficients."""
        if self.nlam is not None:
            if self.nlam != nlam:
                raise ScalarModeError("already symbolic in a different number of parameters")
            return self
        return LaurentPoly(self.n, {u: LambdaPoly.const(c, nlam)
                                    for u, c in self.terms.items()}, nlam)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for u, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i + 1}^{p}" for i, p in enumerate(u) if p)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def build_f(config: PointConfig, lam: Sequence) -> LaurentPoly:
    """The Laurent polynomial sum of lam_j times the j-th point monomial."""
    if len(lam) != config.N:
        raise ValueError("need one coefficient per point")
    terms: dict[IntVec, Scalar] = {}
    for point, c in zip(config.points, lam):
        c = Fraction(c)
        if c == 0:
            continue
        terms[point] = terms.get(point, Fraction(0)) + c
    return LaurentPoly(config.n, terms, None)


def build_f_symbolic(config: PointConfig) -> LaurentPoly:
    """The same polynomial with the parameters kept as symbols."""
    terms: dict[IntVec, Scalar] = {}
    for j, point in enumerate(config.points, start=1):
        gen = LambdaPoly.gen(j, config.N)
        terms[point] = terms[point] + gen if point in terms else gen
    return LaurentPoly(config.n, terms, config.N)


def toric_derivative(i: int, p: LaurentPoly) -> LaurentPoly:
    """x_i d/dx_i in the exponent encoding: each term scales by its i-th exponent."""
    if not 1 <= i <= p.n:
        raise ValueError("derivative index out of range")
    out: dict[IntVec, Scalar] = {}
    for u, c in p.terms.items():
        k = u[i - 1]
        if k:
            if isinstance(c, LambdaPoly):
                out[u] = c.scale(k)
            else:
                out[u] = c * k
    return LaurentPoly(p.n, out, p.nlam)


def apply_D(i: int, alpha: ParameterVector, f: LaurentPoly, xi: LaurentPoly) -> LaurentPoly:
    """The twisted derivation in direction i applied to xi.

    Acts as x_i d/dx_i + alpha_i + (x_i df/dx_i) in the logarithmic basis; on
    a monomial with exponent u it gives (u_i + alpha_i) times the monomial
    plus the shifts by each point with its coefficient from f.  One pass over
    the terms of xi.
    """
    if not 1 <= i <= xi.n:
        raise ValueError("derivative index out of range")
    f._check_mode(xi)
    k = i - 1
    a = alpha.entries[k]
    scale = operator.mul if xi.nlam is None else LambdaPoly.scale
    # the terms of x_i df/dx_i
    df = [(v, scale(c, v[k])) for v, c in f.terms.items() if v[k]]
    out: dict[IntVec, Scalar] = {}
    for u, c in xi.terms.items():
        t = scale(c, u[k] + a)
        out[u] = out[u] + t if u in out else t
        for v, d in df:
            w = tuple(x + y for x, y in zip(u, v))
            t = d * c
            out[w] = out[w] + t if w in out else t
    return LaurentPoly(xi.n, out, xi.nlam)


def divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient p / q among Laurent polynomials, or None if q does not
    divide p.  Rational coefficient mode only.

    Monomials are units, so divisibility is decided after shifting both
    operands to ordinary polynomials; leading-term reduction under the
    lexicographic order then either terminates at zero or certifies
    non-divisibility.
    """
    if p.nlam is not None or q.nlam is not None:
        raise ScalarModeError("exact division needs specialized coefficients")
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.n)
    n = p.n
    shift_p = tuple(min(u[i] for u in p.terms) for i in range(n))
    shift_q = tuple(min(u[i] for u in q.terms) for i in range(n))
    num = {tuple(a - b for a, b in zip(u, shift_p)): c for u, c in p.terms.items()}
    den = {tuple(a - b for a, b in zip(u, shift_q)): c for u, c in q.terms.items()}
    lead_q = max(den)
    lead_qc = den[lead_q]
    quot: dict[IntVec, Fraction] = {}
    while num:
        lead_p = max(num)
        diff = tuple(a - b for a, b in zip(lead_p, lead_q))
        if any(d < 0 for d in diff):
            return None
        coeff = num[lead_p] / lead_qc
        quot[diff] = coeff
        for u, c in den.items():
            tgt = tuple(a + b for a, b in zip(u, diff))
            s = num.get(tgt, Fraction(0)) - coeff * c
            if s:
                num[tgt] = s
            else:
                num.pop(tgt, None)
    out_shift = tuple(a - b for a, b in zip(shift_p, shift_q))
    return LaurentPoly(n, {tuple(a + b for a, b in zip(u, out_shift)): c
                           for u, c in quot.items()})


class Support:
    """Predicate selecting which exponent vectors a module is allowed to use."""

    name = "support"

    def contains(self, u: IntVec) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class FullSupport(Support):
    """All of the exponent lattice."""

    def __init__(self, n: int):
        self.n = n
        self.name = "Z^n"

    def contains(self, u: IntVec) -> bool:
        return len(u) == self.n


class HalfSupport(Support):
    """Exponents with nonnegative last coordinate."""

    def __init__(self, n: int):
        self.n = n
        self.name = "R+"

    def contains(self, u: IntVec) -> bool:
        return u[-1] >= 0


class ConeSupport(Support):
    """The semigroup U0 of nonnegative integer combinations of the points.

    Each element is a sum of steps (points of positive facet weight h) of
    its own weight plus a vector of the lineality group (spanned by the
    points of weight zero).  A walk from the origin lists the sums of steps
    exactly, one weight layer at a time, so membership is exact.
    """

    def __init__(self, config: PointConfig):
        self.config = config
        self.name = "U0"
        self.hvec = newton_polytope(config).h
        self._steps = [(a, self.weight(a)) for a in config.points if self.weight(a) > 0]
        zero = [a for a in config.points if self.weight(a) == 0]
        self._span = [[a[i] for a in zero] for i in range(config.n)] if zero else None
        self._layers: list[set[IntVec]] = [{(0,) * config.n}]

    def weight(self, u: Sequence[int]) -> int:
        return sum(h * x for h, x in zip(self.hvec, u))

    def _layer(self, w: int) -> set[IntVec]:
        """The sums of steps of weight exactly w."""
        while len(self._layers) <= w:
            k = len(self._layers)
            self._layers.append({tuple(x + y for x, y in zip(s, a))
                                 for a, ha in self._steps if ha <= k
                                 for s in self._layers[k - ha]})
        return self._layers[w]

    def contains(self, u: IntVec) -> bool:
        w = self.weight(u)
        if w < 0:
            return False
        layer = self._layer(w)
        if tuple(u) in layer:
            return True
        # with no point of weight zero the lineality group is trivial
        return self._span is not None and any(
            solve_integer(self._span, [x - y for x, y in zip(u, s)]) is not None
            for s in layer)
