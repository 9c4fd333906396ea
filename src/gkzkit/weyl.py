"""Normal-ordered Weyl algebra in the parameters and their partials.

Elements are finite sums of c * lambda^e * del^b with exact rational c, all
lambda factors to the left of all del factors; integer coefficients are
kept as ints, so integer elements multiply over Z.  Products are normal
ordered through the commutator rule [del_j, lambda_j] = 1, applied per
index:

    del_j^b lambda_j^e = sum_k k! C(b,k) C(e,k) lambda_j^{e-k} del_j^{b-k}.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from operator import add, mul
from typing import NamedTuple, Sequence

from .derham import clearing_scale
from .errors import NotARelationError
from .lattice import ParameterVector, PointConfig
from .laurent import (LaurentPoly, TwistedDerivations, apply_D, build_f_symbolic,
                      int_if_integral)

IntVec = tuple[int, ...]
TermKey = tuple[IntVec, IntVec]


class WeylElement:
    """Finite map from (e, b) to the nonzero int or Fraction coefficient of
    lambda^e del^b; any other number is converted to a Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[TermKey, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[TermKey, Fraction] = {}
        if terms:
            for (e, b), c in terms.items():
                if type(c) is not int and type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[(tuple(e), tuple(b))] = c

    @staticmethod
    def zero(nvars: int) -> "WeylElement":
        return WeylElement(nvars)

    @staticmethod
    def const(value, nvars: int) -> "WeylElement":
        z = (0,) * nvars
        return WeylElement(nvars, {(z, z): value})

    @staticmethod
    def lam(j: int, nvars: int) -> "WeylElement":
        e = [0] * nvars
        e[j - 1] = 1
        return WeylElement(nvars, {(tuple(e), (0,) * nvars): 1})

    @staticmethod
    def partial(j: int, nvars: int) -> "WeylElement":
        b = [0] * nvars
        b[j - 1] = 1
        return WeylElement(nvars, {((0,) * nvars, tuple(b)): 1})

    @staticmethod
    def monomial(e: Sequence[int], b: Sequence[int], coeff=1) -> "WeylElement":
        e = tuple(int(x) for x in e)
        b = tuple(int(x) for x in b)
        return WeylElement(len(e), {(e, b): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return WeylElement(self.nvars, out)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        return WeylElement(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (e, b), c in sorted(self.terms.items()):
            mono = []
            for j, p in enumerate(e):
                if p:
                    mono.append(f"l{j + 1}" + (f"^{p}" if p > 1 else ""))
            for j, p in enumerate(b):
                if p:
                    mono.append(f"d{j + 1}" + (f"^{p}" if p > 1 else ""))
            body = "*".join(mono)
            bits.append(f"{c}" + (f"*{body}" if body else ""))
        return " + ".join(bits)


def _mul_terms(left: dict[TermKey, Fraction],
               right: dict[TermKey, Fraction]) -> dict[TermKey, Fraction]:
    """The term map of the normal-ordered product, zeros not yet dropped."""
    out: dict[TermKey, Fraction] = {}
    for (e1, b1), c1 in left.items():
        for (e2, b2), c2 in right.items():
            base = c1 * c2
            e = tuple(map(add, e1, e2))
            b = tuple(map(add, b1, b2))
            # commute del^{b1} past lambda^{e2} on the indices where both occur
            both = [(j, p, q) for j, (p, q) in enumerate(zip(b1, e2)) if p and q]
            if not both:
                out[(e, b)] = out[(e, b)] + base if (e, b) in out else base
                continue
            for ks in itertools.product(*(range(min(p, q) + 1) for _, p, q in both)):
                coeff = base
                ek, bk = list(e), list(b)
                for kj, (j, p, q) in zip(ks, both):
                    if kj:
                        coeff *= factorial(kj) * comb(p, kj) * comb(q, kj)
                        ek[j] -= kj
                        bk[j] -= kj
                key = (tuple(ek), tuple(bk))
                out[key] = out[key] + coeff if key in out else coeff
    return out


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Exact product in normal order."""
    if a.nvars != b.nvars:
        raise ValueError("parameter count mismatch")
    return WeylElement(a.nvars, _mul_terms(a.terms, b.terms))


def box_operator(config: PointConfig, l: Sequence[int]) -> WeylElement:
    """Difference of partial-derivative monomials attached to a lattice relation."""
    l = tuple(int(x) for x in l)
    if len(l) != config.N:
        raise NotARelationError("relation length must match the number of points")
    for i in range(config.n):
        if sum(l[j] * config.points[j][i] for j in range(config.N)) != 0:
            raise NotARelationError(f"{l} is not a relation of the configuration")
    plus = tuple(max(x, 0) for x in l)
    minus = tuple(max(-x, 0) for x in l)
    z = (0,) * config.N
    return WeylElement(config.N, {(z, plus): 1}) - WeylElement(config.N, {(z, minus): 1})


def euler_operator(config: PointConfig, i: int, alpha: ParameterVector) -> WeylElement:
    """The i-th Euler operator: sum_j a_i(j) lambda_j del_j minus alpha_i."""
    if not 1 <= i <= config.n:
        raise ValueError("index out of range")
    n = config.N
    out = WeylElement.const(-alpha.entries[i - 1], n)
    for j, point in enumerate(config.points, start=1):
        coeff = point[i - 1]
        if coeff:
            e = [0] * n
            b = [0] * n
            e[j - 1] = 1
            b[j - 1] = 1
            out = out + WeylElement(n, {(tuple(e), tuple(b)): coeff})
    return out


class CommutationCheck(NamedTuple):
    ok: bool
    beta: ParameterVector
    residual: WeylElement


def box_shift(config: PointConfig, l: Sequence[int]) -> tuple[int, ...]:
    """The lattice vector sum over positive relation entries of l_j a(j)."""
    return tuple(sum(max(l[j], 0) * config.points[j][i] for j in range(config.N))
                 for i in range(config.n))


def check_commutation(config: PointConfig, l: Sequence[int], i: int,
                      alpha: ParameterVector,
                      beta: ParameterVector | None = None) -> CommutationCheck:
    """Verify the box operator shifts the Euler parameter.

    The exact identity, for the Euler sign convention used here, is

        box_l . Z_{i,alpha} = Z_{i,beta} . box_l,  beta = alpha - shift(l),

    where shift(l) sums l_j a(j) over the positive entries of l.  Passing an
    explicit beta overrides the computed one (useful as a negative control).
    """
    box = box_operator(config, l)
    if beta is None:
        shift = box_shift(config, l)
        beta = ParameterVector(tuple(a - s for a, s in zip(alpha.entries, shift)))
    lhs = weyl_mul(box, euler_operator(config, i, alpha))
    rhs = weyl_mul(euler_operator(config, i, beta), box)
    residual = lhs - rhs
    return CommutationCheck(ok=residual.is_zero(), beta=beta, residual=residual)


def phi_map(w: WeylElement, config: PointConfig) -> LaurentPoly:
    """Parameter-linear image of a Weyl element among Laurent polynomials.

    Each normal-ordered term c lambda^e del^b maps to c lambda^e x^u with
    u = sum_j b_j a(j): the key u + e, the parameters kept as symbols.
    """
    if w.nvars != config.N:
        raise ValueError("parameter count mismatch")
    return LaurentPoly._of(config.n, _phi_terms(w.terms, list(zip(*config.points))),
                           config.N)


def _phi_terms(terms: dict[TermKey, Fraction],
               columns: list[IntVec]) -> dict[IntVec, Fraction]:
    """The nonzero terms of the image under phi, for the columns
    (a_i(1), ..., a_i(N)), i = 1..n, of the configuration."""
    out: dict[IntVec, Fraction] = {}
    for (e, b), c in terms.items():
        key = tuple(sum(map(mul, b, col)) for col in columns) + e
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def lambda_derivative(p: LaurentPoly, j: int) -> LaurentPoly:
    """d/dlambda_j of p: lowers key coordinate n + j - 1."""
    if not 1 <= j <= p.nlam:
        raise ValueError("parameter index out of range")
    k = p.n + j - 1
    return LaurentPoly._of(p.n, {u[:k] + (u[k] - 1,) + u[k + 1:]: c * u[k]
                                 for u, c in p.terms.items() if u[k]}, p.nlam)


def check_phi_kills_box(config: PointConfig, t: WeylElement, l: Sequence[int]) -> bool:
    """phi annihilates left multiples of box operators."""
    return phi_map(weyl_mul(t, box_operator(config, l)), config).is_zero()


class PhiTables:
    """The operators of ``check_phi_intertwines`` for one (config, alpha),
    built once by a check that runs on many elements: the configuration,
    the term maps of d Z_{i,-alpha}, i = 1..n, and of del_j, j = 1..N, and
    the twisted derivations ``TwistedDerivations(alpha, f, d)`` of the
    symbolic f, d the lcm of the denominators of alpha.  The tables are
    integral, so integer elements have integer images on both sides.  The
    identity battery runs its torus checks on the same derivations.

    ``transported`` holds the elements, as ``frozenset(w.terms.items())``,
    whose identity (b) has held: (b) does not involve i, so a battery that
    checks each element for every i checks (b) once per element."""

    __slots__ = ("config", "columns", "euler", "partials", "derivations", "transported")

    def __init__(self, config: PointConfig, alpha: ParameterVector):
        self.config = config
        f = build_f_symbolic(config)
        d = clearing_scale(alpha, f)
        self.columns = list(zip(*config.points))
        self.euler = [{k: int_if_integral(c * d) for k, c in
                       euler_operator(config, i, alpha.negate()).terms.items()}
                      for i in range(1, config.n + 1)]
        self.partials = [WeylElement.partial(j, config.N).terms
                         for j in range(1, config.N + 1)]
        self.derivations = TwistedDerivations(alpha, f, d)
        self.transported: set[frozenset] = set()


def check_phi_intertwines(w: WeylElement, i: int, tables: PhiTables) -> bool:
    """The two transport identities for phi, checked with symbolic parameters.

    (a) Right multiplication by the Euler operator (with the parameter sign
        flipped, matching the Euler sign convention) maps to the twisted
        derivation:  phi(w . Z_{i,-alpha}) = D_{i,alpha}(phi(w)).
    (b) Left multiplication by del_j maps to the parameter derivative plus
        multiplication by the j-th point monomial.

    Identity (a) is checked scaled by d, the lcm of the denominators of
    alpha: phi(w . d Z_{i,-alpha}) = d D_{i,alpha}(phi(w)).  phi and the
    product are linear, so the scaled sides are d times the unscaled ones,
    and as d is nonzero they agree exactly when those do; on an integer w
    every coefficient is an integer.  ``tables`` are the
    ``PhiTables(config, alpha)``; identity (b) is skipped for an element
    whose (b) the tables have recorded as holding.
    """
    config = tables.config
    img = phi_map(w, config)
    if not 1 <= i <= config.n:
        raise ValueError("index out of range")

    columns = tables.columns
    lhs_a = _phi_terms(_mul_terms(w.terms, tables.euler[i - 1]), columns)
    rhs_a = apply_D(tables.derivations, i, img)
    if lhs_a != rhs_a.terms:
        return False

    key = frozenset(w.terms.items())
    if key in tables.transported:
        return True
    for j, (partial, point) in enumerate(zip(tables.partials, config.points), 1):
        lhs_b = _phi_terms(_mul_terms(partial, w.terms), columns)
        rhs_b = lambda_derivative(img, j) + img.shift(point)
        if lhs_b != rhs_b.terms:
            return False
    tables.transported.add(key)
    return True
