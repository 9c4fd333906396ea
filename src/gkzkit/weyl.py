"""Normal-ordered Weyl algebra in the parameters and their partials.

Elements are finite sums of c * lambda^e * del^b with exact rational c, all
lambda factors to the left of all del factors.  Products are normal ordered
through the commutator rule [del_j, lambda_j] = 1, applied per index:

    del_j^b lambda_j^e = sum_k k! C(b,k) C(e,k) lambda_j^{e-k} del_j^{b-k}.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Sequence

from .errors import NotARelationError
from .lattice import ParameterVector, PointConfig
from .laurent import LaurentPoly, apply_D, build_f_symbolic

IntVec = tuple[int, ...]
TermKey = tuple[IntVec, IntVec]


class WeylElement:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[TermKey, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[TermKey, Fraction] = {}
        if terms:
            for (e, b), c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[(tuple(e), tuple(b))] = c

    @staticmethod
    def zero(nvars: int) -> "WeylElement":
        return WeylElement(nvars)

    @staticmethod
    def const(value, nvars: int) -> "WeylElement":
        z = (0,) * nvars
        return WeylElement(nvars, {(z, z): Fraction(value)})

    @staticmethod
    def lam(j: int, nvars: int) -> "WeylElement":
        e = [0] * nvars
        e[j - 1] = 1
        return WeylElement(nvars, {(tuple(e), (0,) * nvars): Fraction(1)})

    @staticmethod
    def partial(j: int, nvars: int) -> "WeylElement":
        b = [0] * nvars
        b[j - 1] = 1
        return WeylElement(nvars, {((0,) * nvars, tuple(b)): Fraction(1)})

    @staticmethod
    def monomial(e: Sequence[int], b: Sequence[int], coeff=Fraction(1)) -> "WeylElement":
        e = tuple(int(x) for x in e)
        b = tuple(int(x) for x in b)
        return WeylElement(len(e), {(e, b): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return WeylElement(self.nvars, out)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return weyl_mul(self, other)

    def scale(self, c) -> "WeylElement":
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


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Exact product in normal order."""
    if a.nvars != b.nvars:
        raise ValueError("parameter count mismatch")
    n = a.nvars
    out: dict[TermKey, Fraction] = {}
    for (e1, b1), c1 in a.terms.items():
        for (e2, b2), c2 in b.terms.items():
            base = c1 * c2
            # commute del^{b1} past lambda^{e2}, one index at a time
            ranges = [range(min(p, q) + 1) for p, q in zip(b1, e2)]
            for k in itertools.product(*ranges):
                coeff = base
                for kj, pj, qj in zip(k, b1, e2):
                    if kj:
                        coeff *= factorial(kj) * comb(pj, kj) * comb(qj, kj)
                e = tuple(x + y - z for x, y, z in zip(e1, e2, k))
                d = tuple(x + y - z for x, y, z in zip(b1, b2, k))
                key = (e, d)
                s = out.get(key, Fraction(0)) + coeff
                if s:
                    out[key] = s
                else:
                    del out[key]
    return WeylElement(n, out)


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
    out = WeylElement(config.N, {(z, plus): Fraction(1)})
    return out - WeylElement(config.N, {(z, minus): Fraction(1)})


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
            out = out + WeylElement(n, {(tuple(e), tuple(b)): Fraction(coeff)})
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
    terms: dict[IntVec, Fraction] = {}
    for (e, b), c in w.terms.items():
        key = tuple(sum(bj * a[i] for bj, a in zip(b, config.points))
                    for i in range(config.n)) + e
        terms[key] = terms[key] + c if key in terms else c
    return LaurentPoly(config.n, terms, config.N)


def lambda_derivative(p: LaurentPoly, j: int) -> LaurentPoly:
    """d/dlambda_j of p: lowers key coordinate n + j - 1."""
    if not 1 <= j <= p.nlam:
        raise ValueError("parameter index out of range")
    k = p.n + j - 1
    return LaurentPoly(p.n, {u[:k] + (u[k] - 1,) + u[k + 1:]: c * u[k]
                             for u, c in p.terms.items() if u[k]}, p.nlam)


def check_phi_kills_box(config: PointConfig, t: WeylElement, l: Sequence[int]) -> bool:
    """phi annihilates left multiples of box operators."""
    return phi_map(weyl_mul(t, box_operator(config, l)), config).is_zero()


def check_phi_intertwines(w: WeylElement, i: int, alpha: ParameterVector,
                          config: PointConfig) -> bool:
    """The two transport identities for phi, checked with symbolic parameters.

    (a) Right multiplication by the Euler operator (with the parameter sign
        flipped, matching the Euler sign convention) maps to the twisted
        derivation:  phi(w . Z_{i,-alpha}) = D_{i,alpha}(phi(w)).
    (b) Left multiplication by del_j maps to the parameter derivative plus
        multiplication by the j-th point monomial.
    """
    f = build_f_symbolic(config)
    img = phi_map(w, config)

    lhs_a = phi_map(weyl_mul(w, euler_operator(config, i, alpha.negate())), config)
    rhs_a = apply_D(i, alpha, f, img)
    if lhs_a != rhs_a:
        return False

    for j in range(1, config.N + 1):
        lhs_b = phi_map(weyl_mul(WeylElement.partial(j, config.N), w), config)
        rhs_b = lambda_derivative(img, j) + img.shift(config.points[j - 1])
        if lhs_b != rhs_b:
            return False
    return True

