"""Twisted logarithmic de Rham complexes on the torus: the identity battery.

Forms are written in the logarithmic basis dx_{i1}/x_{i1} ^ ... ^
dx_{ik}/x_{ik}, so the twisted differential acts through
``TwistedDerivations`` with wedge-sign bookkeeping.  The checks here verify
symbolically that it squares to zero, that monomial twists conjugate it and
that the facet contractions are homotopies; the ranks read off Newton
windows live in ``window``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ScalarModeError
from .lattice import FacetForm, ParameterVector
from .laurent import (LaurentPoly, TwistedDerivations, _add_scaled, int_if_integral,
                      lazy_exports)

IntVec = tuple[int, ...]
IndexTuple = tuple[int, ...]

# the benchmark tracer (bench/traced_job.py) finds these names in this
# module; the identity battery never asks for them, so it loads no window code
__getattr__ = lazy_exports(__name__, "window", ("CohomologyWindow", "generic_rank",
                                                "quasi_iso_check", "top_cohomology_dim"))


class LogForm:
    """Degree-k form: map from strictly increasing 1-based index tuples to
    coefficient Laurent polynomials, all with ``nlam`` symbolic parameters."""

    __slots__ = ("n", "degree", "nlam", "components")

    def __init__(self, n: int, degree: int,
                 components: dict[IndexTuple, LaurentPoly] | None = None,
                 nlam: int = 0):
        if not 0 <= degree <= n:
            raise ValueError("degree out of range")
        self.n = n
        self.degree = degree
        self.nlam = nlam
        self.components: dict[IndexTuple, LaurentPoly] = {}
        if components:
            for idx, poly in components.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad index tuple {idx}")
                if any(not 1 <= i <= n for i in idx):
                    raise ValueError(f"index out of range in {idx}")
                if poly.nlam != nlam:
                    raise ValueError("component coefficient mode mismatch")
                if not poly.is_zero():
                    self.components[idx] = poly

    @classmethod
    def _of(cls, n: int, degree: int, components: dict[IndexTuple, LaurentPoly],
            nlam: int = 0) -> "LogForm":
        """The form with the nonzero components of a map the package built
        itself: sorted index tuples of length degree, coefficients with
        ``nlam`` parameters.  Only zero components are dropped; nothing is
        re-checked, so user input goes through the constructor."""
        form = cls.__new__(cls)
        form.n = n
        form.degree = degree
        form.nlam = nlam
        form.components = {idx: p for idx, p in components.items() if p.terms}
        return form

    @staticmethod
    def zero(n: int, degree: int, nlam: int = 0) -> "LogForm":
        return LogForm(n, degree, {}, nlam)

    @staticmethod
    def from_monomial(u: Sequence[int], idx: Sequence[int], n: int,
                      coeff=1, nlam: int = 0) -> "LogForm":
        poly = LaurentPoly.monomial(u, coeff, nlam)
        return LogForm(n, len(tuple(idx)), {tuple(idx): poly}, nlam)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (isinstance(other, LogForm) and self.n == other.n
                and self.degree == other.degree and self.nlam == other.nlam
                and self.components == other.components)

    def __add__(self, other: "LogForm") -> "LogForm":
        if (self.n, self.degree, self.nlam) != (other.n, other.degree, other.nlam):
            raise ValueError("form shape mismatch")
        out = dict(self.components)
        for idx, poly in other.components.items():
            s = out[idx] + poly if idx in out else poly
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return LogForm._of(self.n, self.degree, out, self.nlam)

    def scale(self, c) -> "LogForm":
        return LogForm._of(self.n, self.degree,
                           {idx: p.scalar_mul(c) for idx, p in self.components.items()},
                           self.nlam)

    def mul_monomial(self, u: Sequence[int]) -> "LogForm":
        return LogForm._of(self.n, self.degree,
                           {idx: p.shift(u) for idx, p in self.components.items()},
                           self.nlam)

    def __repr__(self) -> str:
        if not self.components:
            return "0"
        return " + ".join(f"[{p}] w{list(idx)}" for idx, p in sorted(self.components.items()))


def wedge_insert(i: int, idx: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Sign and sorted tuple for dx_i/x_i wedged in front of the tuple idx."""
    if i in idx:
        return None
    pos = sum(1 for j in idx if j < i)
    sign = -1 if pos % 2 else 1
    return sign, tuple(sorted(idx + (i,)))


def _form(n: int, degree: int, acc: dict[IndexTuple, dict[IntVec, Fraction]],
          nlam: int) -> LogForm:
    """The form whose components have the accumulated term maps of acc."""
    return LogForm._of(n, degree, {idx: LaurentPoly._of(n, terms, nlam)
                                   for idx, terms in acc.items()}, nlam)


def nabla(derivations: TwistedDerivations, omega: LogForm) -> LogForm:
    """The twisted differential of ``derivations`` in the logarithmic basis,
    scaled as they are."""
    n = omega.n
    f = derivations.f
    if (f.n, f.nlam) != (n, omega.nlam):
        raise ScalarModeError("a form and f of different (n, nlam)")
    if omega.degree == n:
        # there are no forms of degree n + 1
        return LogForm.zero(n, n, omega.nlam)
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for idx, xi in omega.components.items():
        for i in range(1, n + 1):
            ins = wedge_insert(i, idx)
            if ins is not None:
                sign, target = ins
                derivations.add_to(acc.setdefault(target, {}), i, xi, sign)
    return _form(n, omega.degree + 1, acc, omega.nlam)


def clearing_scale(alpha: ParameterVector, f: LaurentPoly) -> int:
    """The least common multiple of the denominators of alpha and of the
    coefficients of f.

    Scaled by it, the twisted derivations have integer coefficients, so the
    identity checks, each homogeneous in nabla, compute over the integers
    on integer samples and reach the verdicts of the unscaled operator.
    """
    return math.lcm(*(a.denominator for a in alpha.entries),
                    *(c.denominator for c in f.terms.values()))


def differentials(derivations: TwistedDerivations,
                  samples: Sequence[LogForm]) -> list[LogForm]:
    """nabla omega on ``derivations`` for each sample omega: the first
    differential of each sample, which ``check_complex`` and
    ``homotopy_identity_check`` take as given, so a caller that runs both
    on the same samples computes it once."""
    return [nabla(derivations, omega) for omega in samples]


def check_complex(derivations: TwistedDerivations, first: Sequence[LogForm]) -> bool:
    """nabla composed with itself vanishes on every sample: nabla on
    ``derivations`` vanishes on each form of ``first``, the samples'
    ``differentials``.

    The samples that decide it for every Laurent form are the monomial
    forms with exponents in ``principal_lattice(n, 2)``, the u >= 0 with
    |u|_1 <= 2.  A derivation D_i takes x^u to (u_i + alpha_i) x^u plus the
    shifts x^(u + v) by the terms of f, each coefficient affine in u; so
    nabla squared takes x^u dx_I to a sum over finitely many shifts v, fixed
    by f, of P_v(u) x^(u + v), each P_v a sum of products of two affine
    factors: a polynomial of total degree at most 2 in u.  Distinct shifts
    give distinct monomials, so a residual that vanishes on the samples
    makes every P_v vanish on the lattice, which is unisolvent for total
    degree 2, so every P_v is zero.  The identity then holds on every
    monomial form, and, nabla being linear, on every Laurent form.
    """
    return all(nabla(derivations, eta).is_zero() for eta in first)


def twist_conjugation_check(derivations: TwistedDerivations, u: Sequence[int],
                            samples: Sequence[LogForm]) -> bool:
    """Multiplication by the monomial x^u conjugates the twist shifted by u
    to the original one, the twist of ``derivations``.

    Each side applies one derivation, with coefficients affine in v, so on
    x^v dx_I the residual has, per target monomial, a coefficient of total
    degree at most 1 in v: the samples with v in ``principal_lattice(n,
    1)``, 0 and the unit vectors, decide the identity for the twist u on
    every form of their degrees (``check_complex``)."""
    # an integer shift keeps the denominators of alpha, so the scale clears them
    shifted = TwistedDerivations(derivations.alpha.shift(u), derivations.f,
                                 derivations.scale)
    return all(nabla(shifted, omega).mul_monomial(u)
               == nabla(derivations, omega.mul_monomial(u)) for omega in samples)


def homotopy_identity_check(facets: Sequence[FacetForm],
                            derivations: TwistedDerivations,
                            samples: Sequence[LogForm],
                            first: Sequence[LogForm]) -> FacetForm | None:
    """The contraction against each facet form is a homotopy for
    multiplication by the facet value; ``first`` holds the samples'
    ``differentials`` on ``derivations``.

    On a monomial form with exponent u the anticommutator of the twisted
    differential and the contraction rho_ell against ell multiplies by
    ell(alpha + u) and shifts by each term c x^a of f weighted with
    c ell(a); on ``build_f_symbolic(config)`` the term of the j-th point is
    lambda_j x^a(j), so the identity is checked with symbolic parameters.
    Both sides are scaled by the scale d of the derivations: (d nabla) rho
    + rho (d nabla) is d times the right-hand side, and with d the
    ``clearing_scale`` every coefficient is an integer on integer samples.

    Every term of the residual, lhs minus rhs, is linear in ell, so one pass
    per sample builds the unit residuals R_i of ell = e_i, and the residual
    of a facet is the ell_i-weighted sum of the R_i.  The given differential
    of the sample is contracted against every e_i; the differentials of the
    forms that drop one index of the sample go straight into the term maps
    of the R_i.  The right-hand side is read off the alpha and the terms of
    f the derivations were built from, not off the tables the differential
    runs on.  When every R_i vanishes, every facet holds on the sample;
    otherwise the live facets are combined in order.  Returns the first
    facet, in the given order, on which the identity fails, or None.

    As for ``check_complex``, the monomial forms with exponents in
    ``principal_lattice(n, 1)``, 0 and the unit vectors, decide the identity
    for every Laurent form.  The residual applies one derivation, with
    coefficients affine in u, and subtracts ell(alpha + u) and the weights
    of the shifts, so on x^u dx_I its coefficient at each shift x^(u + v)
    is a polynomial in u of total degree at most 1.  Distinct shifts give
    distinct monomials, such a polynomial that vanishes on the lattice is
    zero, and both sides are linear in the form.
    """
    facets = list(facets)
    f, d = derivations.f, derivations.scale
    n, N = f.n, f.nlam
    # per direction i: d alpha_i and, for the j-th term c x^a of f with
    # a_i != 0, its position j and the weight d c a_i of its shift; the
    # first n coordinates of a key are a
    rhs = [(int_if_integral(d * a),
            [(j, d * key[i] * c) for j, (key, c) in enumerate(f.terms.items()) if key[i]])
           for i, a in enumerate(derivations.alpha.entries[:n])]
    # facets[:live] have held on every sample so far; a failure cuts the rest
    live = len(facets)
    for k, omega in enumerate(samples):
        if not live:
            break
        if (omega.n, omega.nlam) != (n, N):
            raise ScalarModeError("a form and f of different (n, nlam)")
        units: list[dict[IndexTuple, dict[IntVec, Fraction]]] = [{} for _ in range(n)]
        if omega.degree < n:
            # rho_{e_i} nabla omega
            for idx, p in first[k].components.items():
                for pos, i in enumerate(idx):
                    _add_scaled(units[i - 1].setdefault(idx[:pos] + idx[pos + 1:], {}),
                                p, -1 if pos % 2 else 1)
        for idx, xi in omega.components.items():
            # nabla rho_{e_i} omega, one dropped index at a time
            for pos, i in enumerate(idx):
                dropped = idx[:pos] + idx[pos + 1:]
                out = units[i - 1]
                for j in range(1, n + 1):
                    ins = wedge_insert(j, dropped)
                    if ins is not None:
                        sign, target = ins
                        derivations.add_to(out.setdefault(target, {}), j, xi,
                                           -sign if pos % 2 else sign)
            # minus e_i(alpha + u) x^u and the shifts by the terms of f
            for u, c in xi.terms.items():
                shifted = [tuple(map(operator.add, u, key)) for key in f.terms]
                for i, (d_alpha, weights) in enumerate(rhs):
                    out = units[i].setdefault(idx, {})
                    t = c * (d_alpha + d * u[i])
                    out[u] = out[u] - t if u in out else -t
                    for j, weight in weights:
                        w = shifted[j]
                        t = c * weight
                        out[w] = out[w] - t if w in out else -t
        if not any(any(terms.values()) for acc in units for terms in acc.values()):
            continue
        for pos, ell in enumerate(facets[:live]):
            residual: dict[tuple[IndexTuple, IntVec], Fraction] = {}
            for weight, acc in zip(ell.coeffs, units):
                if weight:
                    for idx, terms in acc.items():
                        for u, c in terms.items():
                            key = (idx, u)
                            residual[key] = residual.get(key, 0) + weight * c
            if any(residual.values()):
                live = pos
                break
    return facets[live] if live < len(facets) else None


def principal_lattice(n: int, degree: int) -> list[IntVec]:
    """The exponents u >= 0 with |u|_1 <= degree, listed by |u|_1, so the
    lattice of a lower degree leads the list.

    For degree <= 2 a polynomial in u of total degree at most ``degree``
    that vanishes on it is zero (it is unisolvent; Nicolaides, SIAM J.
    Numer. Anal. 9, 1972).  By induction on n: P(u', 0) vanishes on the
    lattice in n - 1 variables, so it is zero and P = u_n Q; then Q(u', 1)
    vanishes on the lattice of degree - 1 in n - 1 variables, so it is zero
    too, and P = c u_n (u_n - 1) with c a constant, zero when degree is 1;
    at u = 2 e_n, P = 2c, so c = 0.  The lattice has binomial(n +
    degree, n) points: 3, 6, 10 for degree 2 and 2, 3, 4 for degree 1 in
    one, two and three variables.
    """
    return sorted((u for u in itertools.product(range(degree + 1), repeat=n)
                   if sum(u) <= degree), key=sum)


def enumerate_monomial_forms(exponents: Iterable[IntVec], degrees: Sequence[int],
                             nlam: int = 0) -> list[LogForm]:
    """Every monomial form x^u dx_I with u in ``exponents`` and I of a degree
    in ``degrees``, every index tuple of u before the next exponent."""
    out = []
    for u in exponents:
        n = len(u)
        for k in degrees:
            for idx in itertools.combinations(range(1, n + 1), k):
                out.append(LogForm.from_monomial(u, idx, n, nlam=nlam))
    return out
