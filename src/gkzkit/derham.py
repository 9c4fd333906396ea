"""Twisted logarithmic de Rham complexes on the torus and their truncations.

Forms are written in the logarithmic basis dx_{i1}/x_{i1} ^ ... ^
dx_{ik}/x_{ik}, so the twisted differential acts through
``TwistedDerivations`` with wedge-sign bookkeeping.  Top cohomology
dimensions are computed by exact linear algebra on Newton windows, one shape
for every support and every cone, checked at two consecutive bounds; a
failure to stabilize is an explicit outcome.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import NotStabilizedError, ScalarModeError
from .intmat import integer_kernel
from .lattice import (FacetForm, ParameterVector, PointConfig, is_nonresonant,
                      newton_polytope)
from .laurent import (LaurentPoly, Support, TwistedDerivations,
                      build_f_symbolic, int_if_integral)
from .linalg import RationalEchelon

IntVec = tuple[int, ...]
IndexTuple = tuple[int, ...]


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

    def __neg__(self) -> "LogForm":
        return LogForm._of(self.n, self.degree,
                           {idx: -p for idx, p in self.components.items()}, self.nlam)

    def __sub__(self, other: "LogForm") -> "LogForm":
        return self + (-other)

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


def _add_scaled(out: dict[IntVec, Fraction], p: LaurentPoly, factor) -> None:
    """Add factor times p into the term map out; factor is a nonzero integer
    or Fraction."""
    for u, c in p.terms.items():
        if factor != 1:
            c = c * factor
        out[u] = out[u] + c if u in out else c


def _form(n: int, degree: int, acc: dict[IndexTuple, dict[IntVec, Fraction]],
          nlam: int) -> LogForm:
    """The form whose components have the accumulated term maps of acc."""
    return LogForm._of(n, degree, {idx: LaurentPoly._of(n, terms, nlam)
                                   for idx, terms in acc.items()}, nlam)


def nabla(alpha: ParameterVector, f: LaurentPoly, omega: LogForm,
          scale: int = 1, derivations: TwistedDerivations | None = None) -> LogForm:
    """scale times the twisted differential in the logarithmic basis.  A
    check that applies it to many forms builds ``derivations``, the
    ``TwistedDerivations(alpha, f, scale)``, once and passes it."""
    n = omega.n
    derivations = derivations or TwistedDerivations(alpha, f, scale)
    if (derivations.n, derivations.nlam) != (n, omega.nlam):
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


def check_complex(alpha: ParameterVector, f: LaurentPoly,
                  samples: Sequence[LogForm]) -> bool:
    """nabla composed with itself vanishes on every sample.

    The samples that decide it for every Laurent form are the monomial
    forms with exponents in {-1, 0, 1}^n.  A derivation D_i takes x^u to
    (u_i + alpha_i) x^u plus the shifts x^(u + v) by the terms of f, each
    coefficient affine in u; so nabla squared takes x^u dx_I to a sum over
    finitely many shifts v, fixed by f, of P_v(u) x^(u + v), each P_v a
    polynomial of degree at most 2 in each coordinate of u.  Distinct shifts
    give distinct monomials, so a residual that vanishes on the box makes
    every P_v vanish on {-1, 0, 1}^n, and a polynomial of degree at most 2 in
    each variable that vanishes on a grid of three values per variable is
    zero (Alon, Combinatorial Nullstellensatz, Combin. Probab. Comput. 8,
    1999, Lemma 2.1).  The identity then holds on every monomial form, and,
    nabla being linear, on every Laurent form.
    """
    d = clearing_scale(alpha, f)
    dd = TwistedDerivations(alpha, f, d)
    for omega in samples:
        if not nabla(alpha, f, nabla(alpha, f, omega, d, dd), d, dd).is_zero():
            return False
    return True


def twist_conjugation_check(alpha: ParameterVector, u: Sequence[int],
                            f: LaurentPoly, samples: Sequence[LogForm]) -> bool:
    """Multiplication by the monomial x^u conjugates the shifted twist to the
    original one.

    Each side applies one derivation, so on x^v dx_I the residual has, per
    target monomial, a coefficient of degree at most 1 in each coordinate
    of v: the samples with v in {-1, 0, 1}^n decide the identity for the
    twist u on every form of their degrees (``check_complex``)."""
    shifted = alpha.shift(u)
    # an integer shift keeps the denominators of alpha
    d = clearing_scale(alpha, f)
    dd_shifted = TwistedDerivations(shifted, f, d)
    dd = TwistedDerivations(alpha, f, d)
    for omega in samples:
        lhs = nabla(shifted, f, omega, d, dd_shifted).mul_monomial(u)
        rhs = nabla(alpha, f, omega.mul_monomial(u), d, dd)
        if lhs != rhs:
            return False
    return True


def homotopy_identity_check(facets: Sequence[FacetForm], alpha: ParameterVector,
                            config: PointConfig,
                            samples: Sequence[LogForm]) -> FacetForm | None:
    """The contraction against each facet form is a homotopy for
    multiplication by the facet value.

    On a monomial form with exponent u the anticommutator of the twisted
    differential and the contraction rho_ell against ell multiplies by
    ell(alpha + u) and shifts by each point weighted with lambda_j ell(a(j));
    checked exactly with symbolic parameters.  Both sides are scaled by the
    clearing scale d of alpha: (d nabla) rho + rho (d nabla) is d times the
    right-hand side, and every coefficient is an integer on integer samples.

    Every term of the residual, lhs minus rhs, is linear in ell, so one pass
    per sample builds the unit residuals R_i of ell = e_i, and the residual
    of a facet is the ell_i-weighted sum of the R_i.  The differential of the
    sample is taken once and contracted against every e_i; the differentials
    of the forms that drop one index of the sample go straight into the term
    maps of the R_i.  The right-hand side is read off alpha and the keys of
    f, not off the derivation tables the differential runs on.  When every
    R_i vanishes, every facet holds on the sample; otherwise the live facets
    are combined in order.  Returns the first facet, in the given order, on
    which the identity fails, or None.

    As for ``check_complex``, the monomial forms with exponents in
    {-1, 0, 1}^n decide the identity for every Laurent form.  The residual
    applies one derivation, with coefficients affine in u, and subtracts
    ell(alpha + u) and the weights of the shifts, so on x^u dx_I its
    coefficient at each shift x^(u + v) is a polynomial in u of degree at
    most 1 in each coordinate.  Such a polynomial that vanishes on the box
    is zero (Alon, Combinatorial Nullstellensatz, Combin. Probab. Comput. 8,
    1999, Lemma 2.1; two values per coordinate already suffice), and both
    sides are linear in the form.
    """
    facets = list(facets)
    f = build_f_symbolic(config)
    n, N = config.n, config.N
    d = clearing_scale(alpha, f)
    dd = TwistedDerivations(alpha, f, d)
    # per direction i: d alpha_i and, for each term lambda_j x^a(j) of f with
    # a(j)_i != 0, its position j and the weight d a(j)_i of its shift; the
    # first n coordinates of a key are a(j)
    rhs = [(int_if_integral(d * a),
            [(j, d * key[i]) for j, key in enumerate(f.terms) if key[i]])
           for i, a in enumerate(alpha.entries)]
    # facets[:live] have held on every sample so far; a failure cuts the rest
    live = len(facets)
    for omega in samples:
        if not live:
            break
        if omega.nlam != N:
            raise ValueError("samples must carry symbolic coefficients")
        units: list[dict[IndexTuple, dict[IntVec, Fraction]]] = [{} for _ in range(n)]
        if omega.degree < n:
            # rho_{e_i} nabla omega
            for idx, p in nabla(alpha, f, omega, d, dd).components.items():
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
                        dd.add_to(out.setdefault(target, {}), j, xi,
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


class RankReport:
    """Outcome of a truncated top-cohomology dimension computation.

    dims are the window quotient dimensions at bounds B-1 and B.  The result
    counts as stabilized when the two agree; the reported dimension is the
    one at B.

    ``top`` holds the bound-B window and its echelon, which quasi_iso_check
    reduces against; it is None on the complement side and on hand-built
    reports, and equality and repr leave it out.
    """

    __slots__ = ("complex_id", "alpha", "lam", "bound", "dims", "warnings", "top")

    def __init__(self, complex_id: str, alpha: ParameterVector,
                 lam: tuple[Fraction, ...], bound: int, dims: tuple[int, int],
                 warnings: tuple[str, ...] = (),
                 top: tuple[CohomologyWindow, RationalEchelon] | None = None):
        self.complex_id = complex_id
        self.alpha = alpha
        self.lam = lam
        self.bound = bound
        self.dims = dims
        self.warnings = warnings
        self.top = top

    def _compared(self) -> tuple:
        return (self.complex_id, self.alpha, self.lam, self.bound, self.dims,
                self.warnings)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RankReport:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._compared()))
        return f"RankReport({fields})"

    def replace(self, **changes) -> "RankReport":
        """A copy with the given fields changed; ``top`` is kept unless given."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return RankReport(**values)

    @property
    def stabilized(self) -> bool:
        return self.dims[0] == self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[1]

    def to_json(self) -> dict:
        return {
            "complex": self.complex_id,
            "alpha": [str(a) for a in self.alpha.entries],
            "lambda": [str(v) for v in self.lam],
            "B": self.bound,
            "dims": list(self.dims),
            "stabilized": self.stabilized,
            "dim": self.dim,
            "warnings": list(self.warnings),
        }


def require_stabilized(report: RankReport) -> RankReport:
    if not report.stabilized:
        raise NotStabilizedError(report.dims, report.bound)
    return report


class CohomologyWindow:
    """The lattice points of a support in the Newton window V_B.

    V_B = {u : w(u) + 2 D(u) <= B} (``lattice.NewtonPolytope``): w is the
    Newton-polytope weight of Delta = conv(0 u A) (Adolphson-Sperber, Ann.
    of Math. 130, 1989) and D the depth below the cone facets.  On the cone
    V_B is B Delta, each derivation raises w by at most 1, and for
    nonresonant alpha and generic lambda the quotient has dimension
    n! vol(Delta) (Adolphson, Duke Math. J. 73, 1994).  Below a cone facet
    f, the contraction against f only adds points a with f(a) >= 1, which
    lowers w + 2D: it stays in V_B and pushes a monomial towards the cone.

    ``points`` lists the window in elimination order (h(u), u), and
    ``index`` maps each point to its position there, the column it keys.
    Given ``within``, a larger window of the same support, which V_B lies
    inside, its points are filtered: no box scan and no support test.
    """

    def __init__(self, config: PointConfig, support: Support, bound: int,
                 within: CohomologyWindow | None = None):
        if bound < 0:
            raise ValueError("window bound must be nonnegative")
        self.config = config
        self.support = support
        self.bound = bound
        polytope = newton_polytope(config)
        self.hvec = polytope.h
        if within is not None:
            self.points = [u for u in within.points if polytope.contains(u, bound)]
        else:
            radius = bound * polytope.radius
            box = itertools.product(range(-radius, radius + 1), repeat=config.n)
            self.points = sorted((u for u in box if polytope.contains(u, bound)
                                  and support.contains(u)),
                                 key=lambda u: (self.weight(u), u))
        self.index = {u: k for k, u in enumerate(self.points)}

    def weight(self, u: Sequence[int]) -> int:
        return sum(h * x for h, x in zip(self.hvec, u))


def staying_combinations(steps: Sequence[Sequence[int]], n: int):
    """The derivation combinations whose image stays inside a window.

    sum_i c_i D_i shifts a monomial by each step a with c.a != 0.  Returns a
    function from the positions of the steps whose shift leaves the window
    to an integer basis of the c with c.a = 0 on each of them: the unit
    vectors when none leaves, and otherwise combinations such as the
    contraction against a cone facet.
    """
    units = [[int(i == k) for k in range(n)] for i in range(n)]

    @functools.cache
    def basis(out: tuple[int, ...]) -> list[list[int]]:
        return integer_kernel([list(steps[k]) for k in out]) if out else units
    return basis


def window_generators(windows: tuple[CohomologyWindow, CohomologyWindow],
                      alpha: ParameterVector, lam: Sequence[Fraction]
                      ) -> tuple[Iterator[tuple[int, dict]], Iterator[tuple[int, dict]]]:
    """Images of window monomials under the twisted derivation combinations
    that stay inside the window, for a ``window_pair``, as integer sparse
    vectors keyed by the bound-B window's columns.

    Returns two iterators of (column, vector), read in turn.  The first
    yields, for each point u of the B-1 window and each combination c of
    ``staying_combinations`` with a nonzero image, D c.(u + alpha) at u's
    own column and D lambda_a c.a at u + a, for each point a; D, the lcm of
    the denominators of alpha and lambda, makes them integers and changes
    no rank.  The second yields the B window's generators at the points of
    V_B outside V_{B-1} and where the steps leaving the two windows differ.
    A step that leaves V_B leaves V_{B-1}, so each c staying in the B-1
    window lies in the Q-span of the B basis at u, and the generator is
    linear in c; where the leaving steps agree, so do the generators.  Both
    together span the B window's image.
    """
    small, win = windows
    index = win.index
    scale = math.lcm(*(a.denominator for a in alpha.entries),
                     *(v.denominator for v in lam))
    d_alpha = [int(a * scale) for a in alpha.entries]
    steps = [(a, int(v * scale)) for a, v in zip(win.config.points, lam) if v and any(a)]
    basis = staying_combinations([a for a, _ in steps], win.config.n)
    leaving: dict[int, tuple[int, ...]] = {}

    def generators(col: int, u: IntVec, small_side: bool):
        targets = [index.get(tuple(map(operator.add, u, a))) for a, _ in steps]
        out = tuple(k for k, t in enumerate(targets)
                    if t is None or (small_side and win.points[t] not in small.index))
        if small_side:
            leaving[col] = out
        elif leaving.get(col) == out:
            return
        for c in basis(out):
            vec: dict[int, int] = {}
            diag = sum(ci * (scale * x + a) for ci, a, x in zip(c, d_alpha, u))
            if diag:
                vec[col] = diag
            for (a, v), t in zip(steps, targets):
                coeff = sum(ci * x for ci, x in zip(c, a))
                if coeff:
                    vec[t] = v * coeff
            if vec:
                yield col, vec

    return ((g for u in small.points for g in generators(index[u], u, True)),
            (g for col, u in enumerate(win.points) for g in generators(col, u, False)))


def window_pair(config: PointConfig, support: Support,
                bound: int) -> tuple[CohomologyWindow, CohomologyWindow]:
    """The windows of a support at bounds B-1 and B; only the B one scans
    the box, and the B-1 one is its points in V_{B-1}, in the same order."""
    if bound < 1:
        raise ValueError("need bound at least 1 for the stabilization pair")
    top = CohomologyWindow(config, support, bound)
    return CohomologyWindow(config, support, bound - 1, top), top


def _torus_report(alpha: ParameterVector, lam: tuple[Fraction, ...],
                  windows: tuple[CohomologyWindow, CohomologyWindow],
                  warnings: Sequence[str]) -> RankReport:
    """The report of one specialization on a window pair, from one echelon
    that takes the B-1 generators, is read for dims[0], then takes the B
    generators that differ and is read for dims[1] (``window_generators``).
    Its span is the B image, all ``quasi_iso_check`` reads of the report."""
    ech = RationalEchelon()
    dims = []
    for win, gens in zip(windows, window_generators(windows, alpha, lam)):
        for _, vec in gens:
            ech.insert(vec)
        dims.append(len(win.points) - ech.rank)
    return RankReport(f"torus/{win.support.name}", alpha, lam, win.bound,
                      tuple(dims), tuple(warnings), (win, ech))


def _resonance_warnings(config: PointConfig, alpha: ParameterVector) -> tuple[str, ...]:
    verdict = is_nonresonant(config, alpha)
    if verdict.nonresonant:
        return ()
    form, value = verdict.witness
    return (f"resonant: form {form.coeffs} takes integer value {value}",)


def top_cohomology_dim(config: PointConfig, alpha: ParameterVector,
                       lam: Sequence, support: Support, bound: int) -> RankReport:
    """Truncated dimension of the top cohomology of the twisted complex.

    Computes the window quotient at bounds B-1 and B; the result counts as
    stabilized when the two agree.  A resonant parameter is not an error:
    the computation proceeds with a warning flag set.
    """
    return _torus_report(alpha, specialization(config, lam),
                         window_pair(config, support, bound),
                         _resonance_warnings(config, alpha))


def specialization(config: PointConfig, lam: Sequence) -> tuple[Fraction, ...]:
    """lam as Fractions, refused unless it has one nonzero entry per point."""
    lam = tuple(Fraction(v) for v in lam)
    if len(lam) != config.N:
        raise ValueError(f"need {config.N} coefficients, got {len(lam)}")
    if any(v == 0 for v in lam):
        raise ValueError("parameter specialization must be nonzero")
    return lam


def random_specialization(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Independent uniform rationals with numerator and denominator in [1, 1000]."""
    return tuple(Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                 for _ in range(count))


def generic_rank(config: PointConfig, alpha: ParameterVector, support: Support,
                 bound: int, seed: int = 0) -> RankReport:
    """Stabilized dimension at generic parameters.

    Evaluates up to three pairs of distinct random specializations on one
    pair of windows (bounds B-1 and B) until a pair agrees on a stabilized
    dimension, and reports the first of that pair.  Otherwise raises
    NotStabilizedError with the (B-1, B) dimensions of the last
    specialization that did not stabilize, else of the last one drawn.
    """
    warnings = _resonance_warnings(config, alpha)
    windows = window_pair(config, support, bound)
    rng = random.Random(seed)
    unstable = None
    for _ in range(3):
        lam1 = lam2 = random_specialization(rng, config.N)
        while lam2 == lam1:
            lam2 = random_specialization(rng, config.N)
        # the second specialization only confirms the first: its echelon is
        # let go before the first one's, which the report keeps, is built
        rep2 = _torus_report(alpha, lam2, windows, warnings).replace(top=None)
        rep1 = _torus_report(alpha, lam1, windows, warnings)
        if rep1.stabilized and rep2.stabilized and rep1.dim == rep2.dim:
            return rep1.replace(warnings=warnings + (
                f"agreed with second specialization {list(map(str, lam2))}",))
        unstable = next((rep for rep in (rep2, rep1) if not rep.stabilized), unstable)
    if unstable is not None:
        raise NotStabilizedError(unstable.dims, bound)
    raise NotStabilizedError(rep2.dims, bound, f"specializations disagree at bound "
                             f"{bound}: {rep1.dim} vs {rep2.dim}", (rep1.dim, rep2.dim))


class QuasiIsoReport(NamedTuple):
    """Comparison of the truncated complexes over nested supports."""

    verdict: bool
    dim_small: int
    dim_big: int
    surjective: bool

    def to_json(self) -> dict:
        return self._asdict()


def quasi_iso_check(small: RankReport, big: RankReport) -> QuasiIsoReport:
    """Inclusion of the small-support subcomplex induces the same top quotient.

    Given stabilized reports of both supports at one bound, checks (a) equal
    dimensions and (b) surjectivity at ``big.lam``: every window monomial of
    the big support is congruent, modulo the twisted-derivation image inside
    the window, to something supported in the small window.  The windows
    and the echelon of that image come from the reports; only the unit
    vectors of the small window are reduced, in a copy of the row map.
    Raises ValueError when the bounds differ, a report carries no window,
    or the supports do not nest.
    """
    require_stabilized(small)
    require_stabilized(big)
    bound = big.bound
    if small.bound != bound:
        raise ValueError(f"reports at bounds {small.bound} and {bound} do not compare")
    if small.top is None or big.top is None:
        raise ValueError("a report without its window does not compare")
    win_small, _ = small.top
    win_big, kept = big.top
    if any(u not in win_big.index for u in win_small.points):
        raise ValueError(f"support {win_small.support.name} is not inside "
                         f"{win_big.support.name} at bound {bound}")
    # insert never changes a stored row, so the report's echelon stays as it was
    ech = copy.copy(kept)
    ech.rows = dict(kept.rows)
    for u in win_small.points:
        ech.insert({win_big.index[u]: 1})
    surjective = ech.rank == len(win_big.points)
    return QuasiIsoReport(
        verdict=(small.dim == big.dim) and surjective,
        dim_small=small.dim,
        dim_big=big.dim,
        surjective=surjective,
    )


def enumerate_monomial_forms(n: int, bound: int, degrees: Sequence[int],
                             nlam: int = 0) -> list[LogForm]:
    """Every monomial form with exponents in the centered box, all index tuples."""
    out = []
    for u in itertools.product(range(-bound, bound + 1), repeat=n):
        for k in degrees:
            for idx in itertools.combinations(range(1, n + 1), k):
                out.append(LogForm.from_monomial(u, idx, n, nlam=nlam))
    return out
