"""The last-coordinate specialization: complexes on the hypersurface complement.

When every point of the configuration has last coordinate 1, the defining
polynomial factors as x_n times a Laurent polynomial g in the first n-1
variables (``build_g``).  This module houses the twisted complex on the
complement of g = 0 in the (n-1)-torus, the two rows that split
logarithmic forms by their dx_n/x_n part, and the comparison chain map
weighted by rising factorials of the last parameter entry, with the
identity-battery checks on them.  The map is defined on last exponents
m >= 0 only: the half space x_n >= 0 that ``window.cohomology_U_dim``, the
truncated dimension of the top cohomology on the complement, reads.  A form
on the complement is one numerator form over one power of g, not reduced
(``UForm``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add
from typing import Callable, NamedTuple, Sequence

from .derham import LogForm, _form, clearing_scale, nabla, wedge_insert
from .errors import PochhammerPoleError
from .lattice import ParameterVector, PointConfig, check_structure
from .laurent import (LaurentPoly, TwistedDerivations, _add_scaled, build_f,
                      int_if_integral, lazy_exports, toric_derivative)
from .linalg import RationalEchelon

IntVec = tuple[int, ...]
IndexTuple = tuple[int, ...]
# xi -> scale D_i xi, for i = 1..n
Derivations = Callable[[int, LaurentPoly], LaurentPoly]

# the benchmark tracer (bench/traced_job.py) finds this name in this module;
# the identity battery never asks for it, so it loads no window code
__getattr__ = lazy_exports(__name__, "window", ("cohomology_U_dim",))


def build_g(config: PointConfig, lam: Sequence) -> LaurentPoly:
    """Drop the last coordinate: the polynomial whose x_n-multiple is f.
    The points are distinct and all end in 1, so the keys stay distinct."""
    check_structure(config)
    f = build_f(config, lam)
    return LaurentPoly._of(config.n - 1, {u[:-1]: c for u, c in f.terms.items()})


class UForm(NamedTuple):
    """A form on the complement of g = 0: num / g^gpow, with num a
    logarithmic form in the first n-1 variables and g held by the
    ``ComplementTables`` of the map that made it.

    The pair is kept over one power of g, not reduced: no factor of g is
    divided out, and gpow may be any integer.  Laurent polynomials have no
    zero divisors, so two pairs are equal exactly when their numerators agree
    once both are multiplied up to the larger power (``_same_form``), and a
    pair is zero exactly when its numerator is."""

    num: LogForm
    gpow: int


def _same_form(a: UForm, b: UForm, power: Callable[[int], LaurentPoly]) -> bool:
    """a and b, over powers of one polynomial, are the same form: the
    numerator over the lower power, times power(k) for k the difference of
    the powers, is the other numerator."""
    low, high = sorted((a, b), key=lambda w: w.gpow)
    up = power(high.gpow - low.gpow)
    num = low.num
    return LogForm._of(num.n, num.degree, {idx: p * up for idx, p
                                           in num.components.items()}) == high.num


class ComplementTables:
    """What ``gamma`` and ``tilde_nabla`` share for one (alpha, g), built
    once by a check that applies them to many forms, with every form
    written over powers of h = scale g: the powers of h, the weight of each
    last exponent and, per direction i, scale alpha_i and x_i dh/dx_i.

    Over h, num / g^m is scale^m num / h^m, so the comparison map weights a
    monomial with last exponent m >= 0 by (-1)^m (alpha_n)_m scale^m over
    h^m; as dh/h = dg/g, the differential of num / h^m is the quotient rule
    with h for g.  Read off these tables alone, ``gamma`` gives the form the
    unscaled map gives and ``tilde_nabla`` scale times it, each over powers
    of h; with scale 1, h is g."""

    __slots__ = ("scale", "h", "pows", "weights", "directions", "last")

    def __init__(self, alpha: ParameterVector, g: LaurentPoly, scale: int = 1):
        if g.is_zero():
            raise ZeroDivisionError("localization at the zero polynomial")
        if alpha.n != g.n + 1:
            raise ValueError("parameter must have one more entry than g has variables")
        self.scale = scale
        h = self.h = LaurentPoly._of(g.n, {u: int_if_integral(c * scale)
                                           for u, c in g.terms.items()})
        self.pows = [LaurentPoly.one(g.n), h]
        self.weights: list[int | Fraction] = [1]
        self.directions = [(int_if_integral(a * scale), toric_derivative(i, h))
                           for i, a in zip(range(1, g.n + 1), alpha.entries)]
        self.last = int_if_integral(alpha.entries[-1] * scale)

    def power(self, k: int) -> LaurentPoly:
        """h^k, for k >= 0."""
        pows = self.pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.h)
        return pows[k]

    def weight(self, m: int) -> int | Fraction:
        """(-1)^m (alpha_n)_m scale^m, for the m >= 0 ``gamma`` is defined on.
        As (alpha_n)_(m+1) = (alpha_n)_m (alpha_n + m), the weight of m + 1
        is minus that of m times ``last`` + scale m; ints if ``last`` is one,
        else non-integral Fractions past m = 0."""
        weights = self.weights
        while len(weights) <= m:
            k = len(weights) - 1
            weights.append(-weights[-1] * (self.last + self.scale * k))
        return weights[m]


def tilde_nabla(tables: ComplementTables, omega: UForm) -> UForm:
    """Twisted differential on the complement: logarithmic part in the first
    n-1 directions minus the last parameter entry times dg/g.

    By the quotient rule, direction i sends num / g^m to
    ((x_i d/dx_i + alpha_i) num g - (m + alpha_n) num x_i dg/dx_i) / g^(m+1),
    so the image is one numerator over g^(m+1), not reduced.  With the
    ``tables`` of (alpha, g, scale), omega and its image are over powers of
    h = scale g and the image is scaled.
    """
    h = tables.h
    nprime = h.n
    degree = omega.num.degree
    if degree == nprime:
        return UForm(LogForm.zero(nprime, nprime), 0)
    m = omega.gpow
    s = tables.scale
    # scale (m + alpha_n), the factor of num x_i dh/dx_i
    s_m = s * m + tables.last
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for idx, num in omega.num.components.items():
        for i in range(1, nprime + 1):
            ins = wedge_insert(i, idx)
            if ins is None:
                continue
            sign, target = ins
            a_i, dh = tables.directions[i - 1]
            d_num = LaurentPoly._of(nprime, {u: c * (u[i - 1] * s + a_i)
                                             for u, c in num.terms.items()})
            piece = d_num * h + (num * dh).scalar_mul(-s_m)
            _add_scaled(acc.setdefault(target, {}), piece, sign)
    return UForm(_form(nprime, degree + 1, acc, 0), m + 1)


def split(form: LogForm) -> tuple[LogForm, LogForm]:
    """The rows (part0, part1) of a form on the full torus: part1 carries an
    implicit trailing dx_n/x_n, which the components with the last index
    drop.  ``gamma`` takes part1 on the half space m >= 0 of last exponents
    that ``window.cohomology_U_dim`` reads, and refuses it elsewhere."""
    n = form.n
    comp0: dict[IndexTuple, LaurentPoly] = {}
    comp1: dict[IndexTuple, LaurentPoly] = {}
    for idx, poly in form.components.items():
        if idx and idx[-1] == n:
            comp1[idx[:-1]] = poly
        else:
            comp0[idx] = poly
    return (LogForm(n, form.degree, comp0, form.nlam),
            LogForm(n, max(form.degree - 1, 0), comp1, form.nlam))


def _derivations_by_parts(alpha: ParameterVector, g: LaurentPoly,
                          scale: int) -> Derivations:
    """xi -> scale D_i xi on the full torus, for f = x_n g, composed by parts
    from the ring operations: with them ``d_h`` and ``d_v`` are the side of
    ``check_split_matches_nabla`` independent of ``TwistedDerivations``.  A
    check builds them once and passes them to every ``d_h`` and ``d_v``."""
    f = LaurentPoly._of(g.n + 1, {u + (1,): int_if_integral(c * scale)
                                  for u, c in g.terms.items()})
    df = [toric_derivative(i, f) for i in range(1, f.n + 1)]
    shifts = [int_if_integral(a * scale) for a in alpha.entries]
    return lambda i, xi: (toric_derivative(i, xi).scalar_mul(scale)
                          + xi.scalar_mul(shifts[i - 1]) + df[i - 1] * xi)


def d_h(D: Derivations, part: LogForm) -> LogForm:
    """The horizontal boundary, scaled as D = _derivations_by_parts(alpha, g,
    scale) is: logarithmic derivations in the first n-1 directions plus x_n
    times the corresponding derivative of g."""
    n = part.n
    if part.degree >= n:
        # only the empty form has this nominal degree among split rows
        return LogForm.zero(n, n)
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for idx, xi in part.components.items():
        for i in range(1, n):
            ins = wedge_insert(i, idx)
            if ins is not None:
                sign, target = ins
                _add_scaled(acc.setdefault(target, {}), D(i, xi), sign)
    return _form(n, part.degree + 1, acc, 0)


def d_v(D: Derivations, part0: LogForm) -> LogForm:
    """The vertical boundary into the dx_n/x_n row, with the trailing-basis
    sign, scaled as D is for ``d_h``."""
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for idx, xi in part0.components.items():
        _add_scaled(acc.setdefault(idx, {}), D(part0.n, xi), -1 if len(idx) % 2 else 1)
    return _form(part0.n, part0.degree, acc, 0)


def check_split_matches_nabla(config: PointConfig, alpha: ParameterVector,
                              lam: Sequence, samples: Sequence["LogForm"]) -> bool:
    """The twisted differential on the full torus decomposes along the rows:
    the horizontal boundary on each row plus the vertical boundary feeding
    the dx_n/x_n row.  Compared componentwise, so empty rows of differing
    nominal degree still agree.

    Every operator is scaled by ``clearing_scale``, which clears the
    denominators of alpha and lambda, so integer samples compute over the
    integers; the decomposition is linear in the scale, so the verdict is
    that of the unscaled operators.  Each side applies one derivation, with
    coefficients affine in u, so on x^u dx_I the residual has, per target
    monomial, a coefficient of total degree at most 1 in u: the samples
    with u in ``derham.principal_lattice(n, 1)``, 0 and the unit vectors,
    decide the identity at lam for every form (``derham.check_complex``)."""
    f = build_f(config, lam)
    dd = TwistedDerivations(alpha, f, clearing_scale(alpha, f))
    D = _derivations_by_parts(alpha, build_g(config, lam), dd.scale)
    for form in samples:
        part0, part1 = split(form)
        image0, image1 = split(nabla(dd, form))
        want1 = d_v(D, part0)
        if part1.components:
            want1 = want1 + d_h(D, part1)
        if (image0.components != d_h(D, part0).components
                or image1.components != want1.components):
            return False
    return True


def gamma(tables: ComplementTables, part1: LogForm) -> UForm:
    """Comparison map dropping the trailing dx_n/x_n.

    A monomial with last exponent m maps to its first n-1 coordinates over
    g^m, weighted by (-1)^m (alpha_n)_m, the rising factorial of the last
    parameter entry: for m >= 0 only, the half space x_n >= 0 that
    ``window.cohomology_U_dim`` reads, so a negative m is refused.  Every
    term is put over g^M, M the largest last exponent or 0, as one
    numerator, not reduced.  With the ``tables`` of (alpha, g, scale), the
    image is the same form written over h^M, h = scale g.
    """
    if part1.nlam:
        raise ValueError("comparison map needs specialized coefficients")
    by_m: dict[tuple[IndexTuple, int], dict[IntVec, Fraction]] = {}
    for idx, xi in part1.components.items():
        for u, c in xi.terms.items():
            m = u[-1]
            if m < 0:
                raise ValueError(f"comparison map needs last exponents >= 0, not {m}")
            by_m.setdefault((idx, m), {})[u[:-1]] = tables.weight(m) * c
    M = max((m for _, m in by_m), default=0)
    nprime = tables.h.n
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for (idx, m), terms in by_m.items():
        num = LaurentPoly._of(nprime, terms)
        _add_scaled(acc.setdefault(idx, {}),
                    num if m == M else num * tables.power(M - m), 1)
    return UForm(_form(nprime, part1.degree, acc, 0), M)


def check_gamma_chain_map(alpha: ParameterVector, g: LaurentPoly,
                          samples: Sequence[LogForm]) -> bool:
    """The comparison map intertwines the boundaries and kills the vertical
    image: gamma(d_h w) = tilde_nabla(gamma(w)) on the dx_n/x_n row and
    gamma(d_v v) = 0 for the other row, each sample taken as w and as v; a
    sample with the last variable in an index tuple is refused.

    Both identities are checked scaled by L = ``clearing_scale(alpha, g)``,
    the lcm of the denominators of alpha and of g, with every form written
    over powers of h = L g (``ComplementTables``): gamma(L d_h w) =
    L tilde_nabla(gamma(w)) and gamma(L d_v v) = 0.  Every map is linear and
    L is nonzero, so these hold exactly when the unscaled identities do.
    With alpha_n = a/e, e divides L, so the weight (-1)^m (alpha_n)_m L^m is
    the integer (-1)^m (a)(a + e)...(a + (m-1) e) (L/e)^m; the boundaries
    scaled by L and h are integral too, so on integer samples every
    coefficient is an integer.

    On x^(u', m) dx_I, for a fixed m >= 0, both sides of the first identity
    are one numerator over g^(m+1): d_h weights x^(u', m) by u_i + alpha_i
    and shifts it by the terms of x_n x_i dg/dx_i, gamma weights each level
    by a constant, and tilde_nabla weights x^u' by u_i + alpha_i and by
    -(m + alpha_n).  So the residual has, per numerator monomial, a
    coefficient affine in u', and distinct shifts give distinct monomials:
    samples with u' in ``derham.principal_lattice(n - 1, 1)``, 0 and the
    unit vectors, decide it for every u' at that m.  In the second, gamma
    takes the two terms of d_v x^(u', m), (m + alpha_n) x^(u', m) and
    x^(u', m+1) g, to x^u' g over g^(m+1) with weights that cancel, whatever
    u' is.  m is still sampled: the weights are not polynomial in it.
    """
    tables = ComplementTables(alpha, g, clearing_scale(alpha, g))
    D = _derivations_by_parts(alpha, g, tables.scale)
    for form in samples:
        if any(i >= form.n for idx in form.components for i in idx):
            raise ValueError("sample index tuples must avoid the last variable")
        if form.degree < g.n:
            lhs = gamma(tables, d_h(D, form))
            rhs = tilde_nabla(tables, gamma(tables, form))
            if not _same_form(lhs, rhs, tables.power):
                return False
        if not gamma(tables, d_v(D, form)).num.is_zero():
            return False
    return True


def kernel_equals_dv_image(alpha: ParameterVector, g: LaurentPoly,
                           u_bound: int, m_bound: int) -> bool:
    """Within a window, the kernel of the comparison map on the dx_n/x_n row
    coincides with the vertical image of the other row.

    The vertical image always lies in the kernel (chain-map identity), so
    the subspaces agree exactly when the two dimensions match.  Requires the
    last parameter entry to avoid nonpositive integers, which makes the
    rising factorials nonzero.  Each gamma column is rescaled by a nonzero
    constant, which leaves the rank unchanged whatever the scale: with
    h = L g for L = ``clearing_scale(alpha, g)`` (``ComplementTables``), the
    gamma image (-1)^m (alpha_n)_m x^{u'} g^(M-m) / g^M of x^{u'} / g^m
    enters as x^{u'} h^(M-m), so the gamma matrix is integer.

    One index block decides every degree, so only the block of degree 0 is
    built.  At degree k each column and each row is keyed by a single index
    tuple of length k, in the basis, the targets and the vertical generators
    alike, and is built the same way for every tuple: the index only labels
    it.  Both matrices are therefore block diagonal with C(n', k) copies of
    the block of the empty tuple, so the kernel dimension and the vertical
    rank are C(n', k) times those at degree 0, and the verdict is the same.

    The vertical rank needs no echelon.  The generator d_v x^(u', m), for
    m < m_bound and u' in the eroded box, has its own entry at (u', m),
    equal to alpha_n + m and nonzero as alpha_n is no integer <= 0, and
    every other entry at level m + 1.  In a vanishing combination, the
    lowest level with a nonzero coefficient would keep those own entries
    alone, so the generators are independent: their rank is their count.
    """
    alpha_n = alpha.entries[-1]
    if alpha_n.denominator == 1 and alpha_n <= 0:
        raise PochhammerPoleError(
            "last parameter entry is a nonpositive integer")
    tables = ComplementTables(alpha, g, clearing_scale(alpha, g))
    box = list(itertools.product(range(-u_bound, u_bound + 1), repeat=g.n))
    basis = [(up, m) for up in box for m in range(m_bound + 1)]

    # gamma matrix: columns indexed by basis, target keyed by numerator
    # monomials at the common denominator h^{m_bound}
    col_ech = RationalEchelon()
    for up, m in basis:
        col_ech.insert({tuple(map(add, w, up)): v
                        for w, v in tables.power(m_bound - m).terms.items()})
    ker_dim = len(basis) - col_ech.rank

    # vertical-image generators confined to the window: the numerator box
    # eroded by the support of g, so every image term stays inside; m_bound
    # of them per u', all independent
    eroded = [up for up in box
              if all(max(abs(a + b) for a, b in zip(up, w)) <= u_bound
                     for w in g.terms)]
    return ker_dim == len(eroded) * m_bound
