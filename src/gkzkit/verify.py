"""Exact-identity battery over the built-in configurations.

Each check runs with symbolic parameters, so a pass is an exact polynomial
identity, not a numerical coincidence.  Checks that receive no samples
report a vacuous pass explicitly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

# hypersurface is read through its module, so a process that checks only
# one-dimensional configurations never runs its code (the package loads
# modules on first attribute access)
from . import hypersurface
from .derham import (LogForm, check_complex, differentials,
                     enumerate_monomial_forms, homotopy_identity_check,
                     principal_lattice, twist_conjugation_check)
from .errors import StructureError
from .lattice import (ParameterVector, PointConfig, cone_facets,
                      normalize_structure, relation_lattice)
from .weyl import (PhiTables, WeylElement, box_shift, check_commutation,
                   check_phi_intertwines, check_phi_kills_box)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    samples: int
    detail: str = ""

    @property
    def vacuous(self) -> bool:
        """A pass over no samples."""
        return self.ok and self.samples == 0

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok, "samples": self.samples,
               "vacuous": self.vacuous}
        if self.detail:
            out["detail"] = self.detail
        return out


class BatteryReport:
    """The checks of one battery, in the order they ran."""

    __slots__ = ("checks",)

    def __init__(self):
        self.checks: list[CheckResult] = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _up_to_first_failure(name: str, cases: list[tuple], failure) -> CheckResult:
    """The check that runs the cases in order up to the first that fails:
    failure(*case) is None on a pass and the detail of a failure.  The
    failing case counts as a sample."""
    for count, case in enumerate(cases, 1):
        detail = failure(*case)
        if detail is not None:
            return CheckResult(name, False, count, detail)
    return CheckResult(name, True, len(cases))


def run_battery(config: PointConfig, alpha: ParameterVector,
                perturb_beta: bool = False) -> BatteryReport:
    """All exact identity checks for one configuration.

    Five checks run on the smallest exponent sets that decide them, fixed
    by an argument, not chosen.  Each derivation takes x^u to
    (u_i + alpha_i) x^u plus shifts by the terms of f, with coefficients
    affine in u, and distinct shifts give distinct monomials.
    So each residual has, per target monomial, a coefficient of total
    degree at most 2 in the exponent u for ``nabla_squared`` (products of
    two affine factors) and at most 1 for ``homotopy_identity``,
    ``twist_conjugation`` and ``split_consistency``.  ``nabla_squared``
    runs on every monomial form with u in S_2 = ``principal_lattice(n,
    2)``, the u >= 0 with |u|_1 <= 2, and the other three on S_1 = {0, e_1,
    ..., e_n}: unisolvent for total degree 2 and 1, by induction on n
    (``principal_lattice``).  ``twist_conjugation`` takes the forms of
    degree below min(n, 2) for its three twists, and ``split_consistency``
    decides at one fixed lambda.  S_1 leads S_2, so the homotopy check reads
    the first differentials ``nabla_squared`` took, and no form goes through
    nabla twice.  These four then hold for every Laurent form.  The fifth,
    ``gamma_chain_map``, takes x^(u', m) with u' in S_1 of the first n - 1
    coordinates and m in {0, 1, 2}, which decides it for every u' at each
    sampled m (``hypersurface.check_gamma_chain_map`` says why); m stays
    sampled, as the rising-factorial weights are not polynomial in m.

    The Weyl-side checks sample the d-monomials d^b with b in
    ``principal_lattice(N, d)``: degree at most 2 for ``phi_kills_boxes``
    and at most 3 for ``phi_intertwines``.

    With ``perturb_beta`` the commutation check runs against an off-by-one
    shift parameter, which must fail; this is the negative control.
    """
    if alpha.n != config.n:
        raise ValueError(f"parameter has {alpha.n} entries, the configuration "
                         f"needs {config.n}")
    report = BatteryReport()
    n, N = config.n, config.N
    lattice = relation_lattice(config)
    facets = cone_facets(config)

    # box and Euler operators interleave up to the parameter shift
    def commutation_failure(l, i):
        beta = None
        if perturb_beta:
            shift = box_shift(config, l)
            beta = ParameterVector(tuple(
                a - s + (1 if k == i - 1 else 0)
                for k, (a, s) in enumerate(zip(alpha.entries, shift))))
        result = check_commutation(config, l, i, alpha, beta=beta)
        if not result.ok:
            return (f"l={l}, i={i}, beta={[str(b) for b in result.beta.entries]}, "
                    f"residual={result.residual}")
    report.add(_up_to_first_failure(
        "commutation", [(l, i) for l in lattice.basis for i in range(1, n + 1)],
        commutation_failure))

    # the parameter-linear map annihilates left multiples of box operators
    tees = [WeylElement.monomial((0,) * N, b) for b in principal_lattice(N, 2)]
    report.add(_up_to_first_failure(
        "phi_kills_boxes", [(t, l) for l in lattice.basis for t in tees],
        lambda t, l: None if check_phi_kills_box(config, t, l) else f"t={t}, l={l}"))

    # transport of the Euler action and the parameter derivatives; every
    # torus check below runs on the same twisted derivations
    tables = PhiTables(config, alpha)
    report.add(_up_to_first_failure(
        "phi_intertwines",
        [(WeylElement.monomial((0,) * N, b), i)
         for b in principal_lattice(N, 3) for i in range(1, n + 1)],
        lambda w, i: (None if check_phi_intertwines(w, i, tables)
                      else f"w={w}, i={i}")))
    derivations = tables.derivations

    # the twisted differential squares to zero, decided by S_2
    forms = enumerate_monomial_forms(principal_lattice(n, 2), range(n + 1), nlam=N)
    # the first differential of each sample, which both checks below take
    first = differentials(derivations, forms)
    ok = check_complex(derivations, first)
    report.add(CheckResult("nabla_squared", ok, len(forms)))
    # S_1, the first n + 1 exponents of S_2, with 2^n index tuples each
    forms, first = forms[:(n + 1) << n], first[:(n + 1) << n]

    # contraction homotopy identity, every facet in one pass over the samples
    failed = homotopy_identity_check(facets, derivations, forms, first)
    if failed is None:
        report.add(CheckResult("homotopy_identity", True, len(forms) * len(facets)))
    else:
        report.add(CheckResult("homotopy_identity", False,
                               len(forms) * facets.index(failed),
                               detail=f"facet={failed.coeffs}"))

    # monomial twist conjugation
    twists = [tuple(1 if k == 0 else 0 for k in range(n))]
    if n >= 2:
        twists.append(tuple(-1 if k == 1 else 0 for k in range(n)))
        twists.append(tuple(1 if k <= 1 else 0 for k in range(n)))
    small_forms = [omega for omega in forms if omega.degree < min(n, 2)]
    held = list(itertools.takewhile(
        lambda u: twist_conjugation_check(derivations, u, small_forms), twists))
    # a failure names its twist; the samples count the twists that held
    detail = "" if held == twists else f"u={twists[len(held)]}"
    report.add(CheckResult("twist_conjugation", held == twists,
                           len(held) * len(small_forms), detail))

    # hypersurface-structure checks, when the configuration admits them
    if n >= 2:
        try:
            cfg_h, alpha_h, _ = normalize_structure(config, alpha)
        except StructureError:
            cfg_h = None
        if cfg_h is not None:
            lam = tuple(Fraction(k + 2, 2 * k + 1) for k in range(N))
            g = hypersurface.build_g(cfg_h, lam)
            # the comparison map is a chain map, decided at each m by S_1 in u'
            samples = [LogForm.from_monomial(u + (m,), idx, n)
                       for u in principal_lattice(n - 1, 1) for m in range(3)
                       for k in range(n) for idx in itertools.combinations(range(1, n), k)]
            ok = hypersurface.check_gamma_chain_map(alpha_h, g, samples)
            report.add(CheckResult("gamma_chain_map", ok, len(samples)))
            total_forms = enumerate_monomial_forms(principal_lattice(n, 1), range(n + 1))
            ok = hypersurface.check_split_matches_nabla(cfg_h, alpha_h, lam, total_forms)
            report.add(CheckResult("split_consistency", ok, len(total_forms)))
            alpha_n = alpha_h.entries[-1]
            if not (alpha_n.denominator == 1 and alpha_n <= 0):
                # one index block decides every degree k < n
                ok = hypersurface.kernel_equals_dv_image(alpha_h, g, 2, 3)
                report.add(CheckResult("gamma_kernel", ok, n))
    return report
