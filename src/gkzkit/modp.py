"""Mod-p polynomial solution spaces of the hypergeometric system.

Solutions are sought among polynomials in the parameters with exponents in
the box [0, p)^N.  The Euler operators pin the admissible exponents to a
single congruence class family; the box operators impose falling-factorial
recurrences between coefficients.  The solution dimension is the nullspace
dimension of the combined system over the prime field, compared against the
characteristic-zero rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence

from .derham import generic_rank
from .errors import (RankConsistencyError, ResonantError, SkippedPrimeError)
from .intmat import rational_inverse, solve_integer
from .laurent import FullSupport
from .lattice import (ParameterVector, PointConfig, RelationLattice,
                      is_nonresonant, relation_lattice)
from .linalg import ModpEchelon

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class ModpInstance:
    config: PointConfig
    alpha: ParameterVector
    p: int
    alpha_bar: tuple[int, ...]


def make_instance(config: PointConfig, alpha: ParameterVector, p: int) -> ModpInstance:
    """Reduce the parameter mod p; primes dividing a denominator are refused.

    The modulus must be a prime, checked exactly by trial division.
    """
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"modulus must be a prime, got {p}")
    bar = []
    for a in alpha.entries:
        if a.denominator % p == 0:
            raise SkippedPrimeError(f"{p} divides the denominator of {a}")
        bar.append((a.numerator * pow(a.denominator, -1, p)) % p)
    return ModpInstance(config=config, alpha=alpha, p=p, alpha_bar=tuple(bar))


def solution_support(instance: ModpInstance) -> list[IntVec]:
    """Exponents v in [0, p)^N with sum_j v_j a(j) congruent to alpha mod p.

    The points generate the full lattice, so the point matrix maps Z^N onto
    Z^n and its relation lattice L is a direct summand; hence L tensored
    with F_p is the mod-p kernel.  The support is the coset of one integer
    solution by all combinations of the basis of L with coefficients in
    [0, p): exactly p^(N-n) exponents.
    """
    p = instance.p
    config = instance.config
    v0 = solve_integer(config.matrix(), list(instance.alpha_bar))
    basis = relation_lattice(config).basis
    support = []
    for t in itertools.product(range(p), repeat=len(basis)):
        support.append(tuple((x + sum(ti * l[k] for ti, l in zip(t, basis))) % p
                             for k, x in enumerate(v0)))
    return sorted(support)


def _lattice_points_in_box(lattice: RelationLattice, bound: int) -> list[IntVec]:
    """All nonzero relation vectors with sup-norm at most the bound.

    Coefficients against the saturated basis are recovered by an exact
    rational pseudo-inverse, which bounds the search box for combinations.
    """
    if lattice.rank == 0:
        return []
    basis = [list(l) for l in lattice.basis]
    r = len(basis)
    N = len(basis[0])
    # pseudo-inverse P with P @ basis^T = identity
    gram = [[sum(basis[i][k] * basis[j][k] for k in range(N)) for j in range(r)]
            for i in range(r)]
    gram_inv = rational_inverse(gram)
    # t = gram_inv @ basis @ l for l in the lattice; bound each |t_k|
    proj = [[sum(gram_inv[i][j] * basis[j][k] for j in range(r)) for k in range(N)]
            for i in range(r)]
    t_bounds = [int(sum(abs(x) for x in proj[i]) * bound) for i in range(r)]
    out = []
    for t in itertools.product(*[range(-tb, tb + 1) for tb in t_bounds]):
        if all(x == 0 for x in t):
            continue
        l = tuple(sum(t[i] * basis[i][k] for i in range(r)) for k in range(N))
        if max(abs(x) for x in l) <= bound:
            out.append(l)
    # keep one of each +-pair
    seen = set()
    kept = []
    for l in sorted(out):
        if tuple(-x for x in l) in seen:
            continue
        seen.add(l)
        kept.append(l)
    return kept


def _falling_product(w: int, steps: int, p: int) -> int:
    """(w+1)(w+2)...(w+steps) mod p."""
    out = 1
    for k in range(1, steps + 1):
        out = (out * (w + k)) % p
    return out


def recurrence_rows(instance: ModpInstance, support: Sequence[IntVec],
                    relations: Iterable[IntVec] | None = None) -> list[dict]:
    """Linear constraints on the support coefficients from the box operators.

    For each relation l and each shifted exponent w the operator equates the
    falling-factorial multiple of c_{w + l+} with that of c_{w + l-};
    coefficients outside the support are absent (zero).  Relations with an
    entry of magnitude at least p contribute rows that vanish identically
    mod p, so the enumeration box [1-p, p-1]^N loses nothing.
    """
    p = instance.p
    supp = set(support)
    if relations is None:
        lattice = relation_lattice(instance.config)
        spread = max((max(abs(x) for x in v) for v in support), default=0)
        relations = _lattice_points_in_box(lattice, max(p - 1, spread))
    rows = []
    seen_rows = set()
    for l in relations:
        lp = tuple(max(x, 0) for x in l)
        lm = tuple(max(-x, 0) for x in l)
        ws = set()
        for v in supp:
            w_plus = tuple(a - b for a, b in zip(v, lp))
            if all(x >= 0 for x in w_plus):
                ws.add(w_plus)
            w_minus = tuple(a - b for a, b in zip(v, lm))
            if all(x >= 0 for x in w_minus):
                ws.add(w_minus)
        for w in ws:
            row: dict[IntVec, int] = {}
            vp = tuple(a + b for a, b in zip(w, lp))
            if vp in supp:
                coeff = 1
                for wj, steps in zip(w, lp):
                    coeff = (coeff * _falling_product(wj, steps, p)) % p
                if coeff:
                    row[vp] = coeff
            vm = tuple(a + b for a, b in zip(w, lm))
            if vm in supp:
                coeff = 1
                for wj, steps in zip(w, lm):
                    coeff = (coeff * _falling_product(wj, steps, p)) % p
                if coeff:
                    row[vm] = (row.get(vm, 0) - coeff) % p
            row = {k: c % p for k, c in row.items() if c % p}
            if row:
                key = tuple(sorted(row.items()))
                if key not in seen_rows:
                    seen_rows.add(key)
                    rows.append(row)
    return rows


def solution_dim_on_support(instance: ModpInstance,
                            support: Sequence[IntVec]) -> int:
    """Nullspace dimension of the recurrence system on an explicit support."""
    rows = recurrence_rows(instance, support)
    ech = ModpEchelon(instance.p)
    for row in rows:
        ech.insert(row)
    return len(support) - ech.rank


def modp_solution_dim(instance: ModpInstance) -> int:
    """Dimension of the space of box-supported polynomial solutions mod p."""
    return solution_dim_on_support(instance, solution_support(instance))


@dataclass
class PrimeResult:
    p: int
    dim: int
    full: bool

    def to_json(self) -> dict:
        return {"p": self.p, "dim": self.dim, "full": self.full}


@dataclass
class ModpReport:
    alpha: ParameterVector
    rank: int
    primes: list[PrimeResult]
    skipped: list[tuple[int, str]]
    verdict: str

    def to_json(self) -> dict:
        return {
            "alpha": [str(a) for a in self.alpha.entries],
            "rank": self.rank,
            "primes": [r.to_json() for r in self.primes],
            "skipped": [{"p": p, "reason": reason} for p, reason in self.skipped],
            "verdict": self.verdict,
        }


def full_set_sweep(config: PointConfig, alpha: ParameterVector,
                   primes: Sequence[int], rank: int | None = None,
                   bound: int = 4, seed: int = 0) -> ModpReport:
    """Per-prime solution dimensions against the characteristic-zero rank.

    Requires a nonresonant parameter.  Primes dividing a denominator of the
    parameter are skipped with a reason, never silently dropped.  A solution
    dimension exceeding the rank would falsify the truncation rank and is
    surfaced as a hard failure.
    """
    verdict = is_nonresonant(config, alpha)
    if not verdict.nonresonant:
        form, value = verdict.witness
        raise ResonantError(
            f"parameter is resonant: form {form.coeffs} gives integer {value}")
    if rank is None:
        rank = generic_rank(config, alpha, FullSupport(config.n), bound,
                            seed=seed).dim
    results = []
    skipped = []
    for p in primes:
        try:
            instance = make_instance(config, alpha, p)
        except SkippedPrimeError as exc:
            skipped.append((p, str(exc)))
            continue
        dim = modp_solution_dim(instance)
        if dim > rank:
            raise RankConsistencyError(
                f"solution dimension {dim} exceeds rank {rank} at p={p}")
        results.append(PrimeResult(p=p, dim=dim, full=dim == rank))
    bad = [r.p for r in results if not r.full]
    verdict_text = ("full for all tested good primes" if not bad
                    else "not full at {" + ", ".join(str(p) for p in bad) + "}")
    return ModpReport(alpha=alpha, rank=rank, primes=results,
                      skipped=skipped, verdict=verdict_text)
