"""Mod-p polynomial solution spaces of the hypergeometric system.

Solutions are sought among polynomials in the parameters with exponents in
the box [0, p)^N.  The Euler operators pin the admissible exponents to a
single congruence class; the box operators of the relations with sup norm
below p impose falling-factorial recurrences between the coefficients c_v.
The rows are written in d_v = c_v v!: v! is a unit mod p on the box, so the
diagonal change of basis keeps the rank, and in d a recurrence either
equates two coefficients in one integer fiber {v : Av = b} or kills one
whose partner exponent leaves the box, so a spanning set of them has at
most one row per exponent and no row carries a factorial.  The solution
dimension is the nullspace dimension of that system over the prime field,
compared against the characteristic-zero rank, which at the nonresonant
parameters the sweep accepts is the normalized volume: no window and no
rational echelon run.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .errors import (RankConsistencyError, ResonantError, SkippedPrimeError)
from .intmat import matvec, solve_integer
from .lattice import (ParameterVector, PointConfig, is_nonresonant,
                      normalized_volume, relation_lattice)
from .linalg import ModpEchelon

IntVec = tuple[int, ...]


class ModpInstance(NamedTuple):
    config: PointConfig
    alpha: ParameterVector
    p: int
    alpha_bar: tuple[int, ...]


# the first thirteen primes: as Miller-Rabin bases together they are exact
# below MILLER_RABIN_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is a prime, decided exactly by a strong-probable-prime test
    to each base of MILLER_RABIN_BASES; p at or above MILLER_RABIN_BOUND,
    where those bases no longer decide, raises ValueError."""
    if p < 2:
        return False
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(f"modulus {p} is not below {MILLER_RABIN_BOUND}, "
                         f"under which primality is decided exactly")
    for b in MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def make_instance(config: PointConfig, alpha: ParameterVector, p: int) -> ModpInstance:
    """Reduce the parameter mod p; primes dividing a denominator are refused.

    The modulus must be a prime, checked exactly by ``is_prime``, which
    refuses a modulus too large to decide.
    """
    if not is_prime(p):
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
    [0, p): exactly p^(N-n) exponents.  The coset grows by one basis vector
    at a time, from the p multiples of that vector reduced mod p.
    """
    p = instance.p
    config = instance.config
    v0 = solve_integer(config.matrix(), list(instance.alpha_bar))
    coset = [tuple(x % p for x in v0)]
    for l in relation_lattice(config).basis:
        multiples = [[t * x % p for x in l] for t in range(p)]
        coset = [tuple([(x + y) % p for x, y in zip(v, m)])
                 for v in coset for m in multiples]
    return sorted(coset)


def recurrence_rows(instance: ModpInstance, support: Sequence[IntVec]) -> list[dict]:
    """A spanning set of the box-operator recurrences on the support,
    written in the coordinates d_v = c_v v!.

    Let S be the support, a congruence class in [0, p)^N, and f the sum of
    c_v lambda^v over S.  For a relation l with sup norm at most p - 1 the box
    operator gives at each exponent w the row
    c_{w+l+} (w+l+)!/w! - c_{w+l-} (w+l-)!/w!, where v! is the product of
    the v_j! and a coefficient outside S is absent.  On [0, p)^N, v! is a
    unit mod p, so the diagonal change of basis c -> d scales each column by
    a unit and keeps the rank of every set of rows.  In d each row is 1/w!
    times one of two rows: d_x - d_y when both ends are in S, and d_x when
    the other end leaves the box (it is still >= 0 and in the same
    congruence class, so a coordinate is at least p).  Two points of S are
    joined by a row exactly when they lie in the same integer fiber
    F_b = {v in S : Av = b}: their difference is in L with sup norm at most
    p - 1.  Hence these rows span all of them: {x: 1, y: p - 1} for each
    pair of consecutive members x, y of a fiber, and {v: 1} for one leaking
    member v of each fiber that has one, a v with u = v - l >= 0 and
    max u >= p for some relation l of sup norm at most p - 1.  At most |S|
    rows.

    A leak is found by lifting fibers by p, not by scanning relations.  Such
    a u has Au = b and every u_k <= 2p - 2, so u = s + p e for a point s of
    S and a nonzero e in {0, 1}^N, and s lies in the fiber b - p Ae.
    Conversely, for s in that fiber, v - (s + p e) is a relation, and its
    sup norm is at most p - 1 exactly when v_k > s_k wherever e_k = 1.  So v
    leaks exactly when, for some nonzero e, it exceeds on the support of e
    some member of F_{b - p Ae}: at most |fibers| (2^N - 1) lookups.

    Relations with an entry of magnitude at least p are left out.  Their
    rows do not vanish mod p: each joins a point of S to an exponent outside
    the box, so it is a single-entry row d_x = 0.  Adding them left the
    dimension unchanged on bessel, trinomial and plane2 at p = 7, 11 and 13,
    but not everywhere: on the points 1 and 5 at p = 3 the relation (-5, 1)
    lowers it from 3 to 1.
    """
    p = instance.p
    matrix = instance.config.matrix()
    fibers: dict[IntVec, list[IntVec]] = {}
    for v in support:
        fibers.setdefault(tuple(matvec(matrix, v)), []).append(v)
    # (support of e, p Ae) for each nonzero e in {0, 1}^N
    lifts = [([k for k, x in enumerate(e) if x], [p * x for x in matvec(matrix, e)])
             for e in itertools.product((0, 1), repeat=instance.config.N) if any(e)]
    rows = []
    for b, members in fibers.items():
        for x, y in zip(members, members[1:]):
            rows.append({x: 1, y: p - 1})
        below = []
        for on, shift in lifts:
            lower = fibers.get(tuple(a - d for a, d in zip(b, shift)))
            if lower:
                below.append((on, lower))
        for v in members:
            if any(all(v[k] > s[k] for k in on) for on, lower in below for s in lower):
                rows.append({v: 1})
                break
    return rows


def modp_solution_dim(instance: ModpInstance) -> int:
    """Dimension of the space of box-supported polynomial solutions mod p."""
    support = solution_support(instance)
    ech = ModpEchelon(instance.p)
    for row in recurrence_rows(instance, support):
        ech.insert(row)
    return len(support) - ech.rank


class PrimeResult(NamedTuple):
    p: int
    dim: int
    full: bool

    def to_json(self) -> dict:
        return self._asdict()


class ModpReport(NamedTuple):
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
                   primes: Sequence[int]) -> ModpReport:
    """Per-prime solution dimensions against the characteristic-zero rank.

    Requires a nonresonant parameter.  Primes dividing a denominator of the
    parameter are skipped with a reason, never silently dropped.  A solution
    dimension exceeding the rank is surfaced as a hard failure.  An empty
    prime list is refused, and a sweep whose every prime is skipped says
    that no good prime was tested.  A prime given twice runs once, in the
    place it was first given.  The rank is ``lattice.normalized_volume``,
    n! vol(conv(0 u A)): for a nonresonant alpha that is the rank of the GKZ
    system (Gelfand-Kapranov-Zelevinsky 1989; Adolphson, Duke Math. J. 73,
    1994), so no window is read.
    """
    if not primes:
        raise ValueError("the prime list is empty")
    verdict = is_nonresonant(config, alpha)
    if not verdict.nonresonant:
        form, value = verdict.witness
        raise ResonantError(
            f"parameter is resonant: form {form.coeffs} gives integer {value}")
    rank = normalized_volume(config)
    results = []
    skipped = []
    for p in dict.fromkeys(primes):
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
    if not results:
        verdict_text = "no good prime tested"
    elif not bad:
        verdict_text = "full for all tested good primes"
    else:
        verdict_text = "not full at {" + ", ".join(str(p) for p in bad) + "}"
    return ModpReport(alpha=alpha, rank=rank, primes=results,
                      skipped=skipped, verdict=verdict_text)
