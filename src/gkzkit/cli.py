"""Command-line front end: analyze, rank, verify, modp.

Every report embeds the job description and the toolkit version; ``rank
--lambda random``, the one job that draws a random specialization, also
embeds its seed.  Rerunning a job with the same arguments reproduces
byte-identical output.  Exit codes: 0 success, 1 identity-check failure, a
generic rank that is not the normalized volume (on Z^n and U0 at any
parameter, on U at a nonresonant one) or a mod-p dimension above it, 2 invalid
configuration or arguments, or a report that cannot be written (to stdout or
to ``--out``; stderr reads ``cannot write the report: ...``), 3 dimension not
stabilized (``rank`` only), 4 resonant parameter where nonresonance is
required.

Each ``cmd_*`` imports the modules it runs, so a process loads only the
code of its subcommand; the module scope holds what ``analyze`` and the
error handling of ``main`` need.

A ``gkz`` process, the installed script or ``python -m gkzkit.cli``, runs
``entry``: ``main``, then a flush of stdout and stderr, then ``os._exit``.
The interpreter's teardown would free every object of a process that is
about to end, at a cost of the order of a short job's own computation
(mypy's ``util.hard_exit`` skips it for the same reason).  ``main`` returns
its exit code and never ends the process, because its callers in the same
process, the tests and the benchmark's tracer, go on after it.  A
``SystemExit`` from argparse and any uncaught exception leave ``entry``
before the hard exit; a process under a tracer or profiler, which writes
its results at exit, ends through ``sys.exit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .catalog import BUILTIN_POINTS, builtin_alpha, builtin_config, builtin_names
from .errors import (DuplicatePointError, GkzError, NotGeneratingError,
                     NotStabilizedError, ResonantError, StructureError)
from .jsonio import dump_json, load_config, parse_alpha, parse_fraction
from .lattice import (cone_facets, is_nonresonant, relation_lattice)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NOT_STABILIZED = 3
EXIT_RESONANT = 4

BOUND_HELP = "window bound; default max(4, n + 1) for points in Z^n"
SEED_HELP = "seed of the random parameter specialization"
# modp's rank is the normalized volume, which reads no window and draws no
# specialization: its --bound and --seed are still accepted, so that existing
# command lines run, under names that no job block reads, and change nothing
NO_EFFECT_HELP = "no effect: the rank is the normalized volume"

# the names ``rank --supports`` accepts, by the support they stand for
SUPPORT_NAMES = {"zn": "Z^n", "u0": "U0"}


def _resolve_config(text: str):
    """Builtin name, inline JSON, or a path to a JSON file."""
    if text is None:
        raise ValueError("--config is required")
    if text in BUILTIN_POINTS:
        return builtin_config(text), text
    if text.strip().startswith("{"):
        return load_config(text), "inline"
    with open(text, "r", encoding="utf-8") as fh:
        return load_config(fh.read()), text


def _parse_alpha_arg(text: str | None):
    if text is None:
        raise ValueError("--alpha is required")
    return parse_alpha([part.strip() for part in text.split(",") if part.strip()])


class ReportWriteError(Exception):
    """The report could not be written; its message is the OSError's."""


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the report and flush it, so that no report bytes wait for exit."""
    text = dump_json(payload)
    if not out_path and sys.stdout is None:     # fd 1 was not open at start-up
        raise ReportWriteError("stdout is closed")
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            # the bytes left in the buffer would fail every later flush, the
            # one at exit included: stdout now discards them
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ReportWriteError(exc) from exc


def _job_block(args, config, config_label: str) -> dict:
    job = {
        "command": args.command,
        "config": {"points": [list(p) for p in config.points], "label": config_label},
    }
    # rank with a random lambda draws its specialization from the seed;
    # analyze and modp have none, and an explicit lambda draws nothing
    if hasattr(args, "seed") and getattr(args, "lam", "random") == "random":
        job["seed"] = args.seed
    job["version"] = __version__
    if getattr(args, "alpha", None):
        job["alpha"] = args.alpha
    if getattr(args, "lam", None):
        job["lambda"] = args.lam
    if getattr(args, "bound", None):
        job["bound"] = args.bound
    if getattr(args, "primes", None):
        job["primes"] = args.primes
    return job


def cmd_analyze(args) -> int:
    config, label = _resolve_config(args.config)
    alpha = _parse_alpha_arg(args.alpha) if args.alpha else None
    lattice = relation_lattice(config)
    facets = cone_facets(config)
    result = {
        "n": config.n,
        "N": config.N,
        "relation_basis": [list(l) for l in lattice.basis],
        "relation_rank": lattice.rank,
        "facets": [list(f.coeffs) for f in facets],
    }
    if alpha is not None:
        verdict = is_nonresonant(config, alpha)
        result["nonresonant"] = verdict.nonresonant
        result["vacuous"] = verdict.vacuous
        if verdict.witness is not None:
            form, value = verdict.witness
            result["witness"] = {"facet": list(form.coeffs), "value": value}
    _emit({"job": _job_block(args, config, label), "result": result}, args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    from .window import (ConeSupport, FullSupport, cohomology_U_dim, default_bound,
                         generic_rank, quasi_iso_check, require_stabilized,
                         require_volume, top_cohomology_dim)

    config, label = _resolve_config(args.config)
    if args.bound is None:
        args.bound = default_bound(config.n)
    alpha = _parse_alpha_arg(args.alpha)
    chosen = set()
    for name in args.supports.split(","):
        name = name.strip().lower()
        if name not in SUPPORT_NAMES:
            raise ValueError(f"unknown support {name!r}")
        chosen.add(SUPPORT_NAMES[name])
    if args.lam != "random":
        lam = tuple(parse_fraction(part.strip()) for part in args.lam.split(","))
    result: dict = {"supports": {}}
    reports = {}
    try:
        # a set of supports, run in nesting order whatever order it was given in
        for name in [name for name in ("Z^n", "U0") if name in chosen]:
            support = FullSupport(config.n) if name == "Z^n" else ConeSupport(config)
            if args.lam == "random":
                rep = generic_rank(config, alpha, support, args.bound,
                                   seed=args.seed)
            else:
                rep = require_stabilized(top_cohomology_dim(
                    config, alpha, lam, support, args.bound))
            reports[name] = rep
            result["supports"][name] = rep.to_json()
        if len(reports) == 2:
            result["quasi_iso"] = quasi_iso_check(reports["U0"], reports["Z^n"]).to_json()
        # the complement side takes the first support's specialization; the
        # reports' windows and echelons are let go before it runs
        u_lam = next(iter(reports.values())).lam
        del rep, reports
        if args.hypersurface:
            rep = cohomology_U_dim(config, alpha, u_lam, args.bound)
            # as on the torus, a random lambda must read the volume, but on U
            # only at a nonresonant alpha (cohomology_U_dim says why)
            if args.lam == "random" and is_nonresonant(config, alpha).nonresonant:
                result["U"] = require_volume(config, rep).to_json()
            else:
                result["U"] = require_stabilized(rep).to_json()
    except NotStabilizedError as exc:
        result["error"] = {"kind": "NotStabilized", "complex": exc.complex_id,
                           "dims": list(exc.dims), "bound": exc.bound}
        _emit({"job": _job_block(args, config, label), "result": result}, args.out)
        return EXIT_NOT_STABILIZED
    _emit({"job": _job_block(args, config, label), "result": result}, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_battery

    if args.alpha and not args.config:
        dims = sorted({len(points[0]) for points in BUILTIN_POINTS.values()})
        raise ValueError(f"--alpha needs --config: no parameter fits builtins "
                         f"of dimensions {', '.join(map(str, dims))}")
    names = [args.config] if args.config else builtin_names()
    jobs = []
    for name in names:
        config, label = _resolve_config(name)
        if name in BUILTIN_POINTS and not args.alpha:
            alpha = builtin_alpha(name)
        elif args.alpha:
            alpha = _parse_alpha_arg(args.alpha)
        else:
            raise ValueError("--alpha is required for a non-builtin configuration")
        jobs.append((config, label, alpha))
    # the relations have rank N - n; without one the perturbed commutation
    # check has no sample, and a negative control that cannot fail would pass
    if args.perturb_beta and all(config.N == config.n for config, _, _ in jobs):
        raise ValueError("--perturb-beta needs a configuration with a relation")
    overall_ok = True
    sections = []
    for config, label, alpha in jobs:
        battery = run_battery(config, alpha, perturb_beta=args.perturb_beta)
        sections.append({"config": label, "alpha": [str(a) for a in alpha.entries],
                         **battery.to_json()})
        overall_ok = overall_ok and battery.ok
    payload = {
        "job": {
            "command": "verify",
            "configs": names,
            "perturb_beta": args.perturb_beta,
            "version": __version__,
        },
        "result": {"ok": overall_ok, "batteries": sections},
    }
    _emit(payload, args.out)
    return EXIT_OK if overall_ok else EXIT_CHECK_FAILED


def cmd_modp(args) -> int:
    from .modp import full_set_sweep

    config, label = _resolve_config(args.config)
    alpha = _parse_alpha_arg(args.alpha)
    primes = [int(p.strip()) for p in args.primes.split(",") if p.strip()]
    try:
        report = full_set_sweep(config, alpha, primes)
    except ResonantError as exc:
        _emit({"job": _job_block(args, config, label),
               "result": {"error": {"kind": "Resonant", "message": str(exc)}}},
              args.out)
        return EXIT_RESONANT
    _emit({"job": _job_block(args, config, label), "result": report.to_json()},
          args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz",
        description="Exact toolkit for hypergeometric systems attached to "
                    "lattice point configurations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="builtin name, JSON file path, or inline JSON")
        p.add_argument("--alpha", help="comma-separated rational entries, e.g. 1/3,1/5")
        p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("analyze", help="lattice of relations, facets, nonresonance")
    common(p)

    p = sub.add_parser("rank", help="top cohomology dimensions over supports")
    common(p)
    p.add_argument("--lambda", dest="lam", default="random",
                   help='"random" or comma-separated rationals')
    p.add_argument("--bound", type=int, help=BOUND_HELP)
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.add_argument("--supports", default="zn,u0", help="comma-separated: zn, u0")
    p.add_argument("--hypersurface", action="store_true",
                   help="also compute the complement-side dimension")

    p = sub.add_parser("verify", help="exact identity battery")
    common(p)
    p.add_argument("--perturb-beta", action="store_true",
                   help="negative control: shift the commutation parameter off by one")

    p = sub.add_parser("modp", help="mod-p solution dimensions against the rank")
    common(p)
    p.add_argument("--primes", default="3,5,7,11,13,17,19,23")
    p.add_argument("--seed", type=int, dest="unused_seed", metavar="SEED",
                   help=NO_EFFECT_HELP)
    p.add_argument("--bound", type=int, dest="unused_bound", metavar="BOUND",
                   help=NO_EFFECT_HELP)
    return parser


def _say(message: str) -> None:
    """One line on stderr, unless stderr is closed (sys.stderr is None)."""
    if sys.stderr is not None:
        sys.stderr.write(message + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "rank":
            return cmd_rank(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "modp":
            return cmd_modp(args)
    except ReportWriteError as exc:
        _say(f"cannot write the report: {exc}")
        return EXIT_BAD_CONFIG
    except (NotGeneratingError, DuplicatePointError, StructureError) as exc:
        _say(f"invalid configuration: {exc}")
        return EXIT_BAD_CONFIG
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _say(f"bad input: {exc}")
        return EXIT_BAD_CONFIG
    except GkzError as exc:
        _say(f"error: {exc}")
        return EXIT_CHECK_FAILED
    parser.error("unknown command")
    return EXIT_BAD_CONFIG


def _observed() -> bool:
    """Whether a tracer or profiler watches this process."""
    monitoring = getattr(sys, "monitoring", None)     # Python 3.12 and later
    return (sys.gettrace() is not None or sys.getprofile() is not None
            # sys.monitoring has the tool ids 0 to 5
            or (monitoring is not None
                and any(monitoring.get_tool(tool) is not None for tool in range(6))))


def entry(argv=None) -> NoReturn:
    """Run ``main`` and end the process with its exit code, without teardown."""
    code = main(argv)
    for stream in filter(None, (sys.stdout, sys.stderr)):     # None if closed
        stream.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
