"""Command-line front end: analyze, rank, verify, modp.

Every report embeds the job description and the toolkit version; ``rank
--lambda random`` and ``modp``, which draw a random specialization, also
embed its seed.  Rerunning a job with the same arguments reproduces
byte-identical output.  Exit codes: 0 success, 1 identity-check failure or
a generic rank that is not the normalized volume (on Z^n at any parameter,
on U0 and U at a nonresonant one), 2 invalid configuration or arguments,
3 dimension not stabilized, 4 resonant parameter where nonresonance is
required.

Each ``cmd_*`` imports the modules it runs, so a process loads only the
code of its subcommand; the module scope holds what ``analyze`` and the
error handling of ``main`` need.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _emit(payload: dict, out_path: str | None) -> None:
    text = dump_json(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _job_block(args, config, config_label: str) -> dict:
    job = {
        "command": args.command,
        "config": {"points": [list(p) for p in config.points], "label": config_label},
    }
    # rank with a random lambda and modp draw their specialization from the
    # seed; analyze has none, and an explicit lambda draws nothing
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


def _default_bound(args, config) -> None:
    """Fill in --bound when it was not given, by ``window.default_bound``."""
    from .window import default_bound

    if args.bound is None:
        args.bound = default_bound(config.n)


def _not_stabilized(exc: NotStabilizedError) -> dict:
    return {"kind": "NotStabilized", "dims": list(exc.dims), "bound": exc.bound}


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
    from .window import (ConeSupport, FullSupport, cohomology_U_dim, generic_rank,
                         quasi_iso_check, require_stabilized, require_volume,
                         top_cohomology_dim)

    config, label = _resolve_config(args.config)
    _default_bound(args, config)
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
            # as on the torus, a random lambda at a nonresonant alpha must
            # read the volume
            checked = args.lam == "random" and is_nonresonant(config, alpha).nonresonant
            result["U"] = require_volume(config, rep, checked).to_json()
    except NotStabilizedError as exc:
        result["error"] = _not_stabilized(exc)
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
    _default_bound(args, config)
    alpha = _parse_alpha_arg(args.alpha)
    primes = [int(p.strip()) for p in args.primes.split(",") if p.strip()]
    try:
        report = full_set_sweep(config, alpha, primes, bound=args.bound,
                                seed=args.seed)
    except ResonantError as exc:
        _emit({"job": _job_block(args, config, label),
               "result": {"error": {"kind": "Resonant", "message": str(exc)}}},
              args.out)
        return EXIT_RESONANT
    except NotStabilizedError as exc:
        _emit({"job": _job_block(args, config, label),
               "result": {"error": _not_stabilized(exc)}}, args.out)
        return EXIT_NOT_STABILIZED
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
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.add_argument("--bound", type=int, help=BOUND_HELP)
    return parser


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
    except (NotGeneratingError, DuplicatePointError, StructureError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_BAD_CONFIG
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"bad input: {exc}\n")
        return EXIT_BAD_CONFIG
    except GkzError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED
    parser.error("unknown command")
    return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
