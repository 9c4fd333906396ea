"""Run one gkz job in this process with a span around each layer's entry points.

    python3 bench/traced_job.py <fd> <gkz arguments...>

Wraps the entry points in FUNCTIONS and METHODS wherever a gkzkit module
binds them, runs ``gkzkit.cli.main`` on the arguments inside a root span,
and, when the job ends, writes the spans and echelon statistics as one JSON
document to the inherited file descriptor <fd>.  The job's own output and
exit code are those of ``gkz``.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, function): wrapped in every gkzkit module that binds the function
FUNCTIONS = [
    ("lattice", "cone_facets"), ("lattice", "is_nonresonant"),
    ("laurent", "apply_D"),
    ("derham", "nabla"), ("derham", "check_complex"),
    ("derham", "homotopy_identity_check"), ("derham", "twist_conjugation_check"),
    ("derham", "top_cohomology_dim"), ("derham", "generic_rank"),
    ("derham", "quasi_iso_check"),
    ("hypersurface", "cohomology_U_dim"), ("hypersurface", "check_gamma_chain_map"),
    ("hypersurface", "check_split_matches_nabla"),
    ("hypersurface", "kernel_equals_dv_image"),
    ("weyl", "check_commutation"), ("weyl", "check_phi_intertwines"),
    ("weyl", "check_phi_kills_box"),
    ("modp", "recurrence_rows"), ("modp", "solution_support"),
    ("modp", "modp_solution_dim"),
    ("verify", "run_battery"),
]

# (module, class, method, span name, value recorded on the span)
METHODS = [
    ("linalg", "RationalEchelon", "insert", "linalg.RationalEchelon.insert",
     lambda args, grew: int(grew)),
    ("linalg", "ModpEchelon", "insert", "linalg.ModpEchelon.insert",
     lambda args, grew: int(grew)),
    ("laurent", "ConeSupport", "contains", "laurent.ConeSupport.contains", None),
    ("derham", "CohomologyWindow", "__init__", "derham.CohomologyWindow",
     lambda args, _: [len(args[0].points),
                      type(args[0].support).__name__ == "ConeSupport"]),
]

VALUES = {"modp.recurrence_rows": lambda args, rows: len(rows)}


class Tracer:
    """Spans [name, start, end, parent index, value], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(args, result)
            return result
        return traced


def install(tracer: Tracer) -> list:
    """Wrap every entry point; returns the list that collects echelons."""
    import gkzkit.cli  # noqa: F401  (loads every module that binds an entry point)

    modules = [m for name, m in sys.modules.items()
               if name == "gkzkit" or name.startswith("gkzkit.")]
    for mod_name, fn_name in FUNCTIONS:
        original = getattr(importlib.import_module(f"gkzkit.{mod_name}"), fn_name)
        name = f"{mod_name}.{fn_name}"
        wrapped = tracer.wrap(name, original, VALUES.get(name))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapped)
    for mod_name, cls_name, meth, name, value in METHODS:
        cls = getattr(importlib.import_module(f"gkzkit.{mod_name}"), cls_name)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), value))

    echelons: list = []
    from gkzkit.linalg import RationalEchelon
    init = RationalEchelon.__init__

    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        echelons.append(self)
    RationalEchelon.__init__ = register
    return echelons


def echelon_stats(echelons: list) -> dict:
    fill = 0
    max_bits = 0
    for ech in echelons:
        for row in ech.rows.values():
            fill += len(row)
            for c in row.values():
                max_bits = max(max_bits, abs(c).bit_length())
    return {"fill": fill, "max_bits": max_bits}


def main(argv: list[str]) -> int:
    fd = int(argv[0])
    tracer = Tracer()
    echelons = install(tracer)
    from gkzkit.cli import main as gkz_main
    try:
        return tracer.wrap("cli.main", gkz_main)(argv[1:])
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as fh:
            json.dump({"spans": tracer.spans, **echelon_stats(echelons)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
