"""The benchmark's tracer wraps gkzkit entry points by name; every name it
lists must resolve, or a traced benchmark run silently loses its spans."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from gkzkit.catalog import builtin_config
from gkzkit.window import CohomologyWindow, ConeSupport

ROOT = pathlib.Path(__file__).parent.parent
TRACER = ROOT / "bench" / "traced_job.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("traced_job", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for mod_name, fn_name in tracer.FUNCTIONS:
        module = importlib.import_module(f"gkzkit.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)
    for mod_name, cls_name, meth, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"gkzkit.{mod_name}"), cls_name, None)
        assert callable(getattr(cls, meth, None)), (mod_name, cls_name, meth)


def test_tracer_window_value_on_a_cone_window():
    tracer = load_tracer()
    value = next(value for *_, name, value in tracer.METHODS
                 if name == "derham.CohomologyWindow")
    tri = builtin_config("trinomial")
    win = CohomologyWindow(tri, ConeSupport(tri), 2)
    assert value((win,), None) == [len(win.points), True]


# one job per subcommand that loads modules of its own
TRACED_JOBS = [
    ["rank", "--config", "trinomial", "--alpha=1/3,1/5", "--bound", "3",
     "--hypersurface"],
    ["verify", "--config", "cusp"],
    ["modp", "--config", "single", "--alpha=1/2", "--primes", "5"],
]


def traced_spans(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code and span names of one job run under the benchmark's tracer."""
    read, write = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, str(TRACER), str(write), *argv],
                            stdout=subprocess.DEVNULL, env=env, pass_fds=(write,))
    os.close(write)
    with os.fdopen(read) as fh:
        trace = json.load(fh)
    return proc.wait(timeout=300), {span[0] for span in trace["spans"]}


def test_traced_jobs_answer_with_spans():
    names = set()
    for argv in TRACED_JOBS:
        code, spans = traced_spans(argv)
        assert code == 0, argv
        assert "cli.main" in spans, argv
        names |= spans
    assert {"derham.CohomologyWindow", "linalg.RationalEchelon.insert",
            "lattice.cone_facets"} <= names


def test_traced_jobs_keep_entry_point_spans():
    # the tracer patches the modules listed in sys.modules after importing
    # gkzkit.cli; the package enters every module there before it runs, so
    # functions of the modules a subcommand loads on demand are wrapped too
    names = set()
    for argv in TRACED_JOBS:
        names |= traced_spans(argv)[1]
    assert {"derham.generic_rank", "derham.quasi_iso_check",
            "hypersurface.cohomology_U_dim", "laurent.ConeSupport.contains",
            "verify.run_battery", "modp.modp_solution_dim"} <= names
