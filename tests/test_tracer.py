"""The benchmark's tracer wraps gkzkit entry points by name; every name it
lists must resolve, or a traced benchmark run silently loses its spans."""

import importlib
import importlib.util
import pathlib

from gkzkit.catalog import builtin_config
from gkzkit.derham import CohomologyWindow
from gkzkit.laurent import ConeSupport

TRACER = pathlib.Path(__file__).parent.parent / "bench" / "traced_job.py"


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
