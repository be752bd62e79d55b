"""The benchmark's tracer wraps library functions by name; every name it
lists must still exist, or a traced benchmark run fails at install."""

import importlib
import importlib.util
import pathlib

from crownminor.digraph import Digraph

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for module, attrs in tracer.WRAPPED.items():
        mod = importlib.import_module("crownminor." + module)
        missing += ["%s.%s" % (module, a) for a in attrs if not callable(getattr(mod, a, None))]
    assert missing == []
    assert "__init__" in vars(Digraph)
