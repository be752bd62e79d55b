"""The package namespace is lazy: `import crownminor` loads no submodule,
and every re-exported name and submodule resolves on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import crownminor

SUBMODULES = ("minors", "solvers", "quasiwide", "generators", "graphio", "digraph")


def fresh_python(code):
    src = os.path.dirname(os.path.dirname(crownminor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.split()


@pytest.mark.parametrize("name", crownminor.__all__)
def test_every_exported_name_is_its_home_modules_object(name):
    obj = getattr(crownminor, name)
    assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_budget_exhausted_is_one_class_in_both_layers():
    from crownminor import digraph, quasiwide

    assert crownminor.BudgetExhausted is digraph.BudgetExhausted is quasiwide.BudgetExhausted


def test_submodules_resolve_after_a_bare_import():
    # the benchmark reaches its layers as attributes of the bare package
    code = ("import crownminor\n"
            "for name in %r:\n"
            "    print(getattr(crownminor, name).__name__)\n" % (SUBMODULES,))
    assert fresh_python(code) == ["crownminor." + name for name in SUBMODULES]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        crownminor.no_such_name
    assert not hasattr(crownminor, "no_such_module")


def test_star_import_binds_all_names():
    code = ("import crownminor\n"
            "from crownminor import *\n"
            "print(*sorted(n for n in crownminor.__all__ if n in globals()))\n")
    assert fresh_python(code) == sorted(crownminor.__all__)
