"""The package namespace is lazy: `import crownminor` loads no submodule,
and every re-exported name and submodule resolves on first use."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import crownminor

SUBMODULES = ("minors", "solvers", "quasiwide", "scattered", "generators", "graphio", "digraph")
# moved out of quasiwide, which still re-exports them
SCATTERED = ("ScatteredWitness", "compute_scattered", "is_scattered", "without_vertices")


def fresh_python(code):
    """Runs code in a new interpreter with bytecode caching off."""
    src = os.path.dirname(os.path.dirname(crownminor.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
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


@pytest.mark.parametrize("name", SCATTERED)
def test_scattered_names_are_one_object_in_every_namespace(name):
    # the benchmark's tracer replaces a function wherever it finds the
    # same object, so a copy in one namespace would escape it
    from crownminor import quasiwide, scattered

    obj = getattr(scattered, name)
    assert getattr(quasiwide, name) is obj
    if name in crownminor.__all__:
        assert getattr(crownminor, name) is obj


def test_compute_scattered_does_not_load_the_dichotomy():
    code = ("import sys\n"
            "import crownminor\n"
            "crownminor.compute_scattered\n"
            "print(*sorted(m for m in sys.modules if m.startswith('crownminor.')))\n")
    assert fresh_python(code) == ["crownminor.digraph", "crownminor.scattered"]


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


# module-level functions and classes kept although nothing in src/
# calls them and neither the package nor the benchmark's tracer names
# them, each with its reason
KEPT_FOR_TESTS = {
    ("solvers", "find_irrelevant_vertex"):
        "acceptance criterion c10 checks the irrelevant-vertex rule on its own",
}


def _unreferenced_definitions():
    """(module, name) of every module-level function and class in the
    package whose name no other part of src/ uses: as a name, an
    attribute or an imported name outside its own definition."""
    defined, owners = [], {}
    for path in sorted(pathlib.Path(crownminor.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                defined.append(owner)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                owners.setdefault(name, set()).add(owner)
    return [d for d in defined if not owners.get(d[1], set()) - {d}]


def test_every_definition_has_a_caller_outside_the_tests():
    # a definition nothing in src/ reaches is re-exported by the package,
    # wrapped by the benchmark's tracer (loaded as test_tracer_names
    # loads it), or kept with a reason; otherwise it belongs in tests/
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = {(module, name) for module, names in crownminor._EXPORTS.items() for name in names}
    for module, names in tracer.WRAPPED.items():
        for name in names:
            obj = getattr(importlib.import_module("crownminor." + module), name)
            named.add((obj.__module__.rpartition(".")[2], obj.__name__))
    loose = [d for d in _unreferenced_definitions()
             if d not in named and d not in KEPT_FOR_TESTS and not d[1].startswith("__")]
    assert loose == []
    assert set(KEPT_FOR_TESTS) <= set(_unreferenced_definitions())
