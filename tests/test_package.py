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

SUBMODULES = ("minors", "solvers", "quasiwide", "scattered", "generators", "graphio", "digraph",
              "verify")
# moved out of quasiwide into scattered and verify; quasiwide still
# re-exports them
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
    from crownminor import quasiwide, scattered, verify

    home = verify if hasattr(verify, name) else scattered
    obj = getattr(home, name)
    assert getattr(quasiwide, name) is obj
    assert getattr(scattered, name, obj) is obj
    if name in crownminor.__all__:
        assert getattr(crownminor, name) is obj


def test_every_check_is_one_object_in_every_namespace():
    # the checks moved to verify; an engine that still holds one of its
    # names (minors.verify_model, generators.crown, ...) holds verify's
    # object, so the tracer wraps every call path
    from crownminor import verify

    names = [n for n, obj in vars(verify).items()
             if getattr(obj, "__module__", None) == verify.__name__]
    for module in SUBMODULES + ("cli", "density", "selftest", "witnessdoc"):
        ns = vars(importlib.import_module("crownminor." + module))
        assert [n for n in names if n in ns and ns[n] is not getattr(verify, n)] == []


def test_compute_scattered_does_not_load_the_dichotomy():
    code = ("import sys\n"
            "import crownminor\n"
            "crownminor.compute_scattered\n"
            "print(*sorted(m for m in sys.modules if m.startswith('crownminor.')))\n")
    assert fresh_python(code) == ["crownminor.digraph", "crownminor.scattered",
                                  "crownminor.verify"]


def test_verify_imports_only_digraph_and_the_standard_library():
    # the trust base stays small and apart from the engines it checks
    path = pathlib.Path(crownminor.__file__).parent / "verify.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    local = [name for name in imported if name.startswith(".")]
    assert local == [".digraph"]
    assert [name for name in imported if not name.startswith(".")
            and name.partition(".")[0] not in sys.stdlib_module_names] == []


# the path 0 -> 1 -> 2 as (n, edges)
PATH3 = (3, [(0, 1), (1, 2)])


def _one_document_per_kind():
    """kind -> (document text, (host, pattern)), each graph as (n, edges)."""
    from crownminor.digraph import Digraph
    from crownminor.minors import general_minor_check
    from crownminor.quasiwide import dichotomy_step
    from crownminor.verify import ScatteredWitness, crown
    from crownminor.witnessdoc import (
        emit_model, emit_outbranching, emit_scattered, emit_vertex_set,
    )

    edge, path = Digraph(2, [(0, 1)]), Digraph(*PATH3)
    crown3, principals = crown(3)
    crown_model = dichotomy_step(crown3, principals, 0, p=2, q=3)
    return {
        "model": (emit_model(general_minor_check(edge, path)), (PATH3, (2, [(0, 1)]))),
        "crown": (emit_model(crown_model, kind="crown", params=[("order", 3)]),
                  ((crown3.n, sorted(crown3.edges)), None)),
        "scattered": (emit_scattered(ScatteredWitness(path, (), (0,), 1)), (PATH3, None)),
        "dominating": (emit_vertex_set("dominating", path, (0, 2), d=1, independent=True),
                       (PATH3, None)),
        "independent": (emit_vertex_set("independent", path, (0, 2), d=1), (PATH3, None)),
        "outbranching": (emit_outbranching(path, (0, 1), {0: None, 1: 0}), (PATH3, None)),
    }


@pytest.mark.parametrize("kind", ["model", "crown", "scattered", "dominating", "independent",
                                  "outbranching"])
def test_reading_a_document_loads_no_engine(kind):
    doc, (host, pattern) = _one_document_per_kind()[kind]
    assert doc.startswith("kind %s\n" % kind) and "verified true" in doc
    code = ("import sys\n"
            "from crownminor.digraph import Digraph\n"
            "from crownminor.witnessdoc import parse_witness\n"
            "host, pattern = %r\n"
            "parse_witness(%r, host=Digraph(*host), pattern=pattern and Digraph(*pattern))\n"
            "print(*sorted(m for m in sys.modules if m.startswith('crownminor.')))\n"
            % ((host, pattern), doc))
    assert fresh_python(code) == ["crownminor.digraph", "crownminor.verify",
                                  "crownminor.witnessdoc"]


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
