"""Directed-graph structure toolkit: crowns, shallow directed minors,
scattered sets, the crown-or-scattered dichotomy, and parameterized
domination solvers, each paired with verifiers and brute-force oracles.

`import crownminor` loads no submodule. A name below is imported from
its home module on first use (PEP 562 `__getattr__`), and so is a
submodule reached as an attribute (`crownminor.minors`), so each
command-line command compiles only the layers it runs.
"""

import importlib

# every submodule, with the names the package re-exports from it
_EXPORTS = {
    "cli": (),
    "density": (),
    "digraph": (
        "BudgetExhausted", "Digraph", "GraphError", "UndirectedGraph", "bidirect",
        "count_alternations", "in_neighborhood", "is_dag", "is_directed_bipartite",
        "out_neighborhood", "set_neighborhood", "topological_order", "underlying_undirected",
    ),
    "generators": (
        "acyclic_tournament", "alternating_path", "crown_pattern_probability",
        "extract_grid_alternating_path", "oriented_grid", "random_bipartite_outregular",
        "random_tournament", "reversed_crown",
    ),
    "graphio": ("GraphFormatError", "emit_graph", "parse_graph"),
    "minors": (
        "IntervalPartition", "dag_disjoint_paths", "dag_disjoint_paths_bounded",
        "dag_minor_check", "general_minor_check", "grad", "is_butterfly_minor",
        "shallow_minor_check", "topological_minor_check",
    ),
    "quasiwide": (
        "ControlledBipartite", "ControlledCrown", "build_controlled_bipartite",
        "dichotomy_step", "iterate_dichotomy",
    ),
    "rng": (),
    "scattered": ("compute_scattered",),
    "selftest": (),
    "solvers": (
        "DominationInstance", "SolveOutcome", "brute_force_solve", "d_dominating_set",
        "directed_steiner_outtree", "dominating_outbranching", "independent_dominating_set",
        "independent_set",
    ),
    "verify": ("DirectedModel", "ScatteredWitness", "crown", "is_scattered", "verify_model"),
    "witnessdoc": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value
