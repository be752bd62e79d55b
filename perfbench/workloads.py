"""The four workloads: how each query is prepared, run and checked.

A query is a JSON spec stored in ``reference.json`` together with the
outcome recorded for it once (see ``reference.py``). ``prepare`` builds
the library inputs from the spec (set-up time), ``execute`` is the timed
call into the library, and ``check`` compares the answer with the
reference and re-checks any witness with ``checks``.

Why these workloads, and which layers each one is home to:

- minor-search (home: minors). Crowns and alternating paths into small
  random DAG hosts through the DAG and shallow checkers, and small
  cyclic hosts through the general checker, grad and butterfly search.
  Guess enumeration, the DAG product search and branch-set backtracking
  do the work; graph construction and BFS are negligible.
- solve (home: solvers). Random digraphs through the four domination
  solvers, with k on both sides of the optimum. Branching, scattered-set
  probes and exhaustive fallbacks run many reads on small immutable
  graphs. No minor search.
- scatter (home: digraph, generators, graphio, quasiwide). Each query
  generates a sparse host with the library's generators, round-trips it
  through the text format and runs one scattered-set or dichotomy step.
  Construction, whole-graph distance tables and vertex deletions
  dominate: the write side.
- cli (home: cli, witnessdoc, package import). One subprocess per query
  runs ``python -m crownminor.cli --format structured``; interpreter
  start and package import dominate, search work is negligible.
"""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import checks
import instances

NAMES = ("minor-search", "solve", "scatter", "cli")

HOME_LAYERS = {
    "minor-search": ("minors",),
    "solve": ("solvers",),
    "scatter": ("digraph", "generators", "graphio", "quasiwide"),
    "cli": ("cli", "witnessdoc"),
}


class Exhausted:
    """Returned in place of an answer when the library raised
    BudgetExhausted."""


def edge_hash(edges):
    """Short digest of an edge set, to notice a generator whose output
    changed under a stored reference."""
    text = ";".join("%d,%d" % e for e in sorted(edges))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def digraph(lib, n, edges):
    return lib.digraph.Digraph(n, edges)


# ---------------------------------------------------------------------------
# preparation (set-up time)


def prepare(lib, workload, spec, workdir):
    """Library inputs for one query, built once at set-up."""
    if workload == "cli":
        return _prepare_cli(lib, spec, workdir)
    if workload == "scatter":
        return None  # scatter queries build their host inside the timed call
    inp = {}
    if "host" in spec:
        n, edges = instances.host_edges(spec["host"])
        inp["G"] = digraph(lib, n, edges)
    if "pattern" in spec:
        pn, pedges = instances.pattern_edges(spec["pattern"])
        inp["H"] = digraph(lib, pn, pedges)
    return inp


def _prepare_cli(lib, spec, workdir):
    """Writes the query's graph files and returns the argument list with file names filled in."""
    graphs = {}
    for role, name in spec.get("files", {}).items():
        path = os.path.join(workdir, name + ".graph")
        if name.startswith("pattern-"):
            n, edges = instances.pattern_edges(name[len("pattern-"):])
        else:
            n, edges = instances.host_edges(spec["hosts"][name])
        graphs[role] = digraph(lib, n, edges)
        with open(path, "w") as fh:
            fh.write("%d\n" % n)
            fh.writelines("%d %d\n" % e for e in sorted(edges))
    argv = [a.format(**{r: os.path.join(workdir, spec["files"][r] + ".graph")
                        for r in spec.get("files", {})}) for a in spec["argv"]]
    return {"argv": argv, "graphs": graphs}


# ---------------------------------------------------------------------------
# execution (the timed region)


def execute(lib, workload, spec, inp, env=None, trace_out=None):
    """Runs one query against the library and returns its raw answer.
    BudgetExhausted is turned into the Exhausted marker; anything else
    the library raises propagates to the caller. A cli query with
    `trace_out` runs under clichild.py, which writes its span summary
    there."""
    try:
        if workload == "minor-search":
            return _run_minor(lib, spec, inp)
        if workload == "solve":
            return _run_solve(lib, spec, inp)
        if workload == "scatter":
            return _run_scatter(lib, spec)
        return _run_cli(inp, env, trace_out)
    except lib.quasiwide.BudgetExhausted:
        return Exhausted()


def _run_minor(lib, spec, inp):
    m = lib.minors
    entry, p = spec["entry"], spec.get("params", {})
    if entry == "dag_minor_check":
        return m.dag_minor_check(inp["H"], inp["G"])
    if entry == "shallow_minor_check":
        return m.shallow_minor_check(inp["H"], inp["G"], p["depth"])
    if entry == "general_minor_check":
        return m.general_minor_check(inp["H"], inp["G"])
    if entry == "grad":
        return m.grad(inp["G"], p["r"])
    if entry == "is_butterfly_minor":
        return m.is_butterfly_minor(inp["H"], inp["G"])
    raise ValueError("unknown entry %r" % entry)


def _run_solve(lib, spec, inp):
    s = lib.solvers
    entry, p = spec["entry"], spec["params"]
    G, k = inp["G"], p["k"]
    if entry == "independent_dominating_set":
        return s.independent_dominating_set(G, k)
    if entry == "d_dominating_set":
        return s.d_dominating_set(G, k, p["d"])
    if entry == "dominating_outbranching":
        return s.dominating_outbranching(G, k)
    if entry == "independent_set":
        return s.independent_set(G, k)
    raise ValueError("unknown entry %r" % entry)


def scatter_host(lib, host):
    """The scatter workload's host, from the library generators."""
    gen = lib.generators
    fam = host["family"]
    if fam == "bipartite":
        return gen.random_bipartite_outregular(host["n"], host["d"], host["seed"])
    if fam == "grid":
        return gen.oriented_grid(host["l1"], host["l2"], seed=host["seed"])
    if fam == "tournament":
        return gen.random_tournament(host["n"], host["seed"])
    raise ValueError("unknown scatter host %r" % fam)


def scatter_set(G, host, which):
    """Candidate set named in a scatter spec: the B side of a bipartite
    host, every vertex, or an explicit id list."""
    if which == "B":
        return list(range(host["n"], 2 * host["n"]))
    if which == "all":
        return list(range(G.n))
    return list(which)


def _run_scatter(lib, spec):
    host = spec["host"]
    text = lib.graphio.emit_graph(scatter_host(lib, host))
    G = lib.graphio.parse_graph(text)
    qw, p = lib.quasiwide, spec["params"]
    entry = spec["entry"]
    try:
        if entry == "is_scattered":
            return G, qw.is_scattered(G, scatter_set(G, host, p["U"]), p["d"])
        if entry == "compute_scattered":
            return G, qw.compute_scattered(G, scatter_set(G, host, p["W"]), p["d"], p["m"],
                                           p["s_budget"])
        if entry == "dichotomy_step":
            return G, qw.dichotomy_step(G, scatter_set(G, host, p["I"]), p["r"], p["p"],
                                        p["q"])
        if entry == "iterate_dichotomy":
            return G, qw.iterate_dichotomy(G, scatter_set(G, host, p["W"]), p["target_r"],
                                           p["m"], p["q"])
    except qw.BudgetExhausted:
        return G, Exhausted()
    raise ValueError("unknown entry %r" % entry)


def _run_cli(inp, env, trace_out):
    if trace_out is None:
        cmd = [sys.executable, "-m", "crownminor.cli"]
    else:
        cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                            "clichild.py"), trace_out]
    return subprocess.run(cmd + ["--format", "structured"] + inp["argv"],
                          capture_output=True, text=True, env=env, timeout=120)


# ---------------------------------------------------------------------------
# classification and checking


def outcome_class(workload, spec, raw):
    """Short outcome label recorded per query."""
    if isinstance(raw, Exhausted):
        return "exhausted"
    if workload == "minor-search":
        if spec["entry"] == "grad":
            return "value"
        return "found" if raw else "none"
    if workload == "solve":
        return "feasible" if raw.feasible else "infeasible"
    if workload == "scatter":
        res = raw[1]
        if isinstance(res, Exhausted):
            return "exhausted"
        if isinstance(res, bool):
            return "true" if res else "false"
        if res is None:
            return "none"
        return "scattered" if hasattr(res, "members") else "crown"
    return "exhausted" if raw.returncode == 2 else "exit%d" % raw.returncode


def check(lib, workload, spec, inp, raw):
    """Problems with one answer: a verdict or outcome class that differs
    from the reference, or a witness that fails the independent check.
    A witness returned where the reference recorded exhaustion counts
    as correct when it passes the check."""
    expect = spec["expect"]
    got = outcome_class(workload, spec, raw)
    if workload == "cli":
        return _check_cli(lib, spec, inp, raw)
    if workload == "scatter":
        G, res = raw
        problems = []
        if [G.n, edge_hash(G.edges)] != [expect["n"], expect["edges"]]:
            problems.append("generated host differs from the reference host")
        if got != expect["class"] and not (expect["class"] == "exhausted"
                                           and got in ("scattered", "crown")):
            problems.append("outcome %s, reference %s" % (got, expect["class"]))
        return problems + check_scatter(G, spec, res)
    if got != expect["class"] and not (expect["class"] == "exhausted"
                                       and got not in ("none", "infeasible")):
        return ["outcome %s, reference %s" % (got, expect["class"])]
    if workload == "minor-search":
        entry = spec["entry"]
        if entry == "grad":
            if raw != Fraction(expect["value"]):
                return ["grad %s, reference %s" % (raw, expect["value"])]
            return []
        if entry == "is_butterfly_minor" or raw is None:
            return []
        depth = spec.get("params", {}).get("depth")
        if raw.host is not inp["G"] or raw.pattern is not inp["H"] or raw.depth != depth:
            return ["model is for other graphs or another depth"]
        return checks.check_model(inp["H"], inp["G"], raw.branch, raw.edge_image, depth)
    return _check_solve(spec, inp["G"], raw)


def _check_solve(spec, G, out):
    if not out.feasible:
        return []
    p, entry = spec["params"], spec["entry"]
    if entry == "independent_dominating_set":
        return checks.check_dominating(G, out.witness, p["k"], 1, independent=True)
    if entry == "d_dominating_set":
        return checks.check_dominating(G, out.witness, p["k"], p["d"])
    if entry == "dominating_outbranching":
        D, parent = out.witness
        return checks.check_outbranching(G, D, parent, p["k"])
    return checks.check_independent(G, out.witness, p["k"])


def check_scatter(G, spec, res):
    p, host, entry = spec["params"], spec["host"], spec["entry"]
    if isinstance(res, Exhausted) or res is None:
        return []
    if entry == "is_scattered":
        U = scatter_set(G, host, p["U"])
        truth = not checks.check_scattered(G, U, p["d"])
        return [] if res == truth else ["is_scattered says %s" % res]
    if entry == "compute_scattered":
        problems = checks.check_scattered(G, res.members, p["d"], res.deleted, size=p["m"],
                                          within=scatter_set(G, host, p["W"]))
        if len(res.deleted) > p["s_budget"] or res.radius != p["d"]:
            problems.append("deletion budget or radius not honoured")
        return problems
    if entry == "dichotomy_step":
        r, q, size, within = p["r"], p["q"], p["p"], scatter_set(G, host, p["I"])
    else:
        r, q, size, within = p["target_r"], p["q"], p["m"], scatter_set(G, host, p["W"])
    if hasattr(res, "members"):
        problems = checks.check_scattered(G, res.members, res.radius, res.deleted,
                                          size=size, within=within)
        want_r = r + 1 if entry == "dichotomy_step" else r
        if res.radius != want_r:
            problems.append("scattered radius %d, expected %d" % (res.radius, want_r))
        if entry == "dichotomy_step" and len(res.deleted) > math.comb(q, 2):
            problems.append("more than C(q,2) deletions")
        return problems
    if res.host is not G or res.depth is None or res.depth > r:
        return ["crown model for another host or too deep"]
    return check_crown_order(res.pattern, q) or checks.check_model(
        res.pattern, G, res.branch, res.edge_image, res.depth)


def check_crown_order(pattern, q):
    """The pattern of a returned crown model must be the requested crown(q)."""
    pn, pedges = instances.crown_edges(q)
    if pattern.n != pn or frozenset(pattern.edges) != frozenset(pedges):
        return ["crown model of the wrong order"]
    return []


def _check_cli(lib, spec, inp, proc):
    expect = spec["expect"]
    if proc.returncode != expect["exit"]:
        return ["exit code %d, reference %d: %s" % (
            proc.returncode, expect["exit"], proc.stderr.strip()[-200:])]
    kind, out, graphs = expect["kind"], proc.stdout, inp["graphs"]
    if kind == "empty":
        return [] if not out.strip() else ["unexpected output"]
    if kind == "graph":
        try:
            n, edges = checks.parse_graph_text(out)
        except ValueError as err:
            return ["graph output does not parse: %s" % err]
        if [n, edge_hash(edges)] != [expect["n"], expect["edges"]]:
            return ["generated graph differs from the reference"]
        return []
    if kind == "value":
        return [] if out.strip() == expect["value"] else ["printed %r" % out.strip()]
    header = next((line.split() for line in out.splitlines() if line.strip()), [])
    if header != ["kind", kind]:
        return ["document begins %r, reference kind %s" % (" ".join(header), kind)]
    G = graphs["host"]
    try:
        doc = lib.witnessdoc.parse_witness(out, host=G, pattern=graphs.get("pattern"))
    except (ValueError, KeyError, IndexError) as err:
        return ["witness document rejected: %s" % err]
    p = spec["params"]
    if kind == "model":
        H = graphs["pattern"]
        if doc.depth != p.get("depth"):
            return ["model depth %s, requested %s" % (doc.depth, p.get("depth"))]
        return checks.check_model(H, G, doc.branch, doc.edge_image, doc.depth)
    if kind == "crown":
        problems = check_crown_order(doc.pattern, p["q"])
        return problems or checks.check_model(doc.pattern, G, doc.branch, doc.edge_image,
                                              p["r"])
    if kind == "scattered":
        return checks.check_scattered(G, doc.members, p["radius"], doc.deleted,
                                      size=p["size"])
    if kind == "dominating":
        return checks.check_dominating(G, doc, p["k"], p.get("d", 1),
                                       independent=p.get("independent", False))
    if kind == "independent":
        return checks.check_independent(G, doc, p["k"])
    if kind == "outbranching":
        D, parent = doc
        return checks.check_outbranching(G, D, parent, p["k"])
    return ["unknown reference kind %r" % kind]
