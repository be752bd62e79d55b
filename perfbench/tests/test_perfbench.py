"""Tests of the benchmark itself: the independent checker, the tracer's
self-time arithmetic, and a smoke run of every workload on a tiny
query list.

    python3 -m pytest perfbench/tests -q
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

lib = run.import_library()


def crown_model():
    """A verified crown(2) model in a small DAG host."""
    H = lib.Digraph(*instances.crown_edges(2))
    G = lib.Digraph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 4)])
    model = lib.dag_minor_check(H, G)
    assert model is not None
    return H, G, model


def test_patterns_match_library():
    for q in (2, 3, 4):
        assert lib.Digraph(*instances.crown_edges(q)) == lib.crown(q)[0]
    for k in (1, 2, 3, 4):
        assert lib.Digraph(*instances.alternating_path_edges(k)) == lib.alternating_path(k)


def test_checker_accepts_a_valid_model():
    H, G, model = crown_model()
    assert checks.check_model(H, G, model.branch, model.edge_image) == []


def test_checker_rejects_broken_models():
    H, G, model = crown_model()
    branch, image = dict(model.branch), dict(model.edge_image)
    e = sorted(image)[0]
    no_image = {k: v for k, v in image.items() if k != e}
    assert checks.check_model(H, G, branch, no_image)
    x, y = image[e]
    flipped = dict(image)
    flipped[e] = (y, x)  # the reversed edge is not in the acyclic host
    assert checks.check_model(H, G, branch, flipped)
    overlap = dict(branch)
    overlap[1] = frozenset(branch[1]) | frozenset(branch[0])
    assert checks.check_model(H, G, overlap, image)
    foreign = dict(branch)
    foreign[0] = frozenset(branch[0]) | {99}
    assert any("out of range" in p for p in checks.check_model(H, G, foreign, image))


def test_checker_rejects_out_of_range_ids():
    G = lib.Digraph(3, [(0, 1), (1, 2)])
    assert any("out of range" in p for p in checks.check_scattered(G, [7, 8, 9], 1))
    assert any("out of range" in p for p in checks.check_independent(G, [100, 200], 2))
    assert any("out of range" in p for p in checks.check_dominating(G, [0, 99], 3))
    assert any("out of range" in p for p in checks.check_outbranching(G, [99], {99: None}, 3))
    assert any("out of range" in p for p in checks.check_outbranching(
        G, [0, 1, 2], {0: None, 1: 0, 2: -1}, 3))


def test_checker_predicates_on_small_cases():
    G = lib.Digraph(4, [(0, 1), (0, 2), (3, 2)])
    assert checks.check_scattered(G, [1, 2], 1)  # 0 reaches both
    assert checks.check_scattered(G, [1, 2], 1, deleted=[0]) == []
    assert checks.check_dominating(G, [0, 3], 2) == []
    assert checks.check_dominating(G, [0], 1)  # 3 undominated
    assert checks.check_independent(G, [1, 2, 3], 3)  # edge 3 -> 2
    assert checks.check_independent(G, [1, 2], 2) == []
    assert checks.check_outbranching(G, [0, 2, 3], {0: None, 2: 0, 3: 2}, 3)
    T = lib.Digraph(3, [(0, 1), (1, 2)])
    assert checks.check_outbranching(T, [0, 1], {0: None, 1: 0}, 2) == []


def test_checker_rejects_a_wrong_verdict():
    G = lib.Digraph(3, [(0, 1), (1, 2)])
    spec = {"entry": "independent_set", "params": {"k": 2},
            "expect": {"class": "infeasible"}}
    out = lib.independent_set(G, 2)
    assert out.feasible
    assert workloads.check(lib, "solve", spec, {"G": G}, out)
    spec["expect"]["class"] = "feasible"
    assert workloads.check(lib, "solve", spec, {"G": G}, out) == []
    H, host, model = crown_model()
    spec = {"entry": "dag_minor_check", "expect": {"class": "none"}}
    assert workloads.check(lib, "minor-search", spec, {"G": host, "H": H}, model)
    spec = {"entry": "dag_minor_check", "expect": {"class": "found"}}
    assert workloads.check(lib, "minor-search", spec, {"G": host, "H": H}, None)
    assert workloads.check(lib, "minor-search", spec, {"G": host, "H": H}, model) == []


def cli_crown_check(doc, q):
    """Problems the cli check finds in `doc`, printed for a dichotomy
    query whose reference is a crown of order q."""
    G = lib.Digraph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 4)])
    spec = {"params": {"q": q, "r": 4}, "expect": {"exit": 0, "kind": "crown"}}
    proc = subprocess.CompletedProcess([], 0, stdout=doc, stderr="")
    return workloads.check(lib, "cli", spec, {"graphs": {"host": G}}, proc)


def test_cli_check_rejects_a_crown_of_the_wrong_order():
    H, G, model = crown_model()
    doc = lib.witnessdoc.emit_model(model, kind="crown", params=[("order", 2)])
    assert cli_crown_check(doc, 2) == []
    assert cli_crown_check(doc, 3) == ["crown model of the wrong order"]


def test_cli_check_rejects_a_document_of_the_wrong_kind():
    G = lib.Digraph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 4)])
    w = lib.quasiwide.ScatteredWitness(G, (), (2, 4), 1)
    doc = lib.witnessdoc.emit_scattered(w)
    problems = cli_crown_check(doc, 2)
    assert len(problems) == 1 and "reference kind crown" in problems[0]


@pytest.fixture
def clock(monkeypatch):
    now = [0]
    monkeypatch.setattr(tracer, "perf_counter_ns", lambda: now[0])
    return now


def test_tracer_self_time_on_a_synthetic_nest(clock):
    t = tracer.Tracer()
    # A [0, 100] holds B [10, 30] and C [40, 70]; C holds D [45, 55]
    script = [("open", "x.A", 0), ("open", "x.B", 10), ("close", "x.B", 30),
              ("open", "y.C", 40), ("open", "x.D", 45), ("close", "x.D", 55),
              ("close", "y.C", 70), ("close", "x.A", 100)]
    stack = []
    for op, name, at in script:
        clock[0] = at
        if op == "open":
            stack.append(t.open_span(name))
        else:
            t.close_span(stack.pop())
    s = t.summary()
    assert {k: (v["ns"], v["self_ns"]) for k, v in s.items()} == {
        "x.A": (100, 50), "x.B": (20, 20), "y.C": (30, 20), "x.D": (10, 10)}
    assert sum(v["self_ns"] for v in s.values()) == 100
    assert list(t.parent) == [-1, 0, 0, 2]


def test_tracer_times_generators_per_yield(clock):
    def produce():
        for i in range(3):
            clock[0] += 5
            yield i

    t = tracer.Tracer()
    wrapped = t.span("m.produce", produce)
    got = []
    for item in wrapped():
        clock[0] += 100  # consumer work, outside the generator's spans
        got.append(item)
    assert got == [0, 1, 2]
    s = t.summary()["m.produce"]
    assert s["calls"] == 4 and s["ns"] == 15 and s["self_ns"] == 15


def test_tracer_installs_everywhere_and_uninstalls():
    orig = lib.digraph.bfs_dist
    t = tracer.Tracer()
    t.install(lib)
    try:
        assert lib.digraph.bfs_dist is not orig
        assert lib.quasiwide.bfs_dist is lib.digraph.bfs_dist
        assert lib.solvers.bfs_dist is lib.digraph.bfs_dist
        G = lib.Digraph(3, [(0, 1), (1, 2)])
        assert lib.quasiwide.is_scattered(G, [0, 2], 1)
    finally:
        t.uninstall()
    assert lib.digraph.bfs_dist is orig and lib.quasiwide.bfs_dist is orig
    s = t.summary()
    assert s["digraph.construct"]["calls"] == 1
    assert s["digraph.bfs_dist"]["calls"] == 3
    assert s["quasiwide.is_scattered"]["self_ns"] <= s["quasiwide.is_scattered"]["ns"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_on_a_tiny_query_list(workload):
    state = run.State(workload)
    keep = range(min(4, len(state.specs)))
    state.specs = [state.specs[i] for i in keep]
    state.inputs = [state.inputs[i] for i in keep]
    order = list(range(len(state.specs)))
    lats, tally, speed, records = run.run_pass(state, order, 0)
    assert len(lats) == len(order) and tally["errors"] == 0 and speed > 0
    t = tracer.Tracer()
    t.install(state.lib)
    try:
        lats, tally, speed, traced = run.run_pass(state, order, 1, t)
    finally:
        t.uninstall()
    assert tally["errors"] == 0
    assert len(t) > 0 or state.child_summary
    assert all(r["outcome"] != "raised" for r in records + traced)


def test_a_check_that_raises_counts_as_an_error(monkeypatch):
    state = run.State("minor-search")
    state.specs, state.inputs = state.specs[:1], state.inputs[:1]

    def unreadable(*args):
        raise AttributeError("no such field")

    monkeypatch.setattr(workloads, "check", unreadable)
    lats, tally, speed, records = run.run_pass(state, [0], 0)
    assert tally["errors"] == 1
    assert "AttributeError" in records[0]["problems"][0]
