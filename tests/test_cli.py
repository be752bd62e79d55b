import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import crownminor
from crownminor.cli import main
from crownminor.digraph import Digraph
from crownminor import graphio
from crownminor.generators import (
    crown,
    oriented_grid,
    random_bipartite_outregular,
    random_digraph,
    reversed_crown,
)
from crownminor.graphio import GraphFormatError, emit_graph, load_graph, parse_graph, save_graph
from crownminor.minors import DirectedModel, general_minor_check, shallow_minor_check
from crownminor.quasiwide import ScatteredWitness, compute_scattered, dichotomy_step
from crownminor.solvers import (
    d_dominating_set,
    dominating_outbranching,
    independent_dominating_set,
    independent_set,
)
from crownminor.witnessdoc import (
    WitnessFormatError,
    emit_model,
    emit_outbranching,
    emit_scattered,
    emit_vertex_set,
    parse_witness,
)


# --- graph text format --------------------------------------------------------


def test_parse_simple_path():
    G = parse_graph("3\n0 1\n1 2\n")
    assert G == Digraph(3, [(0, 1), (1, 2)])


def test_roundtrip_is_identity():
    S4, _ = crown(4)
    assert parse_graph(emit_graph(S4)) == S4


def test_parse_comments_ignored():
    G = parse_graph("# a comment\n2\n0 1 # trailing\n")
    assert G == Digraph(2, [(0, 1)])


@pytest.mark.parametrize("comment", ["two\nlines", "two\r\nlines", "two\rlines",
                                     "two\x0blines", "two\u2028lines", ""])
def test_comment_holding_a_line_break_round_trips(tmp_path, comment):
    # every line of a comment is written as its own `# ` line, so what
    # save_graph writes load_graph reads back
    G = crown(3)[0]
    text = emit_graph(G, [comment, "last"])
    assert all(line.startswith("# ") for line in text.splitlines()[1 + G.num_edges():])
    assert text.endswith("\n# last\n") and parse_graph(text) == G
    save_graph(tmp_path / "g.txt", G, [comment])
    assert load_graph(tmp_path / "g.txt") == G


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2\n0 0\n", "self-loop"),
        ("2\n0 3\n", "out of range"),
        ("2\n0 1\n0 1\n", "duplicate"),
        ("2\nnope\n", "edge"),
        ("", "missing vertex count"),
        ("x\n", "not an integer"),
        ("3\n0 1\n# a note\n1 1\n", "self-loop"),
        ("3\n0 1#c\n0 1\n", "duplicate"),
        ("3\r\n0 1\r\n\r\n2 2\r\n", "self-loop"),
        ("3\n0\t1\n1\t5\n", "out of range"),
        ("3\n0 1 2\n", "expected `u v` edge pair"),
        ("-1\n", "must be nonnegative"),
        ("2 3\n", "expected vertex count"),
        ("3\n0 1\n2 2 # loop\n", "self-loop"),
        ("3\n0 1 # c\n0 1 # d\n", "duplicate"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    # every bad text here fails on its last line; an empty one on line 1
    line = max(text.count("\n"), 1)
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value).startswith("line %d: " % line)
    assert fragment in str(err.value)


def test_only_a_rejected_text_is_read_line_by_line(monkeypatch):
    calls = []

    def counted(lines):
        calls.append(len(lines))
        return first_error(lines)

    first_error = graphio._first_error
    monkeypatch.setattr(graphio, "_first_error", counted)
    G = random_bipartite_outregular(1000, 3, seed=5)
    text = emit_graph(G, ["a host"])
    assert G.num_edges() == 3000 and parse_graph(text) == G
    assert calls == []
    with pytest.raises(GraphFormatError, match=r"^line 3003: self-loop at vertex 7$"):
        parse_graph(text + "7 7\n")
    assert calls == [3003]


# --- witness documents ----------------------------------------------------------


def test_scattered_document_roundtrip():
    S5r, principals = reversed_crown(5)
    w = ScatteredWitness(S5r, (), tuple(principals), 1)
    assert w.verify()
    doc = emit_scattered(w)
    back = parse_witness(doc, host=S5r)
    assert back.members == w.members and back.deleted == w.deleted


def test_model_document_roundtrip_and_tamper():
    S3, principals = crown(3)
    model = dichotomy_step(S3, principals, 0, p=2, q=3)
    assert isinstance(model, DirectedModel)
    doc = emit_model(model, kind="crown", params=[("order", 3)])
    assert "verified true" in doc
    back = parse_witness(doc, host=S3)
    assert back.branch == model.branch
    broken = doc.replace("branch 0: 0", "branch 0: 0 3")
    with pytest.raises(WitnessFormatError):
        parse_witness(broken, host=S3)


PATH3 = Digraph(3, [(0, 1), (1, 2)])
PATH5 = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.mark.parametrize(
    "doc",
    [
        "kind scattered\nd 1\nS: \nU: 7 8 9\nend\n",
        "kind scattered\nd 1\nS: 5\nU: 0\nend\n",
        "kind independent\nD: 100 200\nend\n",
        "kind outbranching\nD: 99\nparent 99 none\nend\n",
    ],
    ids=["scattered-members", "scattered-deleted", "independent", "outbranching"],
)
def test_witness_ids_outside_the_graph_fail_to_load(doc):
    with pytest.raises(WitnessFormatError, match="invalid vertex id"):
        parse_witness(doc, host=PATH3)


@pytest.mark.parametrize(
    "doc,fixed",
    [
        ("kind dominating\nD: 0 2 0\nend\n", "kind dominating\nD: 0 2\nend\n"),
        ("kind independent\nD: 0 2 2\nend\n", "kind independent\nD: 0 2\nend\n"),
        ("kind outbranching\nD: 0 1 1\nparent 0 none\nparent 1 0\nend\n",
         "kind outbranching\nD: 0 1\nparent 0 none\nparent 1 0\nend\n"),
        ("kind scattered\nd 1\nS: 1 1\nU: 0 2\nend\n",
         "kind scattered\nd 1\nS: 1\nU: 0 2\nend\n"),
        ("kind scattered\nd 1\nS: 1\nU: 0 2 0\nend\n",
         "kind scattered\nd 1\nS: 1\nU: 0 2\nend\n"),
    ],
    ids=["dominating", "independent", "outbranching", "scattered-deleted",
         "scattered-members"],
)
def test_witness_ids_repeated_in_a_list_fail_to_load(doc, fixed):
    parse_witness(fixed, host=PATH3)
    with pytest.raises(WitnessFormatError, match="repeated vertex id"):
        parse_witness(doc, host=PATH3)


EDGE = Digraph(2, [(0, 1)])
EDGE_IN_PATH3 = ("kind model\nparam mode directed\ndepth none\nbranch 0: 0\nbranch 1: 1 2\n"
                 "edge 0 1: 0 1\nsource 0 0\nsource 1 1\nsink 0 0\nsink 1 1\nend\n")


@pytest.mark.parametrize(
    "fixed,repeat",
    [
        ("kind outbranching\nD: 0 1\nparent 0 none\nparent 1 0\nend\n", "parent 1 2"),
        ("kind outbranching\nD: 0 1\nparent 0 none\nparent 1 0\nend\n", "D: 0 1"),
        ("kind dominating\nd 2\nD: 0\nend\n", "d 1"),
        ("kind dominating\nd 2\nD: 0\nend\n", "D: 0 1"),
        ("kind independent\nD: 0 2\nend\n", "D: 0"),
        ("kind scattered\nd 1\nS: 1\nU: 0 2\nend\n", "d 0"),
        ("kind scattered\nd 1\nS: 1\nU: 0 2\nend\n", "S: 1"),
        ("kind scattered\nd 1\nS: 1\nU: 0 2\nend\n", "U: 0"),
        (EDGE_IN_PATH3, "param mode shallow"),
        (EDGE_IN_PATH3, "depth 1"),
        (EDGE_IN_PATH3, "branch 1: 1"),
        (EDGE_IN_PATH3, "edge 0 1: 0 1"),
        (EDGE_IN_PATH3, "source 1 1"),
        (EDGE_IN_PATH3, "sink 0 0"),
    ],
    ids=["parent", "outbranching-D", "d", "dominating-D", "independent-D", "scattered-d",
         "scattered-S", "scattered-U", "param", "depth", "branch", "edge", "source", "sink"],
)
def test_witness_lines_repeating_a_field_fail_to_load(fixed, repeat):
    parse_witness(fixed, host=PATH3, pattern=EDGE)
    doc = fixed.replace("\n", "\n%s\n" % repeat, 1)
    with pytest.raises(WitnessFormatError, match="repeated field"):
        parse_witness(doc, host=PATH3, pattern=EDGE)


def test_model_branch_with_a_repeated_id_fails_to_load():
    S3, principals = crown(3)
    model = dichotomy_step(S3, principals, 0, p=2, q=3)
    doc = emit_model(model, kind="crown", params=[("order", 3)])
    line = next(x for x in doc.splitlines() if x.startswith("branch "))
    first = line.split(":")[1].split()[0]
    with pytest.raises(WitnessFormatError, match="repeated vertex id"):
        parse_witness(doc.replace(line, line + " " + first), host=S3)


def test_outbranching_that_does_not_dominate_fails_to_load():
    G = Digraph(3, [(0, 1)])
    parent = {0: None, 1: 0}
    assert "verified false" in emit_outbranching(G, (0, 1), parent)
    doc = "kind outbranching\nD: 0 1\nparent 0 none\nparent 1 0\nend\n"
    with pytest.raises(WitnessFormatError, match="does not dominate"):
        parse_witness(doc, host=G)
    assert parse_witness(doc, host=Digraph(3, [(0, 1), (1, 2)])) == ((0, 1), parent)


@pytest.mark.parametrize(
    "doc,graphs,message",
    [
        ("kind scattered\nd 1\nS: \nU: 0 2\n", (PATH3, None), "document not terminated"),
        ("kind tree\nend\n", (PATH3, None), "unknown kind 'tree'"),
        ("kind scattered\nd 1\nS: \nend\n", (PATH3, None),
         "incomplete scattered document: no U line"),
        ("kind independent\nverified true\nend\n", (PATH3, None),
         "incomplete independent document: no D line"),
        ("kind scattered\nd 1\nS: \nU: 0 2\nend\n", (None, None),
         "scattered documents need the graph"),
        (EDGE_IN_PATH3, (PATH3, None), "model documents need a pattern graph"),
        ("kind crown\nparam order 3\nend\n", (PATH3, None),
         "crown document lacks an order that fits the host"),
        ("kind crown\nend\n", (PATH3, None), "crown document lacks an order that fits the host"),
        ("kind scattered\nd 1\nS: \nU: 0 1\nend\n", (PATH3, None),
         "scattered witness does not verify"),
        # {0, 2} is 1-scattered in PATH3, but a deleted member is not
        ("kind scattered\nd 1\nS: 0\nU: 0 2\nend\n", (PATH3, None),
         "scattered witness does not verify"),
        ("kind independent\nD: 0 1\nend\n", (PATH3, None), "independent witness does not verify"),
        ("kind outbranching\nD: 0 2\nparent 0 none\nparent 2 0\nend\n", (PATH3, None),
         "outbranching witness does not verify"),
        ("kind outbranching\nD: 1\nparent 1 none\nend\n", (PATH3, None),
         "outbranching witness does not dominate"),
        ("kind dominating\nD: 2\nend\n", (PATH3, None),
         "dominating witness does not verify at d = 1"),
        ("kind independent\nd 2\nD: 0 2\nend\n", (PATH3, None),
         "independent witness does not verify"),
        ("kind independent\nd -1\nD: 0 2\nend\n", (PATH3, None),
         "independent witness does not verify"),
        ("kind dominating\nD: 0 1\nindependent true\nend\n", (PATH3, None),
         "dominating witness is not independent"),
        ("kind dominating\nD: 0 1\nindependent yes\nend\n", (PATH3, None),
         "independent is true or false, not 'yes'"),
        (EDGE_IN_PATH3.replace("end\n", "branch 5: 2\nend\n"), (PATH3, EDGE),
         "model does not verify: branch of 5, which is not a pattern vertex"),
    ],
    ids=["unterminated", "unknown-kind", "no-U", "no-D", "no-host", "no-pattern",
         "crown-too-large", "crown-no-order", "scattered", "scattered-member-deleted",
         "independent", "outbranching",
         "outbranching-not-dominating", "dominating", "independent-at-d2",
         "independent-negative-d", "dominating-dependent", "independent-flag-word",
         "stray-branch"],
)
def test_witness_that_fails_a_semantic_check_names_it(doc, graphs, message):
    host, pattern = graphs
    with pytest.raises(WitnessFormatError) as err:
        parse_witness(doc, host=host, pattern=pattern)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "doc",
    [
        "kind independent\nD: x\nend\n",
        "kind outbranching\nD: 0 1\nparent 0 none\nparent 1\nend\n",
    ],
    ids=["non-integer-id", "parent-without-parent-field"],
)
def test_malformed_witness_lines_fail_to_load(doc):
    with pytest.raises(WitnessFormatError):
        parse_witness(doc, host=PATH3)


def test_model_edge_line_with_three_ids_fails_to_load():
    S3, principals = crown(3)
    model = dichotomy_step(S3, principals, 0, p=2, q=3)
    doc = emit_model(model, kind="crown", params=[("order", 3)])
    line = next(x for x in doc.splitlines() if x.startswith("edge "))
    with pytest.raises(WitnessFormatError):
        parse_witness(doc.replace(line, line + " 2"), host=S3)


@pytest.mark.parametrize(
    "good,line,bad,host",
    [
        (EDGE_IN_PATH3, "branch 1: 1 2", "branch : 1 2", PATH3),
        ("kind dominating\nd 1\nD: 0\nend\n", "d 1", "d 0", EDGE),
        ("kind dominating\nd 1\nD: 0 2\nend\n", "d 1", "d -1", PATH3),
        (EDGE_IN_PATH3, "branch 0: 0", "branch 0 7: 0", PATH3),
        (EDGE_IN_PATH3, "depth none", "depth none 5", PATH3),
        ("kind dominating\nd 1\nD: 0 2\nend\n", "d 1", "d 1 9", PATH3),
        ("kind independent\nD: 0 2\nend\n", "kind independent", "kind independent junk",
         PATH3),
        ("kind independent\nD: 0 2\nend\n", "D: 0 2", "D: 0 2\nverifiedXYZ", PATH3),
        ("kind independent\nD: 0 2\nend\n", "D: 0 2", "d 4\nD: 0 2", PATH3),
        ("kind independent\nD: 0 2\nend\n", "D: 0 2", "D: 0 2\nverified maybe", PATH3),
        ("kind independent\nD: 0 2\nend\n", "D: 0 2", "D 0 2", PATH3),
        ("kind dominating\nd 1\nD: 0 2\nend\n", "d 1", "d 01", PATH3),
        (EDGE_IN_PATH3, "source 0 0", "source 0: 0", PATH3),
    ],
    ids=["branch-without-vertex", "dominating-d0", "dominating-negative-d", "branch-extra-word",
         "depth-extra-word", "d-extra-word", "kind-extra-word", "verified-glued",
         "independent-d", "verified-not-a-flag", "list-without-colon", "padded-integer",
         "stray-colon"],
)
def test_witness_lines_off_the_grammar_fail_to_load(good, line, bad, host):
    parse_witness(good, host=host, pattern=EDGE)
    with pytest.raises(WitnessFormatError):
        parse_witness(good.replace(line, bad, 1), host=host, pattern=EDGE)


def test_vertex_set_emitter_checks_d_at_its_radius():
    assert "verified true" in emit_vertex_set("dominating", EDGE, (0,), d=1)
    assert "verified false" in emit_vertex_set("dominating", EDGE, (0,), d=0)
    # 0 and 2 are one edge apart in neither direction, but 0 reaches 2
    # in two steps
    assert "verified true" in emit_vertex_set("independent", PATH3, (0, 2), d=1)
    assert "verified false" in emit_vertex_set("independent", PATH3, (0, 2), d=2)
    with pytest.raises(WitnessFormatError, match="no independent line"):
        emit_vertex_set("independent", EDGE, (0,), d=1, independent=True)


def test_emitters_do_not_attest_a_set_that_repeats_an_id():
    # parse_witness rejects a repeated id, so the emitters must not
    # write such a document as verified
    assert "verified true" in emit_vertex_set("dominating", PATH3, [0, 2])
    assert "verified false" in emit_vertex_set("dominating", PATH3, [0, 0, 2])
    assert "verified false" in emit_vertex_set("independent", PATH3, [0, 0])
    parent = {0: None, 1: 0}
    assert "verified true" in emit_outbranching(PATH3, [0, 1], parent)
    assert "verified false" in emit_outbranching(PATH3, [0, 1, 1], parent)


# Round trips: every document built from a library answer on a small
# random graph loads as the same payload, and re-emitting that payload
# writes the same bytes.


def _small_graphs(count=15):
    for seed in range(count):
        rng = random.Random(seed)
        yield seed, random_digraph(rng, rng.randint(4, 7), 0.35), rng


@pytest.mark.parametrize("mode", ["directed", "shallow"])
def test_model_documents_round_trip(mode):
    loaded = 0
    for seed, G, rng in _small_graphs():
        H = random_digraph(rng, 3, 0.5)
        model = general_minor_check(H, G) if mode == "directed" else \
            shallow_minor_check(H, G, seed % 3)
        if model is None:
            continue
        doc = emit_model(model, params=[("mode", mode)])
        back = parse_witness(doc, host=G, pattern=H)
        assert back == model
        assert emit_model(back, params=[("mode", mode)]) == doc
        loaded += 1
    assert loaded >= 5


def test_crown_documents_round_trip():
    loaded = 0
    for seed in range(30):
        G = random_digraph(random.Random(100 + seed), 6 + seed % 5, 0.3)
        for p, q in ((2, 2), (3, 2), (2, 3)):
            try:
                model = dichotomy_step(G, sorted(G.vertices()), 0, p, q)
            except RuntimeError:
                continue
            if isinstance(model, DirectedModel):
                doc = emit_model(model, kind="crown", params=[("order", q)])
                back = parse_witness(doc, host=G)
                assert back == model and back.pattern == crown(q)[0]
                assert emit_model(back, kind="crown", params=[("order", q)]) == doc
                loaded += 1
    assert loaded >= 5


def test_scattered_documents_round_trip():
    loaded = 0
    for seed, G, _ in _small_graphs():
        for d, m in ((0, 2), (1, 2), (1, 3), (2, 2)):
            w = compute_scattered(G, sorted(G.vertices()), d, m, 2)
            if w is None:
                continue
            doc = emit_scattered(w)
            back = parse_witness(doc, host=G)
            assert back == w and emit_scattered(back) == doc
            loaded += 1
    assert loaded >= 10


@pytest.mark.parametrize("kind,d", [("dominating", None), ("dominating", 1),
                                    ("dominating", 2), ("independent", None),
                                    ("independent", 2)])
def test_vertex_set_documents_round_trip(kind, d):
    loaded = 0
    for seed, G, _ in _small_graphs():
        for k in (1, 2, 3):
            if kind == "independent":
                out = independent_set(G, k, 1 if d is None else d)
            else:
                out = d_dominating_set(G, k, 1 if d is None else d)
            if not out.feasible:
                continue
            doc = emit_vertex_set(kind, G, out.witness, d=d)
            assert ("\nd " in doc) == (d is not None)
            back = parse_witness(doc, host=G)
            assert back == tuple(out.witness)
            assert emit_vertex_set(kind, G, back, d=d) == doc
            loaded += 1
    assert loaded >= 10


def test_only_a_flagged_dominating_document_attests_independence():
    # {0, 1} dominates the path 0 -> 1 -> 2 but holds the edge 0 -> 1
    dependent = "kind dominating\nD: 0 1\n%send\n"
    assert parse_witness(dependent % "", host=PATH3) == (0, 1)
    assert parse_witness(dependent % "independent false\n", host=PATH3) == (0, 1)
    with pytest.raises(WitnessFormatError, match="not independent"):
        parse_witness(dependent % "independent true\n", host=PATH3)
    assert "verified false" in emit_vertex_set("dominating", PATH3, (0, 1), independent=True)
    assert "verified true" in emit_vertex_set("dominating", PATH3, (0, 2), independent=True)


def test_independent_dominating_documents_round_trip():
    # solve ids writes `independent true`, which the reader re-checks
    loaded = 0
    for seed, G, _ in _small_graphs():
        for k in (1, 2, 3):
            out = independent_dominating_set(G, k)
            if not out.feasible:
                continue
            doc = emit_vertex_set("dominating", G, out.witness, d=1, independent=True)
            assert "\nindependent true\n" in doc and "verified true" in doc
            back = parse_witness(doc, host=G)
            assert back == tuple(out.witness)
            assert emit_vertex_set("dominating", G, back, d=1, independent=True) == doc
            loaded += 1
    assert loaded >= 10


def test_outbranching_documents_round_trip():
    loaded = 0
    for seed, G, _ in _small_graphs():
        for k in (1, 2, 3):
            out = dominating_outbranching(G, k)
            if not out.feasible:
                continue
            D, parent = out.witness
            doc = emit_outbranching(G, D, parent)
            back = parse_witness(doc, host=G)
            assert back == (tuple(sorted(D)), parent)
            assert emit_outbranching(G, *back) == doc
            loaded += 1
    assert loaded >= 10


# --- CLI ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("scale", ["small", "full"])
def test_selftest_passes(capsys, scale):
    code, out, _ = run_cli(capsys, "selftest", "--scale", scale)
    assert code == 0
    assert out.splitlines()[-1] == "12/12 checks passed"


def test_structured_selftest_is_usage_error(capsys):
    # structured mode prints documents only, and selftest has none
    code, out, err = run_cli(capsys, "--format", "structured", "selftest")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")


def test_generate_crown(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "crown", "3")
    assert code == 0
    assert out.startswith("6\n")
    assert "# principal: 0 1 2" in out
    G = parse_graph(out)
    assert G == crown(3)[0]


@pytest.mark.parametrize("family, params", [
    ("crown", ["3"]), ("grid", ["2", "3", "--seed", "5"]), ("tournament", ["4", "--seed", "1"]),
])
def test_generate_phase_outside_alternating_path_is_usage_error(capsys, family, params):
    # only alternating-path has a phase; a --phase another family would
    # drop must not be answered without it
    for phase in ("odd", "even"):
        code, out, err = run_cli(capsys, "--format", "structured", "generate", family, *params,
                                 "--phase", phase)
        assert code == 3
        assert out == "" and err.startswith("usage error:")
    code, _, _ = run_cli(capsys, "--format", "structured", "generate", family, *params)
    assert code == 0
    for phase, edge in (("odd", "1 0"), ("even", "0 1")):
        code, out, _ = run_cli(capsys, "generate", "alternating-path", "2", "--phase", phase)
        assert code == 0 and edge in out.splitlines()
    code, out, _ = run_cli(capsys, "generate", "alternating-path", "2")
    assert code == 0 and "1 0" in out.splitlines()


def test_generate_to_file(capsys, tmp_path):
    target = tmp_path / "g.graph"
    code, out, _ = run_cli(capsys, "generate", "grid", "2", "3", "--seed", "5",
                           "--out", str(target))
    assert code == 0
    G = parse_graph(target.read_text())
    assert G.n == 6 and G.num_edges() == 7


def test_generated_host_reads_back_as_the_library_host(capsys, tmp_path):
    target = tmp_path / "g.graph"
    code, out, _ = run_cli(capsys, "generate", "bipartite-outregular", "2000", "3",
                           "--seed", "7", "--out", str(target))
    assert code == 0
    assert load_graph(target) == random_bipartite_outregular(2000, 3, 7)


def test_generate_structured_requires_seed(capsys):
    code, _, err = run_cli(capsys, "--format", "structured", "generate", "tournament", "4")
    assert code == 3
    assert "seed" in err


def test_generate_seed_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "generate", "tournament", "6", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "generate", "tournament", "6", "--seed", "9")
    assert code1 == code2 == 0 and out1 == out2


def test_minor_command(capsys, tmp_path):
    host = tmp_path / "host.graph"
    pat = tmp_path / "pat.graph"
    host.write_text(emit_graph(Digraph(3, [(0, 1), (1, 2)])))
    pat.write_text(emit_graph(Digraph(2, [(0, 1)])))
    code, out, _ = run_cli(capsys, "minor", "--mode", "directed", str(pat), str(host))
    assert code == 0
    assert "kind model" in out
    pat2 = tmp_path / "pat2.graph"
    pat2.write_text(emit_graph(Digraph(2, [(0, 1), (1, 0)])))
    code, _, _ = run_cli(capsys, "minor", "--mode", "directed", str(pat2), str(host))
    assert code == 1


def test_minor_shallow_witness_file(capsys, tmp_path):
    from crownminor.graphio import save_graph

    host = tmp_path / "host.graph"
    pat = tmp_path / "pat.graph"
    sub = Digraph(5, [(0, 3), (3, 1), (0, 4), (4, 2)])
    save_graph(str(host), sub)
    save_graph(str(pat), crown(2)[0])
    wfile = tmp_path / "w.doc"
    code, _, _ = run_cli(
        capsys, "minor", "--mode", "shallow", "--depth", "1",
        str(pat), str(host), "--witness", str(wfile),
    )
    assert code == 0
    model = parse_witness(wfile.read_text(), host=sub, pattern=crown(2)[0])
    assert model.depth == 1


def test_minor_command_verifies_its_model_twice(capsys, tmp_path, monkeypatch):
    """Once in the checker and once when the document is emitted; the
    command itself adds no third verification."""
    from crownminor import minors
    from crownminor.graphio import save_graph

    calls = []
    original = minors.verify_model

    def counted(model):
        calls.append(model)
        return original(model)

    for name, module in list(sys.modules.items()):
        if name.startswith("crownminor") and getattr(module, "verify_model", None) is original:
            monkeypatch.setattr(module, "verify_model", counted)
    pat = tmp_path / "pat.graph"
    host = tmp_path / "host.graph"
    save_graph(str(pat), crown(2)[0])
    save_graph(str(host), crown(3)[0])
    code, out, _ = run_cli(capsys, "minor", str(pat), str(host))
    assert code == 0
    assert "verified=True" in out
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["directed", "butterfly", "topological"])
def test_minor_depth_outside_shallow_mode_is_usage_error(capsys, tmp_path, mode):
    # only the shallow checker bounds path lengths; a --depth the other
    # modes would drop must not be answered without it
    from crownminor.graphio import save_graph

    pat = tmp_path / "pat.graph"
    host = tmp_path / "host.graph"
    save_graph(str(pat), crown(2)[0])
    save_graph(str(host), crown(3)[0])
    for depth in ("0", "2"):
        code, out, err = run_cli(capsys, "--format", "structured", "minor", "--mode", mode,
                                 "--depth", depth, str(pat), str(host))
        assert code == 3
        assert out == "" and err.startswith("usage error:")
    code, _, _ = run_cli(capsys, "minor", "--mode", mode, str(pat), str(host))
    assert code == 0


def test_minor_butterfly_exit_codes(capsys, tmp_path):
    from crownminor.graphio import save_graph

    host = tmp_path / "host.graph"
    pat = tmp_path / "pat.graph"
    save_graph(str(host), Digraph(6, [(2, 0), (3, 1), (0, 1), (1, 0), (0, 4), (1, 5)]))
    save_graph(str(pat), Digraph(5, [(1, 0), (2, 0), (0, 3), (0, 4)]))
    code, _, _ = run_cli(capsys, "minor", "--mode", "butterfly", str(pat), str(host))
    assert code == 1
    code, _, _ = run_cli(capsys, "minor", "--mode", "directed", str(pat), str(host))
    assert code == 0


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_minor_butterfly_witness_is_usage_error(capsys, tmp_path, fmt):
    # butterfly answers have no witness document, so a --witness path
    # that would be left unwritten is refused before any search
    from crownminor.graphio import save_graph

    pat = tmp_path / "pat.graph"
    host = tmp_path / "host.graph"
    doc = tmp_path / "w.txt"
    save_graph(str(pat), crown(2)[0])
    save_graph(str(host), crown(3)[0])
    code, out, err = run_cli(capsys, "--format", fmt, "minor", "--mode", "butterfly",
                             "--witness", str(doc), str(pat), str(host))
    assert code == 3
    assert out == "" and err.startswith("usage error:")
    assert not doc.exists()


def test_scatter_command(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), reversed_crown(5)[0])
    code, out, _ = run_cli(capsys, "scatter", str(g), "--d", "1", "--m", "5",
                           "--s-budget", "0")
    assert code == 0
    code, _, _ = run_cli(capsys, "scatter", str(g), "--d", "1", "--m", "16",
                         "--s-budget", "0")
    assert code == 4  # more members requested than vertices exist
    code, _, _ = run_cli(capsys, "scatter", str(g), "--d", "1", "--m", "15",
                         "--s-budget", "0")
    assert code == 2  # beyond the probe window: explicit exhaustion


def test_scatter_budget_exhaustion(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, _, _ = run_cli(capsys, "scatter", str(g), "--d", "1", "--m", "6",
                         "--s-budget", "0")
    assert code == 2


def test_dichotomy_command(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, out, _ = run_cli(capsys, "--format", "structured", "dichotomy", str(g),
                           "--r", "0", "--q", "3", "--p", "2")
    assert code == 0
    assert "kind crown" in out
    model = parse_witness(out, host=crown(3)[0])
    assert model.depth == 0


def test_dichotomy_requires_start_set_for_positive_radius(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), reversed_crown(4)[0])
    code, _, err = run_cli(capsys, "dichotomy", str(g), "--r", "1", "--q", "2", "--p", "2")
    assert code == 3
    code, out, _ = run_cli(capsys, "--format", "structured", "dichotomy", str(g),
                           "--r", "1", "--q", "2", "--p", "2",
                           "--i-set", "0 1 2 3")
    assert code == 0
    assert "kind scattered" in out


def test_dichotomy_negative_radius_is_input_error(capsys, tmp_path):
    # with or without a start set, before "--i-set is required" is asked
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), reversed_crown(4)[0])
    for extra in ((), ("--i-set", "0 1")):
        code, out, err = run_cli(capsys, "dichotomy", str(g), "--r", "-1", "--q", "2", "--p", "2",
                                 *extra)
        assert (code, out) == (4, "")
        assert err == "input error: radius must be nonnegative\n"


def test_scatter_negative_radius_is_input_error_before_the_search(capsys, tmp_path):
    # m = 15 exceeds the 14 probes, so a search would find nothing and
    # report an exhausted budget; the radius is rejected first
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), oriented_grid(4, 5, seed=1))
    for m in ("2", "15"):
        code, out, err = run_cli(capsys, "scatter", str(g), "--d", "-1", "--m", m,
                                 "--s-budget", "0")
        assert (code, out) == (4, "")
        assert err == "input error: radius must be nonnegative\n"


def test_dichotomy_start_set_outside_the_graph_is_input_error(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), oriented_grid(3, 3, seed=1))
    code, _, err = run_cli(capsys, "--format", "structured", "dichotomy", str(g),
                           "--r", "1", "--q", "2", "--p", "2", "--i-set", "0 99")
    assert code == 4
    assert "invalid vertex id 99" in err


def test_dichotomy_non_integer_start_set_is_usage_error(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, _, err = run_cli(capsys, "dichotomy", str(g), "--r", "0", "--q", "2",
                           "--p", "2", "--i-set", "a b")
    assert code == 3
    assert "--i-set" in err


def test_solve_commands(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, _, _ = run_cli(capsys, "solve", "ids", str(g), "--k", "2")
    assert code == 1
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "ids", str(g),
                           "--k", "3")
    assert code == 0
    D = parse_witness(out, host=crown(3)[0])
    assert tuple(D) == (3, 4, 5)
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "dds", str(g),
                           "--k", "3", "--d", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "dob", str(g),
                           "--k", "4")
    assert code == 1


@pytest.mark.parametrize("oracle", [False, True])
def test_solve_documents_attest_what_was_asked(capsys, tmp_path, oracle):
    # ids documents say the set is independent, and is documents carry d
    from crownminor.graphio import save_graph

    g, path5 = tmp_path / "g.graph", tmp_path / "path5.graph"
    save_graph(str(g), crown(3)[0])
    save_graph(str(path5), PATH5)
    extra = ["--oracle"] if oracle else []
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "ids", str(g),
                           "--k", "3", *extra)
    assert code == 0
    assert "\nd 1\n" in out and "\nindependent true\n" in out
    assert parse_witness(out, host=crown(3)[0]) == (3, 4, 5)
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "is", str(path5),
                           "--k", "2", "--d", "2", *extra)
    assert code == 0
    assert "\nd 2\n" in out
    assert parse_witness(out, host=PATH5) == (0, 3)


def test_solve_oracle_flag_agrees(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    for variant, k, want in (("ds", 2, 1), ("ds", 3, 0), ("is", 3, 0), ("dob", 4, 0)):
        code, _, _ = run_cli(capsys, "solve", variant, str(g), "--k", str(k))
        oracle_code, _, _ = run_cli(capsys, "solve", variant, str(g), "--k", str(k),
                                    "--oracle")
        assert code == oracle_code == want


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("variant", ["ds", "ids", "dob"])
def test_solve_distance_other_than_one_is_usage_error(capsys, tmp_path, variant, oracle):
    """ds, ids and dob solve d = 1 only; a different --d must not be
    answered for d = 1 nor written into a `d 2` document."""
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    for d in ("2", "0"):
        code, out, err = run_cli(capsys, "solve", variant, str(g), "--k", "2", "--d", d,
                                 *(["--oracle"] if oracle else []))
        assert code == 3
        assert out == "" and err.startswith("usage error:")
    code, _, _ = run_cli(capsys, "solve", variant, str(g), "--k", "2", "--d", "1",
                         *(["--oracle"] if oracle else []))
    assert code in (0, 1)


def test_solve_dds_answers_a_radius_far_past_the_graph(capsys, tmp_path):
    # the ball tables stop growing once a radius reaches every vertex it
    # can, so a radius of 10^9 on a 400-vertex path costs no 10^9 rounds
    from crownminor.graphio import save_graph

    G = Digraph(400, [(i, i + 1) for i in range(399)])
    g = tmp_path / "g.graph"
    save_graph(str(g), G)
    code, out, err = run_cli(capsys, "--format", "structured", "solve", "dds", str(g),
                             "--k", "1", "--d", "1000000000")
    assert code == 0 and err == ""
    assert out.startswith("kind dominating\nd 1000000000\n")
    assert parse_witness(out, host=G) == (0,)


@pytest.mark.parametrize("d", ["0", "-3"])
def test_solve_is_distance_below_one_is_input_error(capsys, tmp_path, d):
    # no independent-set document may be printed for a radius the
    # solver cannot honour
    from crownminor.generators import acyclic_tournament
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), acyclic_tournament(4))
    code, out, err = run_cli(capsys, "--format", "structured", "solve", "is", str(g),
                             "--k", "4", "--d", d)
    assert code == 4
    assert out == "" and "need d >= 1" in err


@pytest.mark.parametrize("oracle", [False, True])
def test_solve_is_oracle_honours_distance(capsys, tmp_path, oracle):
    # on the path 0->1->2->3 every two vertices lie within distance 3
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), Digraph(4, [(0, 1), (1, 2), (2, 3)]))
    flag = ["--oracle"] if oracle else []
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "is", str(g),
                           "--k", "2", "--d", "3", *flag)
    assert code == 1 and out == ""
    code, out, _ = run_cli(capsys, "--format", "structured", "solve", "is", str(g),
                           "--k", "2", "--d", "2", *flag)
    assert code == 0
    assert tuple(parse_witness(out, host=parse_graph(g.read_text()))) == (0, 3)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("variant", ["dds", "is"])
def test_solve_distance_zero_is_input_error(capsys, tmp_path, variant, oracle):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, out, err = run_cli(capsys, "--format", "structured", "solve", variant, str(g),
                             "--k", "4", "--d", "0", *(["--oracle"] if oracle else []))
    assert code == 4
    assert out == "" and "d >= 1" in err


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("variant", ["ds", "ids", "dds", "dob", "is"])
def test_solve_negative_k_is_input_error(capsys, tmp_path, variant, oracle):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, _, err = run_cli(capsys, "solve", variant, str(g), "--k", "-1",
                           *(["--oracle"] if oracle else []))
    assert code == 4
    assert "need k >= 0" in err


def test_internal_error_has_its_own_exit_code(capsys, tmp_path, monkeypatch):
    from crownminor import cli
    from crownminor.graphio import save_graph

    def broken(*args, **kwargs):
        raise RuntimeError("internal: branching produced an invalid witness")

    # cmd_solve imports the solver when it runs, so patch its home module
    monkeypatch.setattr(crownminor.solvers, "independent_set", broken)
    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, out, err = run_cli(capsys, "solve", "is", str(g), "--k", "1")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.splitlines() == [
        "internal error: RuntimeError: internal: branching produced an invalid witness"
    ]


def test_grad_command(capsys, tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), Digraph(2, [(0, 1)]))
    code, out, _ = run_cli(capsys, "grad", str(g), "--r", "1")
    assert code == 0 and out.strip() == "1/2"


def test_grad_finds_a_planted_clique_in_a_large_sparse_host(capsys, tmp_path):
    from crownminor.graphio import load_graph, save_graph
    from crownminor.minors import grad

    # a 200-vertex host of density 2 (i -> i+1 and i -> i+5 around a
    # ring) with a bidirected K6, of density 5, planted on six of its
    # vertices. Every vertex off the clique has total degree 4, while each
    # vertex of a smallest densest set has more edges inside it than the
    # set's density, at least 5: so that set lies in the clique.
    n = 200
    ring = [(i, (i + d) % n) for i in range(n) for d in (1, 5)]
    clique = [0, 33, 66, 99, 132, 165]
    G = Digraph(n, ring + [(u, v) for u in clique for v in clique if u != v])
    g = tmp_path / "planted.graph"
    save_graph(str(g), G)
    assert grad(load_graph(str(g)), 0) == Fraction(5)
    code, out, _ = run_cli(capsys, "grad", str(g), "--r", "0")
    assert code == 0 and out == "5\n"


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "grad", "/nonexistent/g.graph", "--r", "0")
    assert code == 4


def test_bad_graph_file_is_input_error(capsys, tmp_path):
    g = tmp_path / "g.graph"
    g.write_text("2\n0 0\n")
    code, _, err = run_cli(capsys, "grad", str(g), "--r", "0")
    assert code == 4 and "line 2" in err


def test_large_bad_graph_file_names_its_last_line(capsys, tmp_path):
    # the per-line pass words the error after the bulk pass refuses the text
    lines = emit_graph(random_bipartite_outregular(1000, 3, seed=2)).splitlines()
    g = tmp_path / "g.graph"
    g.write_text("\n".join(lines[:2999] + ["5 5"]) + "\n")
    code, out, err = run_cli(capsys, "grad", str(g), "--r", "0")
    assert (code, out) == (4, "")
    assert err.splitlines() == ["input error: line 3000: self-loop at vertex 5"]


def test_graph_file_that_is_not_utf8_is_input_error(capsys, tmp_path):
    g = tmp_path / "g.graph"
    g.write_bytes(b"2\n0 1\n\xff\xfe\n")
    code, _, err = run_cli(capsys, "grad", str(g), "--r", "0")
    assert code == 4
    assert err.splitlines() == ["input error: line 3: not UTF-8 text"]


@pytest.mark.parametrize(
    "command,options",
    [
        (["scatter"], ["--d", "1", "--m", "2", "--s-budget", "-1"]),
    ],
)
def test_negative_deletion_budget_is_input_error(capsys, tmp_path, command, options):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    code, out, err = run_cli(capsys, "--format", "structured", *command, str(g), *options)
    assert code == 4 and out == ""
    assert "budget >= 0, got -1" in err


@pytest.mark.parametrize("variant", ["ds", "ids", "dds", "dob", "is"])
def test_scatter_budget_flag_is_usage_error_everywhere(capsys, tmp_path, variant):
    # the deletion budget is the constant solvers.SCATTER_BUDGET, so no
    # variant takes the flag
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    for budget in ("-1", "3", "5"):
        code, out, err = run_cli(capsys, "--format", "structured", "solve", variant, str(g),
                                 "--k", "1", "--scatter-budget", budget)
        assert code == 3
        assert out == "" and err.startswith("usage error:")


def test_solve_is_reports_no_fallback(capsys, tmp_path):
    # the exact search is the whole method, not a fallback
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    for k, want in (("3", 0), ("4", 1)):
        code, out, _ = run_cli(capsys, "solve", "is", str(g), "--k", k)
        assert code == want
        assert "(fallback=False)" in out


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "generate", "crown")
    assert code == 3


def test_scatter_budget_environment_variable_is_ignored(tmp_path):
    from crownminor.graphio import save_graph

    g = tmp_path / "g.graph"
    save_graph(str(g), crown(3)[0])
    src = os.path.dirname(os.path.dirname(crownminor.__file__))

    def run(extra_env, *argv):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("CROWNMINOR_SCATTER_BUDGET", None)
        env.update(extra_env)
        done = subprocess.run([sys.executable, "-m", "crownminor.cli", *argv],
                              capture_output=True, text=True, env=env)
        return done.returncode, done.stdout

    for argv in (("grad", str(g), "--r", "0"), ("solve", "ids", str(g), "--k", "3")):
        plain = run({}, *argv)
        assert plain[0] == 0
        assert run({"CROWNMINOR_SCATTER_BUDGET": "x"}, *argv) == plain


def _fresh_python(*args):
    """Runs a new interpreter on this checkout's package with bytecode
    caching off, so that it compiles every module it loads."""
    src = os.path.dirname(os.path.dirname(crownminor.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# imports the package, runs the command in argv[1:] if there is one, and
# prints the submodules loaded by then and whether dataclasses is loaded;
# --help ends the command with SystemExit, after which it still prints
_LAYERS_AFTER = (
    "import sys\n"
    "import crownminor\n"
    "code = 0\n"
    "if sys.argv[1:]:\n"
    "    from crownminor.cli import main\n"
    "    try:\n"
    "        code = main(sys.argv[1:])\n"
    "    except SystemExit as stop:\n"
    "        code = stop.code\n"
    "print(*sorted(m[11:] for m in sys.modules if m.startswith('crownminor.')), file=sys.stderr)\n"
    "print('dataclasses' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
_IO = {"digraph", "graphio"}
# the layers of a command that writes a witness document
_DOC = {"witnessdoc"}


@pytest.mark.parametrize("argv,layers", [
    ((), None),
    (("generate", "crown", "3"), {"generators", "rng"}),
    (("minor", "{pattern}", "{crown}"), {"minors", "verify"} | _DOC),
    (("minor", "--mode", "butterfly", "{pattern}", "{crown}"), {"minors", "verify"}),
    (("grad", "{crown}", "--r", "1"), {"minors", "density", "verify"}),
    (("scatter", "{reversed}", "--d", "1", "--m", "4", "--s-budget", "0"),
     {"scattered", "verify"} | _DOC),
    (("dichotomy", "{crown}", "--r", "0", "--q", "3", "--p", "2"),
     {"quasiwide", "scattered", "verify"} | _DOC),
    (("dichotomy", "{reversed}", "--r", "1", "--q", "2", "--p", "2", "--i-set", "0 1 2 3"),
     {"quasiwide", "scattered", "verify"} | _DOC),
    (("solve", "ds", "{crown}", "--k", "3"), {"scattered", "solvers", "verify"} | _DOC),
    (("solve", "dob", "{pattern}", "--k", "1"), {"scattered", "solvers", "verify"} | _DOC),
], ids=["import", "generate", "minor", "minor-butterfly", "grad", "scatter", "dichotomy-crown",
        "dichotomy-scattered", "solve", "solve-dob"])
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    # with bytecode caching off every process compiles each module it
    # loads, so a layer a command does not run must stay unloaded; grad
    # alone loads density, solve and scatter never load the dichotomy
    # (quasiwide), a crown outcome loads no minor search (minors) or
    # generator, and only a command that writes a document loads
    # witnessdoc. The result records are namedtuples, so no command pays
    # for importing dataclasses either.
    from crownminor.graphio import save_graph

    files = {"pattern": crown(2)[0], "crown": crown(3)[0], "reversed": reversed_crown(4)[0]}
    for name, G in files.items():
        save_graph(str(tmp_path / name), G)
    argv = [a.format(**{name: str(tmp_path / name) for name in files}) for a in argv]
    done = _fresh_python("-c", _LAYERS_AFTER, *(["--format", "structured"] if argv else []), *argv)
    assert done.returncode == 0, done.stderr
    *loaded, dataclasses_loaded = done.stderr.split()
    assert set(loaded) == (set() if layers is None else {"cli"} | _IO | layers)
    assert dataclasses_loaded == "False"


@pytest.mark.parametrize("command", [
    None, "generate", "minor", "scatter", "dichotomy", "solve", "grad", "selftest",
])
def test_help_loads_no_layer(command):
    done = _fresh_python("-c", _LAYERS_AFTER, *([command] if command else []), "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: crownminor")
    assert done.stderr.split() == sorted({"cli"} | _IO) + ["False"]


def test_budget_exhaustion_exits_2_with_one_line(tmp_path):
    # a host whose pools run dry before a crown or 3 scattered members form
    g = tmp_path / "g.graph"
    g.write_text("11\n0 5\n1 2\n1 5\n2 10\n3 4\n3 10\n6 5\n6 7\n6 9\n7 0\n7 4\n8 1\n8 7\n9 5\n")
    # a 4-cycle, whose scattered-set search runs out of budget
    c4 = tmp_path / "c4.graph"
    c4.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    for argv in (
        ["--format", "structured", "dichotomy", str(g), "--r", "0", "--q", "3", "--p", "3"],
        ["--format", "structured", "scatter", str(c4), "--d", "2", "--m", "2", "--s-budget", "1"],
        ["--format", "human", "scatter", str(c4), "--d", "2", "--m", "2", "--s-budget", "1"],
    ):
        done = _fresh_python("-m", "crownminor.cli", *argv)
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("budget exhausted: ")
