import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from crownminor.digraph import Digraph, GraphError, bfs_dist, bidirect, underlying_undirected
from crownminor.generators import acyclic_tournament, crown, oriented_grid, reversed_crown
from crownminor.minors import (
    DirectedModel,
    IntervalPartition,
    butterfly_contract,
    dag_disjoint_paths,
    dag_disjoint_paths_bounded,
    dag_minor_check,
    general_minor_check,
    grad,
    is_butterfly_minor,
    legal_butterfly_contractions,
    shallow_minor_check,
    subdivision_to_model,
    subgraph_check,
    topological_minor_check,
    verify_model,
)

from oracles import (
    brute_directed_minor,
    brute_disjoint_paths,
    brute_subgraph,
    brute_topological_minor,
    butterfly_minor_by_contraction,
    digraph_isomorphic,
    is_tree_like_model,
    ladder,
    random_dag,
    random_digraph,
    SHARED,
    branch_requests_by_scan,
    reference_guesses,
    route_by_sets,
    undirected_minor_check,
)


def identity_model(G, depth=None):
    """The model of G inside itself via singleton branches."""
    return DirectedModel(
        host=G,
        pattern=G,
        branch={v: frozenset([v]) for v in G.vertices()},
        edge_image={e: e for e in G.edges},
        source={v: v for v in G.vertices()},
        sink={v: v for v in G.vertices()},
        depth=depth,
    )


def is_branching_model(model):
    """True iff every branch with out-edges is spanned by an out-tree
    from its source, and every branch with in-edges by an in-tree into
    its sink."""
    H, G = model.pattern, model.host
    for v in H.vertices():
        bset = set(model.branch[v])
        has_out = any(e[0] == v for e in H.edges)
        has_in = any(e[1] == v for e in H.edges)
        if has_out:
            if set(bfs_dist(G, model.source[v], within=bset)) != bset:
                return False
        elif has_in:
            if set(bfs_dist(G, model.sink[v], direction="in", within=bset)) != bset:
                return False
    return True


def subdivided_crown3():
    """crown(3) with every edge subdivided once; sources 3,4,5, principal
    sinks 0,1,2, midpoints 6..11."""
    edges = [
        (3, 6), (6, 0), (3, 7), (7, 1),
        (4, 8), (8, 0), (4, 9), (9, 2),
        (5, 10), (10, 1), (5, 11), (11, 2),
    ]
    return Digraph(12, edges)


def crown3_in_subdivision_model(depth):
    host = subdivided_crown3()
    pattern, _ = crown(3)
    branch = {
        0: frozenset({0, 6, 8}),
        1: frozenset({1, 7, 10}),
        2: frozenset({2, 9, 11}),
        3: frozenset({3}),
        4: frozenset({4}),
        5: frozenset({5}),
    }
    image = {
        (3, 0): (3, 6), (3, 1): (3, 7),
        (4, 0): (4, 8), (4, 2): (4, 9),
        (5, 1): (5, 10), (5, 2): (5, 11),
    }
    return DirectedModel(
        host=host,
        pattern=pattern,
        branch=branch,
        edge_image=image,
        source={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
        sink={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
        depth=depth,
    )


# --- model verification ----------------------------------------------------


def test_identity_model_verifies():
    rng = random.Random(3)
    for _ in range(10):
        G = random_digraph(rng, 6, 0.3)
        ok, bad = verify_model(identity_model(G))
        assert ok, bad


def test_overlapping_branches_rejected():
    G = Digraph(3, [(0, 1), (1, 2)])
    H = Digraph(2, [(0, 1)])
    m = DirectedModel(
        host=G, pattern=H,
        branch={0: frozenset({0, 1}), 1: frozenset({1, 2})},
        edge_image={(0, 1): (0, 1)},
        source={0: 0, 1: 1}, sink={0: 0, 1: 2},
    )
    ok, bad = verify_model(m)
    assert not ok
    assert any("overlap" in b for b in bad)


# A path a -> b -> c and a -> c, modelled with branch sets {0, 1}, {2}
# and {3, 4} in a six-edge host. Branch 0's out set is {0, 1} (source
# 0), branch 2's in set is {3, 4} (sink 4).
RULE_HOST_EDGES = [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (3, 2)]
RULE_MODEL = DirectedModel(
    host=Digraph(5, RULE_HOST_EDGES),
    pattern=Digraph(3, [(0, 1), (0, 2), (1, 2)]),
    branch={0: frozenset({0, 1}), 1: frozenset({2}), 2: frozenset({3, 4})},
    edge_image={(0, 1): (1, 2), (0, 2): (0, 3), (1, 2): (2, 4)},
    source={0: 0}, sink={2: 4},
)


def _without(edge):
    return Digraph(5, [e for e in RULE_HOST_EDGES if e != edge])


# The edge 0 -> 1 in the path 0 -> 1 -> 2 -> 3, with branch sets {0, 1}
# and {2}; host vertex 3 is left over.
STRAY_BASE = DirectedModel(
    host=Digraph(4, [(0, 1), (1, 2), (2, 3)]),
    pattern=Digraph(2, [(0, 1)]),
    branch={0: frozenset({0, 1}), 1: frozenset({2})},
    edge_image={(0, 1): (1, 2)},
    source={0: 0, 1: 2}, sink={0: 1, 1: 2},
)


def _with_stray(field, key, value):
    """STRAY_BASE's fields, with one more entry key -> value in the map
    `field`, whose key is no pattern vertex or edge."""
    return {**STRAY_BASE._asdict(), field: {**getattr(STRAY_BASE, field), key: value}}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"depth": -1}, "negative depth"),
        ({"branch": {**RULE_MODEL.branch, 1: frozenset()}}, "branch 1 empty or missing"),
        ({"branch": {0: RULE_MODEL.branch[0], 2: RULE_MODEL.branch[2]}},
         "branch 1 empty or missing"),
        ({"branch": {**RULE_MODEL.branch, 1: frozenset({2, 9})}},
         "branch 1 contains foreign vertices"),
        ({"branch": {**RULE_MODEL.branch, 1: frozenset({2, 3})}}, "branches 1 and 2 overlap"),
        ({"edge_image": {(0, 2): (0, 3), (1, 2): (2, 4)}}, "edge image missing for (0, 1)"),
        ({"edge_image": {**RULE_MODEL.edge_image, (0, 1): (1, 4)}},
         "image (1, 4) of (0, 1) is not a host edge"),
        ({"edge_image": {**RULE_MODEL.edge_image, (0, 1): (3, 2)}},
         "image of (0, 1) does not start in branch 0"),
        ({"edge_image": {**RULE_MODEL.edge_image, (0, 1): (0, 3)}},
         "image of (0, 1) does not end in branch 1"),
        ({"source": {0: 2}}, "source of 0 outside branch"),
        ({"source": {0: 1}}, "source of 0 misses part of out set"),
        ({"sink": {2: 0}}, "sink of 2 outside branch"),
        ({"sink": {2: 3}}, "sink of 2 not reached from part of in set"),
        ({"host": _without((0, 1)), "source": {}}, "branch 0 has no valid source"),
        ({"host": _without((3, 4)), "sink": {}}, "branch 2 has no valid sink"),
        (_with_stray("branch", 5, frozenset({3})), "branch of 5, which is not a pattern vertex"),
        (_with_stray("edge_image", (1, 0), (2, 3)),
         "edge image of (1, 0), which is not a pattern edge"),
        (_with_stray("source", 9, 3), "source of 9, which is not a pattern vertex"),
        (_with_stray("sink", 9, 3), "sink of 9, which is not a pattern vertex"),
    ],
)
def test_verify_model_rejects_each_broken_condition(change, message):
    for model in (RULE_MODEL, STRAY_BASE):
        ok, bad = verify_model(model)
        assert ok, bad
    ok, bad = verify_model(RULE_MODEL._replace(**change))
    assert not ok
    assert message in bad


def test_handbuilt_subdivision_model_depth_sensitivity():
    ok, bad = verify_model(crown3_in_subdivision_model(depth=1))
    assert ok, bad
    ok, _ = verify_model(crown3_in_subdivision_model(depth=None))
    assert ok
    ok, _ = verify_model(crown3_in_subdivision_model(depth=0))
    assert not ok  # midpoints sit one step away from the sinks


def test_missing_source_sink_found_existentially():
    m = crown3_in_subdivision_model(depth=1)
    m2 = DirectedModel(m.host, m.pattern, m.branch, m.edge_image, {}, {}, 1)
    ok, bad = verify_model(m2)
    assert ok, bad


# --- disjoint paths --------------------------------------------------------


def test_single_pair_path():
    G = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    got = dag_disjoint_paths(G, [(0, 3)], IntervalPartition([0, 1]))
    assert got == [[0, 1, 2, 3]]


def test_degenerate_pair():
    G = Digraph(2, [(0, 1)])
    got = dag_disjoint_paths(G, [(0, 0)], IntervalPartition([0, 1]))
    assert got == [[0]]


def test_cut_vertex_interval_split():
    # both requests must pass vertex 2; extra isolated vertices pad to 7
    G = Digraph(7, [(0, 2), (1, 2), (2, 3), (2, 4)])
    pairs = [(0, 3), (1, 4)]
    same = dag_disjoint_paths(G, pairs, IntervalPartition([0, 2]))
    assert same is not None
    split = dag_disjoint_paths(G, pairs, IntervalPartition([0, 1, 2]))
    assert split is None
    assert brute_disjoint_paths(G, pairs, [[0, 1]])
    assert not brute_disjoint_paths(G, pairs, [[0], [1]])


def test_non_dag_rejected():
    G = Digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        dag_disjoint_paths(G, [(0, 1)], IntervalPartition([0, 1]))


def _random_partition(rng, k):
    cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1))) if k > 1 else []
    return IntervalPartition([0] + cuts + [k])


def test_disjoint_paths_agree_with_bruteforce():
    rng = random.Random(424)
    for _ in range(60):
        n = rng.randint(4, 9)
        G = random_dag(rng, n, 0.3)
        k = rng.randint(1, 3)
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(k)
        ]
        part = _random_partition(rng, k)
        got = dag_disjoint_paths(G, pairs, part)
        want = brute_disjoint_paths(G, pairs, part.groups())
        assert (got is not None) == want
        if got is not None:
            groups = part.groups()
            for gi, gj in itertools.combinations(range(len(groups)), 2):
                va = set().union(*[set(got[i]) for i in groups[gi]])
                vb = set().union(*[set(got[i]) for i in groups[gj]])
                assert not va & vb
            for (s, t), p in zip(pairs, got):
                assert p[0] == s and p[-1] == t
                assert all(G.has_edge(a, b) for a, b in zip(p, p[1:]))


def test_bounded_paths():
    G = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    part = IntervalPartition([0, 1])
    assert dag_disjoint_paths_bounded(G, [(0, 3)], part, 2) is None
    assert dag_disjoint_paths_bounded(G, [(0, 3)], part, 3) == [[0, 1, 2, 3]]
    assert dag_disjoint_paths_bounded(G, [(0, 0)], part, 0) == [[0]]
    assert dag_disjoint_paths_bounded(G, [(0, 1)], part, 0) is None


def test_negative_length_bound_is_rejected_in_both_forms():
    # a path has at least 0 edges, so a bound below 0 is an input error,
    # whichever request it would have met
    G = Digraph(3, [(0, 1), (1, 2)])
    part = IntervalPartition([0, 1])
    for pairs in ([(1, 1)], [(0, 2)]):
        with pytest.raises(GraphError, match="length bound must be nonnegative"):
            dag_disjoint_paths(G, pairs, part, max_len=-1)
        with pytest.raises(GraphError, match="length bound must be nonnegative"):
            dag_disjoint_paths_bounded(G, pairs, part, -1)


def test_bounded_matches_unbounded_with_big_budget():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(4, 8)
        G = random_dag(rng, n, 0.35)
        k = rng.randint(1, 3)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        part = _random_partition(rng, k)
        a = dag_disjoint_paths(G, pairs, part)
        b = dag_disjoint_paths_bounded(G, pairs, part, n)
        assert (a is None) == (b is None)


# --- minor checks on DAG hosts ---------------------------------------------


def test_single_edge_pattern():
    G = random_dag(random.Random(5), 6, 0.3)
    H = Digraph(2, [(0, 1)])
    got = dag_minor_check(H, G)
    assert (got is not None) == (G.num_edges() > 0)


def test_cycle_pattern_rejected_on_dag():
    H = Digraph(2, [(0, 1), (1, 0)])
    G = random_dag(random.Random(6), 6, 0.4)
    assert dag_minor_check(H, G) is None


def test_crown2_in_its_subdivision():
    # u -> a -> v1, u -> b -> v2
    host = Digraph(5, [(0, 3), (3, 1), (0, 4), (4, 2)])
    pattern, _ = crown(2)  # vertices v1=0, v2=1, u=2
    got = dag_minor_check(pattern, host)
    assert got is not None
    ok, bad = verify_model(got)
    assert ok, bad
    assert brute_directed_minor(pattern, host)


def test_crown3_in_subdivision_checks():
    host = subdivided_crown3()
    pattern, _ = crown(3)
    got = dag_minor_check(pattern, host)
    assert got is not None and verify_model(got)[0]
    shallow = shallow_minor_check(pattern, host, 1)
    assert shallow is not None and verify_model(shallow)[0]
    assert shallow_minor_check(pattern, host, 0) is None  # not a subgraph


def test_depth_zero_equals_subgraph():
    rng = random.Random(88)
    for _ in range(30):
        G = random_digraph(rng, 6, 0.3)
        H = random_digraph(rng, 3, 0.4)
        got = shallow_minor_check(H, G, 0)
        assert (got is not None) == (subgraph_check(H, G) is not None)
        assert (got is not None) == brute_subgraph(H, G)


def test_shallow_witness_reverifies_unrestricted():
    host = subdivided_crown3()
    pattern, _ = crown(3)
    m = shallow_minor_check(pattern, host, 1)
    relaxed = DirectedModel(
        m.host, m.pattern, m.branch, m.edge_image, m.source, m.sink, None
    )
    ok, bad = verify_model(relaxed)
    assert ok, bad


def test_dag_check_agrees_with_bruteforce():
    rng = random.Random(2024)
    for _ in range(40):
        G = random_dag(rng, rng.randint(4, 7), 0.35)
        H = random_digraph(rng, rng.randint(1, 3), 0.4)
        got = dag_minor_check(H, G)
        want = brute_directed_minor(H, G)
        assert (got is not None) == want
        if got is not None:
            ok, bad = verify_model(got)
            assert ok, bad


def test_shallow_agrees_with_bruteforce_on_cyclic_hosts():
    rng = random.Random(321)
    for _ in range(25):
        G = random_digraph(rng, 6, 0.3)
        H = random_digraph(rng, rng.randint(1, 3), 0.4)
        r = rng.randint(0, 2)
        got = shallow_minor_check(H, G, r)
        want = brute_directed_minor(H, G, depth=r)
        assert (got is not None) == want
        if got is not None:
            ok, bad = verify_model(got)
            assert ok, bad


@pytest.mark.parametrize("n", [16, 30])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crown3_in_random_dag_baselines(n, seed):
    # unbounded and depth-n checks walk the same guesses in the same order,
    # so the first guess that routes, and with it the ends, must agree
    G = random_dag(random.Random(seed), n, 0.2)
    H, _ = crown(3)
    a = dag_minor_check(H, G)
    b = shallow_minor_check(H, G, n)
    for m in (a, b):
        assert m is not None
        ok, bad = verify_model(m)
        assert ok, bad
    assert (a.edge_image, a.source, a.sink) == (b.edge_image, b.source, b.sink)


# --- general host check ----------------------------------------------------


def test_identity_and_k3_in_k4():
    G = random_digraph(random.Random(11), 5, 0.4)
    m = general_minor_check(G, G)
    assert m is not None and verify_model(m)[0]
    K3 = bidirect(underlying_undirected(acyclic_tournament(3)))
    K4 = bidirect(underlying_undirected(acyclic_tournament(4)))
    m = general_minor_check(K3, K4)
    assert m is not None and verify_model(m)[0]


def test_general_agrees_with_bruteforce_on_dag_hosts():
    rng = random.Random(500)
    for _ in range(25):
        G = random_dag(rng, rng.randint(3, 6), 0.4)
        H = random_digraph(rng, rng.randint(1, 3), 0.4)
        got = general_minor_check(H, G)
        assert (got is not None) == brute_directed_minor(H, G)


# a dense pattern in a dense cyclic host: many edge images fit, but in
# most of them a branch cannot join its ends without crossing another
DENSE_PATTERN = Digraph(4, [(0, 2), (1, 0), (1, 3), (2, 0), (2, 1), (2, 3), (3, 0), (3, 2)])
DENSE_HOST = Digraph(7, [
    (0, 2), (0, 4), (0, 6), (1, 0), (1, 2), (1, 3), (1, 5), (1, 6), (2, 0), (2, 3), (2, 6),
    (3, 2), (3, 6), (4, 0), (4, 1), (4, 2), (5, 2), (5, 3), (5, 4), (6, 1), (6, 3),
])


def test_dense_pattern_prunes_guesses_whose_branch_cannot_connect(monkeypatch):
    """Work guard: a partial guess dies once an in-head of a branch cannot
    reach one of its out-tails through free vertices and the branch's
    own. With only the whole-host reach test this query yields 1,272
    guesses."""
    import crownminor.minors as minors

    calls = [0]
    enumerate_guesses = minors._enumerate_guesses

    def counting(H, G, depth=None):
        for guess in enumerate_guesses(H, G, depth):
            calls[0] += 1
            yield guess

    monkeypatch.setattr(minors, "_enumerate_guesses", counting)
    model = shallow_minor_check(DENSE_PATTERN, DENSE_HOST, 7)
    assert model is not None and verify_model(model)[0]
    assert 0 < calls[0] <= 10


def _reference_model(H, G, depth):
    """The first guess of the unpruned reference stream that routes,
    assembled, with the number of guesses it took."""
    import crownminor.minors as minors

    for count, (image, source, sink, owner) in enumerate(reference_guesses(H, G, depth), 1):
        reqs = branch_requests_by_scan(H, image, source, sink)
        own = dict.fromkeys(H.vertices(), 0)
        for x, v in owner.items():
            own[v] |= 1 << x
        if minors._route(G, reqs, own, depth) is not None:
            return minors._assemble(H, G, image, source, sink, own, depth), count
    return None, None


def test_pruned_guesses_keep_the_first_routing_guess():
    """Owner-aware pruning drops only guesses that cannot route, so every
    checker returns exactly the model the unpruned stream reaches first."""
    rng = random.Random(4242)
    found = 0
    for i in range(300):
        if i % 3 == 0:
            G = random_dag(rng, rng.randint(4, 12), rng.choice([0.3, 0.45]))
            H = random_dag(rng, rng.randint(2, 5), 0.6)
            depth, got = None, dag_minor_check(H, G)
        else:
            G = random_digraph(rng, rng.randint(3, 8), rng.choice([0.3, 0.45]))
            H = random_digraph(rng, rng.randint(2, min(4, G.n)), 0.5)
            if i % 3 == 1:
                depth = rng.randint(0, 3)
                got = shallow_minor_check(H, G, depth)
            else:
                depth, got = None, general_minor_check(H, G)
        assert got == _reference_model(H, G, depth)[0]
        found += got is not None and H.num_edges() > 1
    assert found >= 100


@pytest.mark.parametrize("G", [Digraph(0), Digraph(3, [(0, 1), (1, 2)])], ids=["empty", "path"])
def test_empty_pattern_has_the_model_with_no_branches(G):
    # the guess enumerator yields one empty guess, which routes at once
    H = Digraph(0)
    got = [(None, dag_minor_check(H, G)), (None, general_minor_check(H, G)),
           (None, is_butterfly_minor(H, G))]
    got += [(r, shallow_minor_check(H, G, r)) for r in range(3)]
    for depth, model in got:
        assert model == DirectedModel(G, H, {}, {}, {}, {}, depth)
        assert verify_model(model) == (True, [])


def _pinned_model(model):
    if model is None:
        return None
    return (sorted((v, sorted(b)) for v, b in model.branch.items()),
            sorted(model.edge_image.items()), sorted(model.source.items()),
            sorted(model.sink.items()))


def test_minor_outcomes_are_pinned():
    # a fixed battery of random (pattern, host) pairs through the dag,
    # shallow (r 0-2), general and butterfly checks: the hash of every
    # model's branch sets, edge images, sources and sinks, as the guess
    # enumerator produced them before it checked pending pattern edges
    rng = random.Random(0x3A1)
    outcomes = []
    for i in range(300):
        if i % 4 == 0:
            G = random_dag(rng, rng.randint(5, 14), rng.choice([0.2, 0.35]))
            H = random_dag(rng, rng.randint(2, 6), 0.5)
            got = dag_minor_check(H, G)
        else:
            G = random_digraph(rng, rng.randint(4, 10), rng.choice([0.2, 0.35]))
            H = random_digraph(rng, rng.randint(2, min(5, G.n)), 0.5)
            if i % 4 == 1:
                got = shallow_minor_check(H, G, rng.randint(0, 2))
            elif i % 4 == 2:
                got = general_minor_check(H, G)
            else:
                got = is_butterfly_minor(H, G)
        outcomes.append(_pinned_model(got))
    assert 100 < sum(m is not None for m in outcomes) < len(outcomes)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "bc9a894d1e72d3b4ef0d37e19359260290bfe520bd47e482263630dbe001e6dc"


def test_crown_in_dag_prunes_guesses_whose_branch_cannot_meet(monkeypatch):
    """Work guard: on this host the unpruned stream tries 6,077 guesses
    before one routes; the pruned one needs at most a handful and finds
    the same model."""
    import crownminor.minors as minors

    G = random_dag(random.Random(1), 20, 0.2)
    H, _ = crown(3)
    want, tried = _reference_model(H, G, None)
    assert tried >= 1000
    calls = [0]
    enumerate_guesses = minors._enumerate_guesses

    def counting(H, G, depth=None):
        for guess in enumerate_guesses(H, G, depth):
            calls[0] += 1
            yield guess

    monkeypatch.setattr(minors, "_enumerate_guesses", counting)
    assert dag_minor_check(H, G) == want
    assert 0 < calls[0] <= 10


def test_triangle_refuted_in_a_grid_with_few_reach_sweeps(monkeypatch):
    """Work guard: bidirected K3 has no depth-1 model in this grid. A
    prefix dies once a later pattern edge at a touched branch has no host
    edge left from where its tail's branch may take its next out-tail to
    where its head's branch may take its next in-head; without that cut
    the refutation made 18,346 reach_mask calls."""
    import crownminor.minors as minors

    calls = [0]
    reach = minors.reach_mask

    def counted(*args, **kwargs):
        calls[0] += 1
        return reach(*args, **kwargs)

    monkeypatch.setattr(minors, "reach_mask", counted)
    K3 = bidirect(underlying_undirected(acyclic_tournament(3)))
    assert shallow_minor_check(K3, oriented_grid(8, 8, seed=1), 1) is None
    assert calls[0] <= 5000


def test_router_fails_at_once_when_two_owners_need_one_end(monkeypatch):
    """Two requests of different owners end on the ladder's last vertex.
    Claiming ends before the search fails the query before any path is
    walked; without it the first request's 2^21 paths each fail the
    second."""
    import crownminor.minors as minors

    G, t = ladder(22)
    assert G.n == 45
    calls = [0]
    simple_paths = minors._simple_paths

    def counting(*args, **kwargs):
        for path in simple_paths(*args, **kwargs):
            calls[0] += 1
            yield path

    monkeypatch.setattr(minors, "_simple_paths", counting)
    assert dag_disjoint_paths(G, [(0, t), (1, t)], IntervalPartition.from_sizes([1, 1])) is None
    assert calls[0] <= 5


def test_mask_router_matches_the_set_router():
    """The mask router returns the paths the set-based router returned,
    in the same order, fails where it failed, and leaves every owner
    with the vertices the set-based router gave it. Owners hold request
    ends, some ends are shared and some vertices block as other owners'
    own; a third of the queries bound the path length."""
    import crownminor.minors as minors

    rng = random.Random(1717)
    routed = failed = shared_routed = bounded_routed = 0
    for i in range(600):
        n = rng.randint(3, 10)
        if i % 2:
            G = random_dag(rng, n, rng.choice([0.3, 0.5]))
        else:
            G = random_digraph(rng, n, rng.choice([0.25, 0.4]))
        owners = rng.randint(1, 3)
        reqs = [(rng.randrange(owners), rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 4))]
        owner = {}
        for v, a, b in reqs:
            for x in (a, b):
                if owner.setdefault(x, v) != v or rng.random() < 0.1:
                    owner[x] = SHARED
        for x in rng.sample(range(n), rng.randint(0, 2)):
            owner.setdefault(x, rng.randrange(owners + 1))
        max_len = rng.choice([None, None, 0, 1, 2, 3])
        own = dict.fromkeys(range(owners + 1), 0)
        shared = 0
        for x, v in owner.items():
            if v is SHARED:
                shared |= 1 << x
            else:
                own[v] |= 1 << x
        want = route_by_sets(G, reqs, owner, max_len)
        got = minors._route(G, reqs, own, max_len, shared)
        if want is None:
            assert got is None
            failed += 1
            continue
        assert got == [path for _, path in want]
        for v, mask in own.items():
            assert mask == sum(1 << x for x, w in owner.items() if w == v)
        routed += 1
        shared_routed += shared != 0
        bounded_routed += max_len is not None
    assert routed >= 120 and failed >= 300
    assert shared_routed >= 50 and bounded_routed >= 60


# --- butterfly minors ------------------------------------------------------


def test_butterfly_contract_middle_of_path():
    G = Digraph(3, [(0, 1), (1, 2)])
    got = butterfly_contract(G, (0, 1))
    assert got == Digraph(2, [(0, 1)])


def test_butterfly_contract_requires_degree_condition():
    # 0 has two out-edges and 1 has two in-edges: (0,1) not contractible
    G = Digraph(4, [(0, 1), (0, 2), (3, 1)])
    with pytest.raises(GraphError):
        butterfly_contract(G, (0, 1))
    assert (0, 1) not in legal_butterfly_contractions(G)


def test_butterfly_sequences_are_directed_minors():
    rng = random.Random(77)
    for _ in range(25):
        G = random_digraph(rng, rng.randint(3, 6), 0.4)
        H = G
        for _ in range(rng.randint(1, 3)):
            ops = legal_butterfly_contractions(H)
            if not ops or H.n <= 1:
                break
            H = butterfly_contract(H, ops[rng.randrange(len(ops))])
        assert general_minor_check(H, G) is not None
        model = is_butterfly_minor(H, G)
        assert model is not None and verify_model(model)[0]
        assert is_tree_like_model(model)


def butterfly_counterexample():
    """Host with a hub split across a 2-cycle; the star pattern has a
    directed model but no deletion/contraction sequence reaches it."""
    host = Digraph(6, [(2, 0), (3, 1), (0, 1), (1, 0), (0, 4), (1, 5)])
    star = Digraph(5, [(1, 0), (2, 0), (0, 3), (0, 4)])
    return star, host


def test_butterfly_weaker_than_directed_minor():
    star, host = butterfly_counterexample()
    model = general_minor_check(star, host)
    assert model is not None and verify_model(model)[0]
    assert not is_butterfly_minor(star, host)


def test_butterfly_branch_sides_meet_only_at_the_root():
    """The star's centre fits in the hub 2 <-> 4 <-> 6 as a directed
    model. Since 6 is an in-head and an out-tail, it must be the root,
    and its out side reaches the out-tail 2 only through the in-head 4.
    So the in and out sides would share 4, and no tree-like model
    exists."""
    star, _ = butterfly_counterexample()
    host = Digraph(7, [(1, 6), (2, 0), (2, 4), (4, 2), (4, 6), (5, 0), (5, 4), (6, 3), (6, 4)])
    assert general_minor_check(star, host) is not None
    assert not butterfly_minor_by_contraction(star, host)
    assert is_butterfly_minor(star, host) is None


def test_butterfly_positive_cases():
    # a directed 4-cycle butterfly-contracts down to the 2-cycle
    C4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    C2 = Digraph(2, [(0, 1), (1, 0)])
    assert is_butterfly_minor(C2, C4)
    # subgraphs need deletions only
    G = Digraph(3, [(0, 1), (1, 2), (0, 2)])
    H = Digraph(2, [(0, 1)])
    assert is_butterfly_minor(H, G)


def test_butterfly_matches_contraction_oracle():
    """Tree-like models against the contraction search on small hosts:
    the same verdict, and every model is verified, has source = sink
    and splits into in and out sides that meet only at the root."""
    rng = random.Random(1212)
    positives = 0
    for _ in range(1200):
        G = random_digraph(rng, rng.randint(2, 6), rng.choice([0.25, 0.35, 0.5]))
        H = random_digraph(rng, rng.randint(1, min(4, G.n)), rng.choice([0.3, 0.5]))
        model = is_butterfly_minor(H, G)
        assert (model is not None) == butterfly_minor_by_contraction(H, G), (H, G)
        if model is not None:
            positives += 1
            ok, bad = verify_model(model)
            assert ok, bad
            assert model.source == model.sink
            assert is_tree_like_model(model), model
    assert 300 <= positives <= 1100


def test_butterfly_crown_in_a_nine_vertex_host_takes_few_guesses(monkeypatch):
    """Work guard: the contraction search took about 150 s on this
    positive instance, the host of perfbench's random_digraph_edges(9,
    0.25, 1); the tree-like model search needs a handful of guesses."""
    import crownminor.minors as minors

    rng = random.Random(1)
    G = Digraph(9, [(u, v) for u in range(9) for v in range(9) if u != v and rng.random() < 0.25])
    H, _ = crown(3)
    calls = [0]
    enumerate_guesses = minors._enumerate_guesses

    def counting(*args):
        for guess in enumerate_guesses(*args):
            calls[0] += 1
            yield guess

    monkeypatch.setattr(minors, "_enumerate_guesses", counting)
    model = is_butterfly_minor(H, G)
    assert model is not None and is_tree_like_model(model)
    assert 0 < calls[0] <= 10


def test_bipartite_equivalence():
    """On directed-bipartite patterns the butterfly and directed-minor
    relations coincide, and a tree-like model's branches are in- or
    out-branchings."""

    def agree(H, G):
        model = is_butterfly_minor(H, G)
        assert (model is not None) == (general_minor_check(H, G) is not None)
        if model is not None:
            assert verify_model(model)[0]
            assert is_branching_model(model)

    rng = random.Random(4040)
    S2, _ = crown(2)
    for _ in range(12):
        agree(S2, random_digraph(rng, rng.randint(3, 6), 0.35))
    S3r, _ = reversed_crown(3)
    for _ in range(6):
        agree(S3r, random_digraph(rng, 5, 0.4))


# --- topological minors ----------------------------------------------------


def test_topological_subgraph_gives_witness():
    host = subdivided_crown3()
    pattern, _ = crown(3)
    w = topological_minor_check(pattern, host)
    assert w is not None
    model = subdivision_to_model(w)
    ok, bad = verify_model(model)
    assert ok, bad


def test_topological_implies_directed_minor():
    rng = random.Random(606)
    hits = 0
    for _ in range(20):
        G = random_digraph(rng, 6, 0.35)
        H = random_digraph(rng, 3, 0.4)
        w = topological_minor_check(H, G)
        if w is not None:
            hits += 1
            assert verify_model(subdivision_to_model(w))[0]
            assert general_minor_check(H, G) is not None
    assert hits > 0


def test_topological_minor_matches_subdivision_oracle():
    """Verdicts equal the placement-and-path oracle, and every witness is
    a subdivision: paths between the placed ends whose inner vertices
    are neither placed nor shared, with a verified model."""
    rng = random.Random(6161)
    hits = 0
    for _ in range(400):
        G = random_digraph(rng, rng.randint(2, 6), rng.choice([0.3, 0.45]))
        H = random_digraph(rng, rng.randint(1, min(4, G.n)), rng.choice([0.3, 0.5]))
        w = topological_minor_check(H, G)
        assert (w is not None) == brute_topological_minor(H, G), (H, G)
        if w is None:
            continue
        hits += 1
        used = set(w.placement.values())
        assert len(used) == H.n
        for (u, v), path in w.paths.items():
            assert (path[0], path[-1]) == (w.placement[u], w.placement[v])
            assert all(G.has_edge(x, y) for x, y in zip(path, path[1:]))
            assert not used & set(path[1:-1])
            used |= set(path[1:-1])
        assert sorted(w.paths) == sorted(H.edges)
        assert verify_model(subdivision_to_model(w))[0]
    assert 100 <= hits <= 370


# --- grad -------------------------------------------------------------------


def test_grad_examples():
    S3, _ = crown(3)
    assert grad(S3, 0) == Fraction(1)
    edge = Digraph(2, [(0, 1)])
    for r in range(3):
        assert grad(edge, r) == Fraction(1, 2)


def test_shallow_minor_monotone_in_depth():
    rng = random.Random(7171)
    hits = 0
    for _ in range(20):
        G = random_digraph(rng, 6, 0.3)
        H = random_digraph(rng, 3, 0.4)
        r = rng.randint(0, 2)
        m = shallow_minor_check(H, G, r)
        if m is None:
            continue
        hits += 1
        deeper = DirectedModel(
            m.host, m.pattern, m.branch, m.edge_image, m.source, m.sink, r + 1
        )
        assert verify_model(deeper)[0]
        assert shallow_minor_check(H, G, r + 1) is not None
    assert hits > 0


def test_grad_monotone_in_depth():
    rng = random.Random(31337)
    for _ in range(6):
        G = random_digraph(rng, 5, 0.35)
        vals = [grad(G, r) for r in range(3)]
        assert vals == sorted(vals)


def test_grad_search_builds_few_reach_tables(monkeypatch):
    # grad builds the reach table of each block it examines once, with
    # one reach_mask call per member, and only for families its bounds
    # let through; the exhaustive family sweep made 136,056 BFS calls on
    # each of these hosts; the tables are built by verify._branch_reach
    import crownminor.verify

    calls = [0]
    reach = crownminor.verify.reach_mask

    def counted(*args, **kwargs):
        calls[0] += 1
        return reach(*args, **kwargs)

    monkeypatch.setattr(crownminor.verify, "reach_mask", counted)
    for seed in (1, 2, 3):
        calls[0] = 0
        grad(random_digraph(random.Random(seed), 8, 0.3), 1)
        assert calls[0] < 5000


def test_grad_matches_pattern_sweep():
    # independent oracle: try every labeled pattern up to the host size
    # against the brute-force minor check and take the densest hit
    rng = random.Random(99321)
    for _ in range(3):
        G = random_digraph(rng, 4, 0.5)
        r = rng.randint(0, 1)
        best = Fraction(0)
        for h in range(1, G.n + 1):
            pairs = [(u, v) for u in range(h) for v in range(h) if u != v]
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                density = Fraction(len(edges), h)
                if density <= best:
                    continue
                if brute_directed_minor(Digraph(h, edges), G, depth=r):
                    best = density
        assert grad(G, r) == best


# --- undirected oracle and bidirected lifting --------------------------------


def test_undirected_minor_basics():
    tri = underlying_undirected(acyclic_tournament(3))
    path3 = underlying_undirected(Digraph(3, [(0, 1), (1, 2)]))
    assert undirected_minor_check(path3, tri)
    assert not undirected_minor_check(tri, path3)


def test_bidirected_lifting_small():
    rng = random.Random(909)
    for _ in range(15):
        G = underlying_undirected(random_digraph(rng, 4, 0.4))
        H = underlying_undirected(random_digraph(rng, 3, 0.5))
        und = undirected_minor_check(H, G)
        dful = general_minor_check(bidirect(H), bidirect(G)) is not None
        assert und == dful


def test_projection_to_undirected():
    rng = random.Random(515)
    for _ in range(15):
        G = random_dag(rng, 6, 0.35)
        H = random_digraph(rng, 3, 0.4)
        m = dag_minor_check(H, G)
        if m is not None:
            assert undirected_minor_check(
                underlying_undirected(H), underlying_undirected(G)
            )


def test_digraph_isomorphic():
    A = Digraph(3, [(0, 1), (1, 2)])
    B = Digraph(3, [(2, 0), (0, 1)])
    assert digraph_isomorphic(A, B)
    C = Digraph(3, [(0, 1), (2, 1)])
    assert not digraph_isomorphic(A, C)
