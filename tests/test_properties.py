"""Property tests: the BFS kernel and the neighborhoods against path
enumeration, the mask reach sweep against the BFS kernel, the ball
tables' radius recurrence against one reach sweep per vertex, the per-member
sweeps of is_scattered and build_controlled_bipartite against the
per-vertex ones they replaced, the backtracking matcher against
networkx's DiGraphMatcher, the model verifier, the general minor checker
and the disjoint-path router against the brute-force oracles, the
bitmask searches of compute_scattered and the solvers against the
set-based searches they replaced, the solvers' last-choice scans
against the recursion they replaced, and grad against the exhaustive family
sweep and subset enumeration, and the O(k) sampler against the
full-copy one it replaced, and the digraph adjacency, graph text and
controlled-bipartite lists and labels, which sort each list once,
against the forms that sorted the same lists again, and the bulk graph
text parser against the per-line one it replaced, message for message."""

import itertools
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher

from crownminor import scattered, solvers
from crownminor.digraph import (
    Digraph,
    adjacency_masks,
    ball_masks,
    bfs_dist,
    in_neighborhood,
    mask_bits,
    out_neighborhood,
    reach_mask,
    set_neighborhood,
)
from crownminor.generators import oriented_grid, random_bipartite_outregular, random_tournament
from crownminor.graphio import GraphFormatError, emit_graph, parse_graph
from crownminor.rng import SplitMix64
from crownminor.quasiwide import (
    ControlledBipartite,
    build_controlled_bipartite,
    compute_scattered,
    is_scattered,
)
from crownminor.solvers import (
    DominationInstance,
    _first_subset,
    brute_force_solve,
    d_dominating_set,
    dominating_outbranching,
    independent_dominating_set,
    independent_set,
)
from crownminor.minors import (
    DirectedModel,
    IntervalPartition,
    _branch_requests,
    _enumerate_guesses,
    _injective_maps,
    _pattern_tables,
    dag_disjoint_paths,
    dag_disjoint_paths_bounded,
    general_minor_check,
    grad,
    subgraph_check,
    verify_model,
)

from oracles import (
    _model_conditions_hold,
    adjacency_by_sorting,
    ball_masks_by_sweep,
    bipartite_edges,
    branch_requests_by_scan,
    brute_directed_minor,
    brute_disjoint_paths,
    common_ancestor_scatter,
    controlled_bipartite_by_table,
    d_dominating_set_by_holder_lists,
    densest_subgraph_by_subsets,
    digraph_isomorphic,
    enum_paths,
    exhaustive_grad,
    first_subset_by_recursion,
    full_copy_sample,
    in_out_by_scan,
    injective_maps_by_pairs,
    is_directed_path,
    emit_graph_by_sorted_edges,
    ladder,
    parse_graph_by_lines,
    random_digraph,
    reach_by_paths,
    scattered_by_sweep,
    split,
)

SMALL = settings(max_examples=60, deadline=None)


@st.composite
def digraphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, [e for e, k in zip(pairs, keep) if k])


def to_nx(G):
    X = nx.DiGraph()
    X.add_nodes_from(G.vertices())
    X.add_edges_from(G.edges)
    return X


@SMALL
@given(digraphs(min_n=1), st.data())
def test_bfs_dist_matches_path_enumeration(G, data):
    vertex_sets = st.frozensets(st.integers(0, G.n - 1))
    src = data.draw(st.integers(0, G.n - 1))
    depth = data.draw(st.none() | st.integers(0, 4))
    direction = data.draw(st.sampled_from(["out", "in"]))
    within = data.draw(st.none() | vertex_sets)
    reverse = direction == "in"

    assert sorted(bfs_dist(G, src, depth, direction)) == reach_by_paths(G, src, depth, reverse)

    dist = bfs_dist(G, src, depth, direction, within=within)
    parent = bfs_dist(G, src, depth, direction, within=within, parents=True)
    assert dist == bfs_dist(G.reversed(), src, depth, "out" if reverse else "in",
                            within=within)
    passable = set(G.vertices()) if within is None else set(within)
    if src not in passable:
        assert dist == {} and parent == {}
        return
    # the oracle sees only the passable vertices
    sub = Digraph(G.n, [(u, v) for u, v in G.edges if u in passable and v in passable])
    shortest = {}
    for path in enum_paths(sub, src, max_len=depth, reverse=reverse):
        shortest[path[-1]] = min(shortest.get(path[-1], len(path)), len(path) - 1)
    assert dist == shortest

    assert set(parent) == set(dist) and parent[src] is None
    for v in parent:
        steps, x = 0, v
        while parent[x] is not None:
            p = parent[x]
            assert G.has_edge(x, p) if reverse else G.has_edge(p, x)
            steps, x = steps + 1, p
        assert x == src and steps == dist[v]


@SMALL
@given(digraphs(min_n=1), st.data())
def test_neighborhoods_avoid_matches_path_enumeration(G, data):
    vertex_sets = st.frozensets(st.integers(0, G.n - 1))
    X = sorted(data.draw(vertex_sets))
    avoid = data.draw(vertex_sets)
    d = data.draw(st.integers(0, 4))
    # the oracle walks the graph without the avoided vertices
    sub = Digraph(G.n, [(u, v) for u, v in G.edges if u not in avoid and v not in avoid])
    for reverse, one in ((False, out_neighborhood), (True, in_neighborhood)):
        balls = {x: [] if x in avoid else reach_by_paths(sub, x, d, reverse) for x in X}
        for x in X:
            assert list(one(G, x, d, avoid)) == balls[x]
        want = sorted(set().union(*balls.values()))
        assert list(set_neighborhood(G, X, d, "in" if reverse else "out", avoid)) == want


@SMALL
@given(digraphs(min_n=1), st.data())
def test_reach_mask_matches_bfs_dist(G, data):
    src = data.draw(st.integers(0, G.n - 1))
    within = data.draw(st.frozensets(st.integers(0, G.n - 1)))
    depth = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    # a start set sweeps to the union of its members' sweeps; members
    # outside `within` reach nothing
    starts = data.draw(st.frozensets(st.integers(0, G.n - 1)))
    mask = sum(1 << v for v in within)
    for direction in ("out", "in"):
        adj = adjacency_masks(G, direction)
        got = reach_mask(adj, 1 << src, mask, depth)
        want = bfs_dist(G, src, depth, direction, within=within)
        assert list(mask_bits(got)) == sorted(want)
        got = reach_mask(adj, sum(1 << v for v in starts), mask, depth)
        want = set().union(*(bfs_dist(G, v, depth, direction, within=within) for v in starts))
        assert list(mask_bits(got)) == sorted(want)


@SMALL
@given(digraphs(max_n=10))
def test_ball_masks_match_the_per_vertex_sweep(G):
    for d in (-1, 0, 1, 2, 3, 4, G.n + 1):
        for direction in ("out", "in"):
            assert ball_masks(G, d, direction) == ball_masks_by_sweep(G, d, direction)


@SMALL
@given(st.integers(0, 2**64 - 1), st.data())
def test_sample_matches_full_copy(seed, data):
    kind = data.draw(st.sampled_from(["range", "list", "tuple"]))
    if kind == "range":
        start = data.draw(st.integers(-5, 5))
        seq = range(start, start + data.draw(st.integers(0, 40)))
    else:
        items = data.draw(st.lists(st.integers(-9, 9) | st.text(max_size=2), max_size=40))
        seq = items if kind == "list" else tuple(items)
    n = len(seq)
    k = data.draw(st.sampled_from([0, n]) | st.integers(0, n))
    key = data.draw(st.integers(-5, 2**64 + 5))
    rng = SplitMix64(seed)
    assert rng.samples([key], seq, k) == [full_copy_sample(split(SplitMix64(seed), key), seq, k)]
    # drawing for a child leaves the parent where it was
    assert rng.next_u64() == SplitMix64(seed).next_u64()
    with pytest.raises(ValueError):
        rng.samples([key], seq, n + data.draw(st.integers(1, 3)))


@st.composite
def disjoint_path_queries(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = Digraph(n, [e for e, k in zip(pairs, keep) if k])
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    reqs = draw(st.lists(ends, min_size=1, max_size=4))
    sizes, left = [], len(reqs)
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    return G, reqs, sizes, draw(st.none() | st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(disjoint_path_queries())
# two owners whose requests share their last vertex, behind 2^4 paths
@example((ladder(5)[0], [(0, 10), (1, 10)], [1, 1], None))
def test_dag_disjoint_paths_match_brute_force(query):
    G, reqs, sizes, max_len = query
    part = IntervalPartition.from_sizes(sizes)
    if max_len is None:
        paths = dag_disjoint_paths(G, reqs, part)
    else:
        paths = dag_disjoint_paths_bounded(G, reqs, part, max_len)
    assert (paths is not None) == brute_disjoint_paths(G, reqs, part.groups(), max_len)
    if paths is None:
        return
    group = {i: g for g, members in enumerate(part.groups()) for i in members}
    for i, ((s, t), path) in enumerate(zip(reqs, paths)):
        assert (path[0], path[-1]) == (s, t) and is_directed_path(G, path)
        assert max_len is None or len(path) - 1 <= max_len
        for j in range(i):
            assert group[i] == group[j] or not set(path) & set(paths[j])


@SMALL
@given(digraphs(), st.data())
def test_digraph_isomorphic_matches_networkx(A, data):
    perm = data.draw(st.permutations(range(A.n)))
    B = Digraph(A.n, [(perm[u], perm[v]) for u, v in A.edges])
    C = data.draw(digraphs(min_n=A.n, max_n=A.n))
    assert digraph_isomorphic(A, B)
    assert digraph_isomorphic(A, C) == DiGraphMatcher(to_nx(A), to_nx(C)).is_isomorphic()


@SMALL
@given(digraphs(max_n=4), digraphs())
def test_subgraph_check_matches_networkx(H, G):
    mapping = subgraph_check(H, G)
    assert (mapping is not None) == DiGraphMatcher(to_nx(G), to_nx(H)).subgraph_is_monomorphic()
    if mapping is not None:
        assert len(set(mapping.values())) == H.n
        assert all(G.has_edge(mapping[u], mapping[v]) for u, v in H.edges)


def edge_maps(A, B):
    """The matcher's maps of A into B over B's adjacency masks."""
    return _injective_maps(A, B, adjacency_masks(B, "out"), adjacency_masks(B, "in"))


@SMALL
@given(digraphs())
def test_automorphism_count_matches_networkx(G):
    autos = {tuple(m[v] for v in G.vertices()) for m in edge_maps(G, G)}
    expected = sum(1 for _ in DiGraphMatcher(to_nx(G), to_nx(G)).isomorphisms_iter())
    assert len(autos) == expected
    assert tuple(G.vertices()) in autos


@SMALL
@given(digraphs(max_n=4), digraphs())
def test_mask_maps_match_the_pairwise_maps(H, G):
    # the same maps in the same order, into another digraph and into the
    # digraph itself; onto itself the edge-preserving maps are exactly
    # the pairwise search's induced ones, its automorphisms
    for A, B in ((H, G), (G, G)):
        assert list(edge_maps(A, B)) == list(injective_maps_by_pairs(A, B, False))
    assert list(edge_maps(G, G)) == list(injective_maps_by_pairs(G, G, True))


@SMALL
@given(digraphs(max_n=4), digraphs(min_n=1, max_n=6), st.sampled_from([None, 0, 1, 2]),
       st.booleans())
# branch 2 must hold in-heads 2, 3 and out-tails 4, 5: four requests
@example(Digraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
         Digraph(8, [(0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 7)]), None, False)
def test_guess_ends_and_requests_match_the_edge_scan(H, G, depth, tree):
    # each guess's branch ends are the in-heads and out-tails a scan of
    # its edge image finds, and its requests are the scan's, in order
    _pattern_tables.cache_clear()
    cold = list(itertools.islice(_enumerate_guesses(H, G, depth, tree), 200))
    # the same guesses from pattern tables built for an equal copy of H
    _pattern_tables.cache_clear()
    _pattern_tables(Digraph(H.n, H.edges))
    assert list(itertools.islice(_enumerate_guesses(H, G, depth, tree), 200)) == cold
    assert _pattern_tables.cache_info().misses == 1
    for image, source, sink, _, ends in cold:
        assert ends == {v: in_out_by_scan(H, image, v) for v in H.vertices()}
        assert _branch_requests(ends, source, sink) == branch_requests_by_scan(
            H, image, source, sink)


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=1, max_n=3), st.data())
def test_verify_model_matches_oracle_conditions(H, data):
    n = data.draw(st.integers(H.n, 7))
    # the first H.n vertices of a random order seed the branches, so
    # none is empty; every other vertex joins one or none (label 0)
    order = data.draw(st.permutations(range(n)))
    rest = data.draw(st.lists(st.integers(0, H.n), min_size=n, max_size=n))
    blocks = [[] for _ in range(H.n)]
    for i, x in enumerate(order):
        label = i + 1 if i < H.n else rest[i]
        if label:
            blocks[label - 1].append(x)
    # a sparse host: a path or a cycle through each branch in that order,
    # the edge images, and a few more edges, so that the depth bound matters
    edges = sorted(H.edges)
    images = [(data.draw(st.sampled_from(blocks[u])), data.draw(st.sampled_from(blocks[v])))
              for u, v in edges]
    closed = data.draw(st.booleans())
    chains = [(b[i], b[(i + 1) % len(b)]) for b in blocks
              for i in range(len(b) if closed and len(b) > 1 else len(b) - 1)]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    G = Digraph(n, chains + images + extra)
    depth = data.draw(st.sampled_from([None, 0, 1, 2]))
    blocks = [set(b) for b in blocks]
    model = DirectedModel(
        G, H, {v: frozenset(b) for v, b in enumerate(blocks)}, dict(zip(edges, images)),
        {}, {}, depth,
    )
    assert verify_model(model)[0] == _model_conditions_hold(H, G, blocks, images, depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), digraphs(min_n=1, max_n=3), st.data())
def test_general_minor_check_matches_oracle_on_cyclic_hosts(n, H, data):
    # a cycle through some of the host's vertices, plus a few other edges
    order = data.draw(st.permutations(range(n)))
    cycle = order[:data.draw(st.integers(2, n))]
    ring = [(a, cycle[(i + 1) % len(cycle)]) for i, a in enumerate(cycle)]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4))
    G = Digraph(n, ring + extra)
    model = general_minor_check(H, G)
    assert (model is not None) == brute_directed_minor(H, G)
    if model is not None:
        assert verify_model(model)[0]


@SMALL
@given(digraphs(min_n=1, max_n=4), digraphs(min_n=2, max_n=6))
# a dense pattern whose branches must route around each other's vertices
@example(Digraph(4, [(0, 2), (1, 0), (1, 3), (2, 0), (2, 1), (2, 3), (3, 0), (3, 2)]),
         Digraph(7, [(0, 2), (0, 4), (0, 6), (1, 0), (1, 2), (1, 3), (1, 5), (1, 6), (2, 0),
                     (2, 3), (2, 6), (3, 2), (3, 6), (4, 0), (4, 1), (4, 2), (5, 2), (5, 3),
                     (5, 4), (6, 1), (6, 3)]))
def test_general_minor_check_matches_oracle(H, G):
    model = general_minor_check(H, G)
    assert (model is not None) == brute_directed_minor(H, G)
    if model is not None:
        assert verify_model(model)[0]


@st.composite
def scatter_queries(draw):
    G = draw(digraphs(min_n=1, max_n=9))
    W = draw(st.lists(st.integers(0, G.n - 1), min_size=1, unique=True))
    d = draw(st.integers(0, 2))
    m = draw(st.integers(1, len(W)))
    s_budget = draw(st.integers(0, 4))
    probe_cap = draw(st.sampled_from([3, 6, 14]))
    return G, W, d, m, s_budget, probe_cap


@SMALL
@given(scatter_queries())
# the survivor cut: U = {0, 1} keeps C = {1} within budget but loses 1
@example((Digraph(3, [(1, 0)]), [0, 1, 2], 2, 2, 4, 14))
# no answer of size m, while {0, 1, 2} keeps C within budget: the walk
# stops at size m where the set-based search goes on to size 3
@example((Digraph(3, [(0, 2), (1, 0)]), [0, 1, 2], 2, 2, 4, 6))
def test_compute_scattered_matches_set_based_search(query):
    G, W, d, m, s_budget, probe_cap = query
    with mock.patch.object(scattered, "PROBE_CAP", probe_cap):
        w = compute_scattered(G, W, d, m, s_budget)
    got = None if w is None else (w.deleted, w.members)
    assert got == common_ancestor_scatter(G, W, d, m, s_budget, probe_cap)


@st.composite
def scatter_checks(draw):
    G = draw(digraphs(min_n=1, max_n=9))
    ids = st.integers(0, G.n - 1)
    return G, draw(st.lists(ids, unique=True)), draw(st.integers(0, 3)), draw(st.frozensets(ids))


@SMALL
@given(scatter_checks())
# the only path from 0 to 2 runs through the deleted vertex 1
@example((Digraph(3, [(0, 1), (1, 2)]), [0, 2], 2, frozenset([1])))
def test_is_scattered_matches_per_vertex_sweep(query):
    G, U, d, deleted = query
    assert is_scattered(G, U, d, deleted) == scattered_by_sweep(G, U, d, deleted)


@SMALL
@given(digraphs(min_n=1, max_n=9), st.data())
def test_controlled_bipartite_matches_distance_table(G, data):
    r = data.draw(st.integers(0, 2))
    I = []
    for v in data.draw(st.permutations(range(G.n))):
        if scattered_by_sweep(G, I + [v], r):
            I.append(v)
    I = I[:data.draw(st.integers(1, len(I)))]
    got = build_controlled_bipartite(G, I, r)
    want = controlled_bipartite_by_table(G, I, r)
    assert vars(got) == vars(want)
    for field in ("base", "level", "eta"):
        assert list(getattr(got, field).items()) == list(getattr(want, field).items())


def test_controlled_bipartite_matches_distance_table_up_to_radius_four():
    # the drawn test above stops at r = 2; this one holds labels of r or
    # more steps at every r from 2 to 4, on host families the dichotomy
    # runs on
    rng = random.Random(42)
    hosts = []
    for _ in range(8):
        hosts.append(oriented_grid(rng.randint(4, 12), rng.randint(4, 12),
                                   seed=rng.getrandbits(30)))
        hosts.append(random_bipartite_outregular(rng.randint(10, 40), rng.randint(1, 2),
                                                 rng.getrandbits(30)))
        hosts.append(random_tournament(rng.randint(3, 10), rng.getrandbits(30)))
    long_tails = [0] * 5
    for G in hosts:
        for r in range(5):
            I = []
            for v in rng.sample(range(G.n), G.n):
                if scattered_by_sweep(G, I + [v], r):
                    I.append(v)
            got = build_controlled_bipartite(G, I, r)
            want = controlled_bipartite_by_table(G, I, r)
            assert vars(got) == vars(want)
            for field in ("base", "level", "eta"):
                assert list(getattr(got, field).items()) == list(getattr(want, field).items())
            long_tails[r] += sum(len(tail) >= r for tail in got.eta.values())
    assert all(long_tails[2:]), long_tails


# Fixed-seed checks that the construction and text path, which sort each
# list once, reproduce the forms that sorted the same lists again.


def _shuffled_edge_lists(seed, count=80):
    """(n, edges) for random digraphs, each edge list in shuffled order
    and with about a third of its edges repeated."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, 30)
        edges = sorted(random_digraph(rng, n, rng.choice([0.05, 0.2, 0.5])).edges)
        edges += [rng.choice(edges) for _ in range(len(edges) // 3)]
        rng.shuffle(edges)
        yield n, edges


def test_digraph_adjacency_matches_sorted_copies():
    for n, edges in _shuffled_edge_lists(1):
        G = Digraph(n, edges)
        assert (G.out_adj, G.in_adj) == adjacency_by_sorting(n, edges)
        assert all(type(a) is tuple for a in (G.out_adj, G.in_adj) + G.out_adj + G.in_adj)


def test_emitted_text_matches_sorted_edge_order():
    for n, edges in _shuffled_edge_lists(2):
        G = Digraph(n, edges)
        comments = ["n %d" % n, "m %d" % G.num_edges()]
        text = emit_graph(G, comments)
        assert text == emit_graph_by_sorted_edges(G, comments)
        assert parse_graph(text) == G


def test_parse_reads_edge_lines_in_any_order():
    rng = random.Random(3)
    for n, edges in _shuffled_edge_lists(3):
        distinct = list(dict.fromkeys(edges))
        lines = ["# host", "%d" % n]
        for u, v in distinct:
            lines.append("%d %d" % (u, v) + rng.choice(["", " # e", "\t"]))
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "  ", "# only a comment"]))
        assert parse_graph("\n".join(lines)) == Digraph(n, edges)


# tokens that int() reads in its own way: signs, underscores and
# non-ASCII digits are integers to it, the rest are not
ODD_TOKENS = ["+1", "1_0", "\u0663", "\uff12", "-1", "-0", "x", "1.0", "0x1", "1__0", "\u00b2"]
FAULTS = ["duplicate", "loop", "out of range", "one field", "three fields", "odd token",
          "negative n", "long head", "no head"]


@st.composite
def graph_texts(draw):
    """(text, graph): a graph written with comments, blank lines, tabs and
    mixed line ends, then given up to two faults; graph is None when a
    fault was made."""
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    rows = [[str(u), str(v)] for u, v in edges]
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    head = [str(n)]
    for fault in faults:
        row = None
        if fault == "duplicate" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif fault == "loop":
            row = [str(draw(st.integers(0, max(n - 1, 0))))] * 2
        elif fault == "out of range":
            row = [str(n), "0"] if draw(st.booleans()) else ["0", "-1"]
        elif fault == "one field":
            row = ["0"]
        elif fault == "three fields":
            row = ["0", "1", "2"]
        elif fault == "odd token":
            target = draw(st.sampled_from([head] + rows))
            target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif fault == "negative n":
            head[0] = "-%d" % draw(st.integers(1, 3))
        elif fault == "long head":
            head += ["0", "1"][:draw(st.integers(1, 2))]
        if row is not None:
            rows.insert(draw(st.integers(0, len(rows))), row)
    leading = st.sampled_from(["", "  ", "# lead", "\t# lead"])
    lines = [draw(leading) for _ in range(draw(st.integers(0, 2)))]
    for fields in ([] if "no head" in faults else [head]) + rows:
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        tail = draw(st.sampled_from(["", "", " # note", "#", "# 1 2"]))
        lines.append(pad + sep.join(fields) + pad + tail)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "# only a comment"])))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\u2028"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n\u2028")
    return text, None if faults else Digraph(n, edges)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as err:
        return "GraphFormatError: %s" % err


@settings(max_examples=400, deadline=None)
@given(graph_texts())
@example(("\n# lead\r\n3\t# n\r\n0\t1\r\n\r\n2 1 # e\r\n", Digraph(3, [(0, 1), (2, 1)])))
@example(("3\n0\n1 2 0\n", None))
@example(("\u0663\n+1 1_0\n", None))
@example(("-2\n", None))
@example(("2\n0 1\r\n1 0\n0 1 # again\n", None))
@example(("3\n0 x\n", None))
@example(("3 0 1\n2 1\n", None))
def test_parse_matches_the_per_line_parser(case):
    text, G = case
    got = _parse_outcome(parse_graph, text)
    assert got == _parse_outcome(parse_graph_by_lines, text)
    if G is not None:
        assert got == G


def test_controlled_bipartite_labels_and_lists_match_former_forms():
    rng = random.Random(4)
    empty_tails = 0
    for _ in range(150):
        n = rng.randrange(1, 12)
        G = random_digraph(rng, n, rng.choice([0.1, 0.2, 0.35]))
        r = rng.randrange(0, 3)
        I = []
        for v in rng.sample(range(n), n):
            if scattered_by_sweep(G, I + [v], r):
                I.append(v)
        got = build_controlled_bipartite(G, I, r)
        want = controlled_bipartite_by_table(G, I, r)
        assert list(got.eta.items()) == list(want.eta.items())
        # the masks hold exactly the labelled edges, seen from either side
        assert bipartite_edges(got) == set(want.eta)
        assert got.pred == {b: sum(1 << a for (a, y) in want.eta if y == b) for b in I}
        # a restriction holds the induced edges and shares the tables
        a_keep, b_keep = rng.getrandbits(n), rng.getrandbits(n)
        sub = got.restrict(a_keep, b_keep)
        assert bipartite_edges(sub) == {(a, b) for (a, b) in want.eta
                             if a_keep >> a & 1 and b_keep >> b & 1}
        assert sub.pred == {b: got.pred[b] & a_keep for b in I if b_keep >> b & 1}
        assert sub.base is got.base and sub.level is got.level and sub.eta is got.eta
        # a member reaching another member has the empty tail on its own edge
        empty_tails += sum(not tail for tail in got.eta.values())
        # the same edges given shuffled and with repeats fill the same masks
        edges = sorted(want.eta) * 2
        rng.shuffle(edges)
        again = ControlledBipartite(got.a_nodes, got.b_nodes, edges, got.base, got.level,
                                    got.eta, r)
        assert (again.succ, again.pred) == (got.succ, got.pred)
    assert empty_tails > 0


def _power(G, d):
    """u -> w whenever w is within out-distance d of u: distance-d
    independence in G is plain independence here."""
    return Digraph(G.n, [(u, w) for u in G.vertices()
                         for w in reach_by_paths(G, u, d) if w != u])


@SMALL
@given(digraphs(max_n=9), st.integers(1, 2), st.data())
def test_independent_set_matches_brute_force(G, d, data):
    k = data.draw(st.integers(0, G.n + 1))
    got = independent_set(G, k, d=d)
    want = brute_force_solve(DominationInstance(_power(G, d), k), "is")
    assert got.feasible == want.feasible
    if got.feasible:
        # the exact search keeps itertools.combinations order
        assert got.witness == want.witness


@SMALL
@given(st.data())
def test_first_subset_is_the_first_accepted_cover_in_combinations_order(data):
    n = data.draw(st.integers(0, 10))
    cand = data.draw(st.integers(0, (1 << n) - 1))
    low = data.draw(st.integers(0, n))
    sizes = range(low, data.draw(st.integers(low, n + 1)))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
                      if n else st.just([]))
    clash = [0] * n
    for u, w in pairs:
        if u != w:
            clash[u] |= 1 << w
            clash[w] |= 1 << u
    mask = st.integers(0, (1 << n) - 1)
    cover = [data.draw(mask) for _ in range(n)]
    want = data.draw(mask)
    mod, rejected = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))

    def accept(picked):
        members = tuple(mask_bits(picked))
        return None if sum(members) % mod == rejected else members

    members = [v for v in range(n) if cand >> v & 1]
    combos = itertools.chain.from_iterable(itertools.combinations(members, size) for size in sizes)
    expected = None
    for combo in combos:
        covered = 0
        for v in combo:
            covered |= cover[v]
        if (not want & ~covered
                and not any(clash[u] >> w & 1 for u, w in itertools.combinations(combo, 2))
                and accept(sum(1 << v for v in combo)) is not None):
            expected = combo
            break
    assert _first_subset(cand, sizes, clash, cover, want, accept) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_subset_scan_makes_the_accept_calls_of_the_recursion(data):
    # the last open place by one scan against the former search, one
    # recursive call per candidate: the same accept calls in the same
    # order, and the same answer, with accept rejecting some covers
    n = data.draw(st.integers(0, 14))
    cand = data.draw(st.integers(0, (1 << n) - 1))
    low = data.draw(st.integers(0, 4))
    sizes = range(low, data.draw(st.integers(low, max(low, min(n, 6)) + 1)))
    clash = [0] * n
    for u, w in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
                          if n else st.just([])):
        if u != w:
            clash[u] |= 1 << w
            clash[w] |= 1 << u
    mask = st.integers(0, (1 << n) - 1)
    thin = data.draw(st.integers(1, 3))
    cover = []
    for _ in range(n):
        m = (1 << n) - 1
        for _ in range(thin):
            m &= data.draw(mask)
        cover.append(m)
    want = data.draw(mask)
    mod, rejected = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))

    def logged(log):
        def accept(picked):
            log.append(picked)
            return None if picked % mod == rejected else picked
        return accept

    got_log, want_log = [], []
    got = _first_subset(cand, sizes, clash, cover, want, logged(got_log))
    assert got == first_subset_by_recursion(cand, sizes, clash, cover, want, logged(want_log))
    assert got_log == want_log


def test_d_dominating_set_matches_the_holder_lists():
    # holders read off masks and a scan for the last choice against the
    # former per-target holder lists: the same verdict and witness on
    # random digraphs, oriented grids and directed paths, d 1-3, at
    # every k from 0 to one past the optimum
    rng = random.Random(43)
    hosts = [random_digraph(rng, rng.randint(0, 32), rng.uniform(0.02, 0.35))
             for _ in range(120)]
    hosts += [oriented_grid(side, side, seed=side) for side in (3, 4, 5)]
    hosts += [Digraph(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 7, 20)]
    deep = 0
    for G in hosts:
        for d in (1, 2, 3):
            k, optimum = 0, None
            while optimum is None or k <= optimum + 1:
                want = d_dominating_set_by_holder_lists(G, k, d)
                assert tuple(d_dominating_set(G, k, d)) == tuple(want), (G, k, d)
                if want.feasible and optimum is None:
                    optimum = k
                k += 1
            deep += optimum >= 4
    assert deep > 100


@SMALL
@given(digraphs(max_n=9), st.integers(0, 4), st.sampled_from([3, 10]))
def test_domination_solvers_match_brute_force_feasibility(G, k, base_cap):
    inst = DominationInstance(G, k)
    with mock.patch.object(solvers, "BASE_CAP", base_cap):
        got = independent_dominating_set(G, k)
    assert got.feasible == brute_force_solve(inst, "ids").feasible
    assert dominating_outbranching(G, k).feasible == brute_force_solve(inst, "dob").feasible


@settings(max_examples=80, deadline=None)
@given(digraphs(max_n=6), st.integers(0, 2))
@example(Digraph(0), 1)
@example(Digraph(5), 2)
@example(Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)]), 1)
@example(Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (4, 5), (5, 3)]), 2)
# the densest partition into connected blocks has the block {0, 2, 5},
# entered at 0 and at 5 and left at 5: an out side {5} that is the
# intersection of two members' reach sets but no member's own reach set
@example(Digraph(6, [(0, 5), (1, 5), (3, 0), (3, 1), (4, 0), (4, 3), (5, 1), (5, 2)]), 1)
def test_grad_matches_exhaustive_sweep(G, r):
    assert grad(G, r) == exhaustive_grad(G, r)


@SMALL
@given(digraphs(max_n=10))
@example(Digraph(0))
@example(Digraph(3))
# the first min-cut step finds a set of density 11/7; a second finds 8/5
@example(Digraph(9, [(0, 3), (0, 4), (0, 7), (1, 4), (2, 1), (4, 8), (5, 0), (6, 4),
                     (7, 0), (8, 2), (8, 4), (8, 6), (8, 7)]))
def test_grad_at_depth_zero_is_the_densest_subgraph(G):
    assert grad(G, 0) == densest_subgraph_by_subsets(G)
