import random

import pytest

from crownminor import digraph
from crownminor.digraph import (
    Digraph,
    GraphError,
    adjacency_masks,
    ball_masks,
    bidirect,
    count_alternations,
    find_cycle,
    in_neighborhood,
    is_dag,
    is_directed_bipartite,
    out_neighborhood,
    set_neighborhood,
    topological_order,
    underlying_undirected,
)
from crownminor.generators import (
    alternating_path,
    crown,
    oriented_grid,
    random_bipartite_outregular,
    reversed_crown,
)
from crownminor.graphio import emit_graph

from oracles import ball_masks_by_sweep, is_directed_path, random_digraph, reach_by_paths


def is_alternating_path_model(G, path):
    """True iff `path` realizes a k-alternating pattern for k = len-2 >= 1:
    some orientation choice flips direction at every interior vertex."""
    if len(path) < 3:
        return False
    try:
        alts = count_alternations(G, path)
    except GraphError:
        return False
    return alts == len(path) - 2


def test_construction_rejects_self_loops_and_bad_ids():
    with pytest.raises(GraphError):
        Digraph(2, [(0, 0)])
    with pytest.raises(GraphError):
        Digraph(2, [(0, 2)])


def test_bidirected_pair_allowed():
    G = Digraph(2, [(0, 1), (1, 0)])
    assert G.num_edges() == 2


def test_out_neighborhood_radius_zero_is_self():
    G = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    for v in G.vertices():
        assert out_neighborhood(G, v, 0) == (v,)
        assert in_neighborhood(G, v, 0) == (v,)


def test_out_neighborhood_on_crown_source():
    S3, principals = crown(3)
    # u_{1,2} has id 3 and points at principals 0 and 1
    assert out_neighborhood(S3, 3, 1) == (0, 1, 3)


def test_out_neighborhood_alternating_path():
    # orientation toward even indices: v1->v2, v3->v2, v3->v4
    ap = alternating_path(2, phase="even")
    assert out_neighborhood(ap, 0, 2) == (0, 1)
    assert out_neighborhood(ap, 2, 2) == (1, 2, 3)


def test_neighborhood_matches_path_enumeration():
    rng = random.Random(1001)
    for _ in range(40):
        G = random_digraph(rng, rng.randint(2, 8), 0.3)
        v = rng.randrange(G.n)
        d = rng.randint(0, 3)
        assert list(out_neighborhood(G, v, d)) == reach_by_paths(G, v, d)
        assert list(in_neighborhood(G, v, d)) == reach_by_paths(G, v, d, reverse=True)


def test_adjacency_masks_are_built_once_per_direction():
    rng = random.Random(2024)
    for _ in range(20):
        G = random_digraph(rng, rng.randint(1, 8), 0.3)
        built = {}
        for direction, adj in (("out", G.out_adj), ("in", G.in_adj)):
            built[direction] = adjacency_masks(G, direction)
            assert built[direction] == tuple(sum(1 << w for w in nbrs) for nbrs in adj)
        for _ in range(3):
            v, d = rng.randrange(G.n), rng.randint(0, 3)
            assert list(out_neighborhood(G, v, d)) == reach_by_paths(G, v, d)
            assert list(in_neighborhood(G, v, d)) == reach_by_paths(G, v, d, reverse=True)
        # the neighborhoods read the cached masks and never rebuild them
        for direction in ("out", "in"):
            assert adjacency_masks(G, direction) is built[direction]


def test_in_adjacency_is_built_on_first_read_and_kept():
    for G in (random_bipartite_outregular(50, 3, 1), oriented_grid(5, 5, seed=1)):
        emit_graph(G)
        # generating and writing a host reads only out_adj
        assert G._in_adj is None
        first = G.in_adj
        assert all(G.in_adj is first for _ in range(3))
        assert G.predecessors(G.n - 1) is first[-1]
    # in_adj is a property: a class-level __getattr__ serving it made
    # every Digraph attribute read about 4.7 times slower (1e6 rounds of
    # four reads took 0.088 s instead of 0.019 s)
    assert not {"__getattr__", "__getattribute__"} & set(vars(Digraph))


def test_ball_masks_make_no_reach_sweep(monkeypatch):
    # Work guard: the tables come from the radius recurrence; the former
    # body ran one reach_mask sweep per vertex, each step ANDed with the
    # full n-bit mask
    G = oriented_grid(6, 6, seed=1)
    want = {(d, direction): ball_masks_by_sweep(G, d, direction)
            for d in (0, 1, 2, 5) for direction in ("out", "in")}
    calls = [0]
    reach = digraph.reach_mask

    def counted(*args):
        calls[0] += 1
        return reach(*args)

    monkeypatch.setattr(digraph, "reach_mask", counted)
    for (d, direction), balls in want.items():
        assert ball_masks(G, d, direction) == balls
    assert calls[0] == 0


def test_ball_masks_stop_once_a_round_grows_no_ball():
    # Work guard: every round reads each vertex's neighbour list once, so
    # on the path 0 -> 1 -> ... -> 399 the last vertex's in-list is read
    # once for its adjacency mask and once per round. Its in-balls stop
    # growing at radius 399, so radius 10^9 takes at most n + 1 reads
    n = 400
    reads = [0]

    class Counted(tuple):
        def __iter__(self):
            reads[0] += 1
            return tuple.__iter__(self)

    lists = tuple(() if v == 0 else (v - 1,) for v in range(n - 1)) + (Counted((n - 2,)),)

    class CountedPath(Digraph):
        @property
        def in_adj(self):
            return lists

    G = CountedPath(n, [(v, v + 1) for v in range(n - 1)])
    assert ball_masks(G, 10**9, "in") == [(1 << v + 1) - 1 for v in range(n)]
    # radii 2..399 each need a round, and so does the one that grows nothing
    assert n - 1 <= reads[0] <= n + 1


def test_neighborhood_monotone_in_radius():
    rng = random.Random(7)
    for _ in range(25):
        G = random_digraph(rng, 7, 0.25)
        v = rng.randrange(7)
        for d in range(3):
            assert set(out_neighborhood(G, v, d)) <= set(out_neighborhood(G, v, d + 1))


def test_in_out_duality():
    rng = random.Random(31)
    for _ in range(25):
        G = random_digraph(rng, 7, 0.3)
        R = G.reversed()
        for d in range(3):
            for v in G.vertices():
                assert out_neighborhood(G, v, d) == in_neighborhood(R, v, d)
                for u in out_neighborhood(G, v, d):
                    assert v in in_neighborhood(G, u, d)


def test_set_neighborhood():
    S3, _ = crown(3)
    assert set_neighborhood(S3, (), 1) == ()
    assert set_neighborhood(S3, (3, 4), 1) == (0, 1, 2, 3, 4)
    rng = random.Random(5)
    for _ in range(20):
        G = random_digraph(rng, 7, 0.3)
        X = [v for v in G.vertices() if rng.random() < 0.4]
        want = sorted(set().union(*[set(reach_by_paths(G, x, 2)) for x in X])) if X else []
        assert list(set_neighborhood(G, X, 2)) == want


def test_negative_radius_is_rejected():
    G = Digraph(2, [(0, 1)])
    with pytest.raises(GraphError):
        out_neighborhood(G, 0, -1)
    with pytest.raises(GraphError):
        in_neighborhood(G, 0, -1)
    with pytest.raises(GraphError):
        set_neighborhood(G, [0], -1)


def test_set_neighborhood_takes_only_out_or_in():
    path = Digraph(3, [(0, 1), (1, 2)])
    assert set_neighborhood(path, [1], 1, "out") == (1, 2)
    assert set_neighborhood(path, [1], 1, "in") == (0, 1)
    for direction in ("both", "OUT", "", None):
        with pytest.raises(GraphError):
            set_neighborhood(path, [1], 1, direction)


def test_underlying_undirected_collapses_bidirected_pairs():
    G = Digraph(2, [(0, 1), (1, 0)])
    und = underlying_undirected(G)
    assert und.num_edges() == 1


def test_underlying_crown_and_path_shapes():
    S3, _ = crown(3)
    und = underlying_undirected(S3)
    assert und.n == 6 and und.num_edges() == 6
    assert all(len(und.neighbors(v)) == 2 for v in und.vertices())  # subdivided K3
    ap = alternating_path(3)
    u = underlying_undirected(ap)
    degs = sorted(len(u.neighbors(v)) for v in u.vertices())
    assert degs == [1, 1, 2, 2, 2]  # a path on 5 vertices


def test_bidirect_roundtrip_and_doubling():
    rng = random.Random(9)
    for _ in range(20):
        G = random_digraph(rng, 6, 0.3)
        und = underlying_undirected(G)
        bi = bidirect(und)
        assert underlying_undirected(bi) == und
        assert bi.num_edges() == 2 * und.num_edges()


def test_dag_and_topological_order():
    ap = alternating_path(3)
    assert is_dag(ap)
    S4, _ = crown(4)
    assert is_dag(S4)
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert not is_dag(tri)
    cyc = find_cycle(tri)
    assert cyc is not None and cyc[0] == cyc[-1]
    assert all(tri.has_edge(a, b) for a, b in zip(cyc, cyc[1:]))

    rng = random.Random(13)
    for _ in range(25):
        G = random_digraph(rng, 7, 0.25)
        order = topological_order(G)
        if order is None:
            assert find_cycle(G) is not None
        else:
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[u] < pos[v] for (u, v) in G.edges)


def test_directed_bipartite_detection():
    S3, principals = crown(3)
    part = is_directed_bipartite(S3)
    assert part is not None
    A, B = part
    assert set(B) == set(principals)
    assert set(A) == {3, 4, 5}

    two_path = Digraph(3, [(0, 1), (1, 2)])
    assert is_directed_bipartite(two_path) is None

    S3r, principals = reversed_crown(3)
    part = is_directed_bipartite(S3r)
    assert part is not None
    A, B = part
    assert set(A) == set(principals)


def test_isolated_vertices_go_to_side_a():
    G = Digraph(3, [(0, 1)])
    A, B = is_directed_bipartite(G)
    assert 2 in A


def test_count_alternations_on_alternating_paths():
    for k in range(1, 5):
        for phase in ("odd", "even"):
            ap = alternating_path(k, phase)
            spine = list(range(k + 2))
            assert count_alternations(ap, spine) == k
            assert is_alternating_path_model(ap, spine)


def test_count_alternations_directed_path_is_zero():
    G = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert count_alternations(G, [0, 1, 2, 3]) == 0
    assert not is_alternating_path_model(G, [0, 1, 2, 3])


def test_count_alternations_matches_rescan_on_orientations():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 8)
        dirs = [rng.random() < 0.5 for _ in range(n - 1)]
        edges = [(i, i + 1) if d else (i + 1, i) for i, d in enumerate(dirs)]
        G = Digraph(n, edges)
        # independent re-scan: orientation is unique per step here
        signs = [1 if d else -1 for d in dirs]
        want = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert count_alternations(G, list(range(n))) == want


def test_count_alternations_requires_adjacency():
    G = Digraph(3, [(0, 1)])
    with pytest.raises(GraphError):
        count_alternations(G, [0, 1, 2])


def test_is_directed_path():
    G = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_directed_path(G, [0, 1, 2, 3])
    assert not is_directed_path(G, [0, 2])
    assert not is_directed_path(G, [0, 1, 0])
