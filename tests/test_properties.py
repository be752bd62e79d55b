"""Property tests: the BFS kernel against path enumeration, and the
backtracking matcher against networkx's DiGraphMatcher."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher

from crownminor.digraph import Digraph, bfs_dist
from crownminor.minors import _injective_maps, digraph_isomorphic, subgraph_check

from oracles import enum_paths, reach_by_paths

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
    avoid = data.draw(vertex_sets)
    reverse = direction == "in"

    assert sorted(bfs_dist(G, src, depth, direction)) == reach_by_paths(G, src, depth, reverse)

    dist = bfs_dist(G, src, depth, direction, avoid=avoid, within=within)
    parent = bfs_dist(G, src, depth, direction, avoid=avoid, within=within, parents=True)
    assert dist == bfs_dist(G.reversed(), src, depth, "out" if reverse else "in",
                            avoid=avoid, within=within)
    passable = (set(G.vertices()) if within is None else set(within)) - avoid
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


@SMALL
@given(digraphs())
def test_automorphism_count_matches_networkx(G):
    autos = {tuple(m[v] for v in G.vertices()) for m in _injective_maps(G, G, True)}
    expected = sum(1 for _ in DiGraphMatcher(to_nx(G), to_nx(G)).isomorphisms_iter())
    assert len(autos) == expected
    assert tuple(G.vertices()) in autos
