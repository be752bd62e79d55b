"""Constructors for the named digraph families.

Crowns, reversed crowns, alternating paths, tournaments, oriented grids
(with the constructive alternating-path extraction), and the random
out-regular bipartite construction together with its exact pattern
probability.
"""

import math

from .digraph import Digraph, GraphError, count_alternations
from .rng import SplitMix64
from .verify import crown


def reversed_crown(q):
    """crown(q) with every edge reversed. Returns (graph, principals)."""
    G, principals = crown(q)
    return G.reversed(), principals


def alternating_path(k, phase="odd"):
    """Orientation of a path on k+2 vertices (ids 0..k+1, standing for
    v_1..v_{k+2}) with every edge directed toward its endpoint of odd
    (or even) 1-based index."""
    if k < 1:
        raise GraphError("alternation count must be at least 1")
    if phase not in ("odd", "even"):
        raise GraphError("phase must be 'odd' or 'even'")
    want_odd = phase == "odd"
    edges = []
    for a in range(k + 1):
        b = a + 1
        # 1-based indices a+1, b+1; exactly one of them is odd.
        head_is_b = (b + 1) % 2 == (1 if want_odd else 0)
        edges.append((a, b) if head_is_b else (b, a))
    return Digraph(k + 2, edges)


def acyclic_tournament(n):
    """Transitive tournament: edge i -> j for every i < j."""
    if n < 1:
        raise GraphError("tournament order must be positive")
    return Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_tournament(n, seed):
    """Uniformly random orientation of K_n, deterministic in the seed."""
    if n < 1:
        raise GraphError("tournament order must be positive")
    # one coin per pair: the low bit of a draw
    draw = SplitMix64(seed).next_u64
    return Digraph(n, [(j, i) if draw() & 1 else (i, j)
                       for i in range(n) for j in range(i + 1, n)])


def random_digraph(rng, n, p):
    """Each of the n(n-1) ordered pairs becomes an edge with probability
    p, drawn from `rng` (a random.Random) in lexicographic pair order."""
    return Digraph(
        n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    )


def random_dag(rng, n, p):
    """Each pair u < v becomes an edge u -> v with probability p, drawn
    from `rng` in lexicographic order; then a shuffle of the ids, drawn
    after the edges, hides the topological order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph(n, [(perm[u], perm[v]) for (u, v) in edges])


def embed_acyclic_tournament(T, n):
    """Image of the transitive tournament of order n inside tournament T,
    |T| >= 2^n, found by the max-outdegree recursion: map the first
    vertex to a vertex of highest outdegree and recurse inside its
    out-neighborhood. Returns vertex ids in transitive order, or None.
    """
    if n < 0:
        raise GraphError("order must be nonnegative")

    def rec(pool, need):
        if need == 0:
            return []
        if not pool:
            return None
        pool_set = set(pool)
        best = max(pool, key=lambda v: (sum(1 for w in T.successors(v) if w in pool_set), -v))
        succ = sorted(w for w in T.successors(best) if w in pool_set)
        rest = rec(succ, need - 1)
        if rest is None:
            return None
        return [best] + rest

    out = rec(sorted(T.vertices()), n)
    if out is None:
        return None
    for a in range(n):
        for b in range(a + 1, n):
            if not T.has_edge(out[a], out[b]):
                return None
    return out


def grid_vertex(l1, l2, i, j):
    """Dense id of grid cell (i, j), 1-based as in grid coordinates."""
    if not (1 <= i <= l1 and 1 <= j <= l2):
        raise GraphError("grid coordinate (%d, %d) out of range" % (i, j))
    return (i - 1) * l2 + (j - 1)


def grid_undirected_edges(l1, l2):
    """Canonical (sorted) list of undirected grid adjacencies as id pairs:
    each cell u's right and lower neighbour, u + 1 and u + l2, in
    row-major order, which is already sorted."""
    n = l1 * l2
    es = []
    for u in range(n):
        if (u + 1) % l2:
            es.append((u, u + 1))
        if u + l2 < n:
            es.append((u, u + l2))
    return es


def oriented_grid(l1, l2, seed=None, choices=None):
    """Orientation of the l1 x l2 grid (cells adjacent when coordinates
    differ by one in a single axis).

    The orientation comes either from `choices` (one bool per canonical
    undirected edge; True keeps the (low, high) direction) or uniformly
    at random from `seed`.
    """
    if l1 < 1 or l2 < 1:
        raise GraphError("grid sides must be positive, got %d x %d" % (l1, l2))
    base = grid_undirected_edges(l1, l2)
    if (seed is None) == (choices is None):
        raise GraphError("supply exactly one of seed or choices")
    if choices is None:
        # one coin per edge: the low bit of a draw
        draw = SplitMix64(seed).next_u64
        choices = [not draw() & 1 for _ in base]
    if len(choices) != len(base):
        raise GraphError("expected %d orientation choices" % len(base))
    edges = [(a, b) if keep else (b, a) for (a, b), keep in zip(base, choices)]
    return Digraph(l1 * l2, edges)


# The two spine pieces through a pair of rows of a width-3 grid, as
# (row offset, column): the snake runs the top row, down column 3 and
# back along the bottom row; the hook takes the top row's first edge,
# steps down column 2 and takes the bottom row's last edge.
_SNAKE = ((0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (1, 1))
_HOOK = ((0, 1), (0, 2), (1, 2), (1, 3))


def extract_grid_alternating_path(G, l=None):
    """A path of the underlying grid from cell (1,1) to row 2l (column 1
    or 3) whose orientation shows at least l alternations.

    G must be an orientation of a 2l x 3 grid. Works two rows at a time:
    the snake through the current rows is taken if it alternates.
    Otherwise it is a directed path, and the hook, which runs the snake's
    first edge forward and its last edge backward, alternates. The hook
    ends in the far column, so the rows after it are walked mirrored.
    Joining the pieces keeps the alternations inside each, so the spine
    has at least l.
    """
    if l is None:
        l = G.n // 6
    elif l < 1:
        raise GraphError("l must be positive, got %d" % l)
    if l < 1 or G.n != 6 * l:
        raise GraphError("host is not a 2l x 3 grid orientation")
    expected = set(grid_undirected_edges(2 * l, 3))
    actual = {(min(u, v), max(u, v)) for u, v in G.edges}
    if actual != expected or G.num_edges() != len(expected):
        raise GraphError("host is not a 2l x 3 grid orientation")

    def piece(cells, row, flip):
        # `flip` mirrors the columns
        return [grid_vertex(2 * l, 3, row + i, 4 - j if flip else j) for i, j in cells]

    path = []
    flip = False
    for row in range(1, 2 * l, 2):
        snake = piece(_SNAKE, row, flip)
        if count_alternations(G, snake) >= 1:
            path += snake
        else:
            path += piece(_HOOK, row, flip)
            flip = not flip
    if count_alternations(G, path) < l:
        raise RuntimeError("internal: grid spine has fewer than %d alternations" % l)
    return path


def random_bipartite_outregular(n, d, seed):
    """Bipartite digraph with sides A = 0..n-1 and B = n..2n-1 where every
    A-vertex gets d distinct out-neighbors drawn uniformly from B.
    Exactly d*n edges; deterministic in the seed."""
    if d < 0 or d > n:
        raise GraphError("need 0 <= d <= n")
    # A-vertex a draws its targets with the child generator of key a
    rows = SplitMix64(seed).samples(range(n), range(n, 2 * n), d)
    return Digraph(2 * n, [(a, b) for a, row in enumerate(rows) for b in row])


def crown_pattern_probability(n, d, q):
    """Exact probability that a fixed crown pattern of order q appears on
    fixed distinct vertices in the random out-regular bipartite graph,
    together with its closed-form upper bound.

    Per chosen source the chance that both of its two targets land in its
    d out-neighbors is C(n-2, d-2)/C(n, d); the pattern needs this
    independently for all C(q, 2) sources. The bound is (2d/n)^(q(q-1)).
    Returns (exact, bound) as Fractions.
    """
    from fractions import Fraction

    if q < 1 or n < 1 or d < 0:
        raise GraphError("need q >= 1, n >= 1, d >= 0")
    pairs = math.comb(q, 2)
    if d < 2:
        per_pair = Fraction(0)
    else:
        per_pair = Fraction(math.comb(n - 2, d - 2), math.comb(n, d))
    exact = per_pair ** pairs
    bound = Fraction(2 * d, n) ** (q * (q - 1))
    return exact, bound
