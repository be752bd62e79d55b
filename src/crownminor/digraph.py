"""Core directed-graph type, neighborhoods, structural predicates and the
crown pattern, which the generators, the dichotomy and the witness
reader all build without loading each other.

Adjacency masks come in two forms, split by the traffic they serve. A
search that reads every vertex many times (the minor checkers, `grad`,
the solvers' tables) takes `adjacency_masks`, an eager tuple kept on the
graph: subscripting a tuple is faster than subscripting a dict subclass
in its hot loops. A question about a few balls (`is_scattered`,
`compute_scattered`) takes `LazyMasks`, which builds a vertex's mask on
its first read and so pays only for the vertices its sweeps visit. Such
a question always passes `reach_mask` a depth: the lazy table has no
length to bound an open sweep.
"""

import itertools
import math


class GraphError(ValueError):
    """Raised for malformed graphs or invalid vertex ids."""


class BudgetExhausted(RuntimeError):
    """Desk-scale pools ran out below the guaranteed thresholds. The
    extractors in quasiwide raise it; it lives here so that a caller can
    catch it without loading them."""


class Digraph:
    """Immutable digraph on dense vertex ids 0..n-1.

    Edges are ordered pairs (u, v). Self-loops are rejected; parallel
    edges cannot exist (set semantics); both (u, v) and (v, u) may be
    present. Instances are never mutated after construction and are safe
    to share across concurrent readers; the only later writes fill the
    in-adjacency and the adjacency-mask caches, pure functions of the
    edges. Construction sorts only out_adj: in_adj is built on its first
    read, so a graph that is only written out never pays for it.
    """

    __slots__ = ("n", "edges", "out_adj", "_in_adj", "_out_masks", "_in_masks")

    def __init__(self, n, edges=()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        edges = frozenset(map(tuple, edges))
        out = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("edge (%s, %s) out of range for n=%d" % (u, v, n))
            if u == v:
                raise GraphError("self-loop at vertex %d" % u)
            out[u].append(v)
        for a in out:
            a.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "out_adj", tuple(map(tuple, out)))
        # in_adj and adjacency_masks fill these on first use
        object.__setattr__(self, "_in_adj", None)
        object.__setattr__(self, "_out_masks", None)
        object.__setattr__(self, "_in_masks", None)

    @property
    def in_adj(self):
        """Each vertex's predecessors in ascending order. Built on the
        first read from out_adj: the tails are visited in ascending
        order, so every list comes out sorted without a sort. A property
        and not a class __getattr__, which slowed every attribute read
        of a Digraph about 4.7 times."""
        inn = self._in_adj
        if inn is None:
            lists = [[] for _ in range(self.n)]
            for u, succ in enumerate(self.out_adj):
                for v in succ:
                    lists[v].append(u)
            inn = tuple(map(tuple, lists))
            object.__setattr__(self, "_in_adj", inn)
        return inn

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Digraph(%d, %s)" % (self.n, sorted(self.edges))

    def vertices(self):
        return range(self.n)

    def num_edges(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def successors(self, v):
        return self.out_adj[v]

    def predecessors(self, v):
        return self.in_adj[v]

    def out_degree(self, v):
        return len(self.out_adj[v])

    def in_degree(self, v):
        return len(self.in_adj[v])

    def check_vertex(self, v):
        if not (0 <= v < self.n):
            raise GraphError("invalid vertex id %s (n=%d)" % (v, self.n))

    def reversed(self):
        """The digraph with every edge direction flipped."""
        return Digraph(self.n, [(v, u) for (u, v) in self.edges])


class UndirectedGraph:
    """Minimal undirected graph on ids 0..n-1; edges stored as (min, max)."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphError("self-loop at vertex %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("edge (%s, %s) out of range for n=%d" % (u, v, n))
            norm.add((min(u, v), max(u, v)))
        adj = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in adj))

    def __setattr__(self, name, value):
        raise AttributeError("UndirectedGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "UndirectedGraph(%d, %s)" % (self.n, sorted(self.edges))

    def vertices(self):
        return range(self.n)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v):
        return self.adj[v]

    def num_edges(self):
        return len(self.edges)


def bfs_dist(graph, src, max_depth=None, direction="out", within=None,
             parents=False):
    """Distances from src following out- (or in-) edges, truncated at
    max_depth. Only vertices in `within` (when given) are passable; a src
    outside `within` yields {}. For reach sets alone, reach_mask is the
    kernel; this one is for callers that read distances or parents.

    With parents=True the map sends each reached vertex to the vertex
    that first discovered it (src to None) instead. The sweep goes level
    by level over the sorted adjacency lists, so discovery order, and
    with it every parent, is that of a FIFO breadth-first search.
    """
    if within is not None and src not in within:
        return {}
    graph.check_vertex(src)
    adj = graph.out_adj if direction == "out" else graph.in_adj
    seen = {src: None if parents else 0}
    limit = graph.n if max_depth is None else max_depth
    frontier = [src]
    level = 0
    while frontier and level < limit:
        level += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w in seen or (within is not None and w not in within):
                    continue
                seen[w] = v if parents else level
                nxt.append(w)
        frontier = nxt
    return seen


def adjacency_masks(G, direction="out"):
    """Each vertex's out- (or in-) neighbours as an int bitmask, in a
    tuple built on the first call for that direction and kept on the
    immutable G; callers only read it. Built by a plain loop: a
    generator sum per vertex took twice as long."""
    slot = "_out_masks" if direction == "out" else "_in_masks"
    masks = getattr(G, slot)
    if masks is None:
        built = []
        for nbrs in (G.out_adj if direction == "out" else G.in_adj):
            mask = 0
            for w in nbrs:
                mask |= 1 << w
            built.append(mask)
        masks = tuple(built)
        object.__setattr__(G, slot, masks)
    return masks


class LazyMasks(dict):
    """Each vertex's neighbours in nbrs (G.out_adj or G.in_adj) as an int
    bitmask, built on the first read of that vertex and kept in this
    table, not on G: a probe that sweeps a few balls builds only the
    masks it reads."""

    def __init__(self, nbrs):
        self.nbrs = nbrs

    def __missing__(self, v):
        mask = 0
        for w in self.nbrs[v]:
            mask |= 1 << w
        self[v] = mask
        return mask


def mask_bits(mask):
    """The vertex ids in an int mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach_mask(adj, starts, within, max_depth=None):
    """The reach-set kernel: the vertices some vertex of the mask `starts`
    reaches by a path of at most max_depth edges (any length when None)
    through the vertex mask `within`, as an int bitmask, for adj =
    adjacency_masks(G, direction), or a LazyMasks table with a
    max_depth (a depth of None reads len(adj)). A start outside `within`
    reaches nothing; for starts = 1 << v it is the key set of bfs_dist(G, v,
    max_depth, direction, within=...)."""
    seen = frontier = within & starts
    limit = len(adj) if max_depth is None else max_depth
    while frontier and limit > 0:
        limit -= 1
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def ball_masks(G, d, direction="out"):
    """Every vertex's ball of radius d as an int bitmask: entry v holds
    the vertices v reaches (that reach v, for "in") within d edges.

    Built by the radius recurrence: the radius-1 ball of v is its
    adjacency mask plus v, and its radius-(i + 1) ball ORs into that the
    radius-i balls of its out-neighbours (in-neighbours, for "in"). That
    is at most d rounds of one OR per edge, and the rounds stop as soon
    as one grows no ball, so a radius beyond the longest shortest path
    costs nothing more. d <= 0 gives the singletons."""
    if d <= 0:
        return [1 << v for v in G.vertices()]
    nbrs = G.out_adj if direction == "out" else G.in_adj
    balls = [mask | 1 << v for v, mask in enumerate(adjacency_masks(G, direction))]
    for _ in range(d - 1):
        grown = []
        for ball, ws in zip(balls, nbrs):
            for w in ws:
                ball |= balls[w]
            grown.append(ball)
        if grown == balls:
            break
        balls = grown
    return balls


def out_neighborhood(G, v, d, avoid=None):
    """All vertices reachable from v by a directed path of length <= d,
    including v itself (d-outneighborhood), in G minus `avoid`."""
    return set_neighborhood(G, [v], d, "out", avoid)


def in_neighborhood(G, v, d, avoid=None):
    """Mirror of out_neighborhood on reversed edges (d-inneighborhood)."""
    return set_neighborhood(G, [v], d, "in", avoid)


def set_neighborhood(G, X, d, direction="out", avoid=None):
    """Union of the d-neighborhoods of all vertices in X, in G minus
    `avoid`, along out-edges or, with direction "in", in-edges."""
    if d < 0:
        raise GraphError("neighborhood radius must be nonnegative")
    if direction not in ("out", "in"):
        raise GraphError("direction is 'out' or 'in', not %r" % (direction,))
    # an avoided id outside G removes nothing
    alive = ((1 << G.n) - 1) & ~sum(1 << v for v in set(avoid or ()) if v >= 0)
    starts = 0
    for x in X:
        G.check_vertex(x)
        starts |= 1 << x
    return tuple(mask_bits(reach_mask(adjacency_masks(G, direction), starts, alive, d)))


def underlying_undirected(G):
    """Forget edge directions; a bidirected pair collapses to one edge."""
    return UndirectedGraph(G.n, [(u, v) for (u, v) in G.edges])


def bidirect(H):
    """Replace every undirected edge by the two opposite directed edges."""
    es = []
    for u, v in H.edges:
        es.append((u, v))
        es.append((v, u))
    return Digraph(H.n, es)


def crown(q):
    """Crown of order q: sinks v_1..v_q (ids 0..q-1) plus one source
    u_{i,j} per pair i < j (ids q.. in lexicographic pair order), with
    edges u_{i,j} -> v_i and u_{i,j} -> v_j.

    Returns (graph, principal_vertices).
    """
    if q < 1:
        raise GraphError("crown order must be positive")
    pairs = itertools.combinations(range(q), 2)
    edges = [(u, v) for u, pair in enumerate(pairs, q) for v in pair]
    return Digraph(q + math.comb(q, 2), edges), tuple(range(q))


def topological_order(G):
    """A topological order of G, or None if G has a directed cycle.

    Ties are broken toward smaller ids, so the order is deterministic.
    """
    indeg = [len(a) for a in G.in_adj]
    ready = sorted(v for v in G.vertices() if indeg[v] == 0)
    import heapq

    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in G.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != G.n:
        return None
    return order


def find_cycle(G):
    """A directed cycle as a vertex list with first == last, or None."""
    color = [0] * G.n  # 0 unvisited, 1 on stack, 2 done
    parent = [None] * G.n
    for root in G.vertices():
        if color[root]:
            continue
        stack = [(root, iter(G.successors(root)))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(G.successors(w))))
                    advanced = True
                    break
                if color[w] == 1:
                    cyc = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cyc.append(x)
                    cyc.reverse()
                    cyc.append(cyc[0])
                    return cyc
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def is_dag(G):
    return topological_order(G) is not None


def is_directed_bipartite(G):
    """Witness partition (A, B) with all edges from A to B, or None.

    Every vertex with an out-edge goes to A and every vertex with an
    in-edge to B; a vertex with both roles makes the graph non-bipartite.
    Isolated vertices are assigned to side A by convention.
    """
    A, B = [], []
    for v in G.vertices():
        has_out = G.out_degree(v) > 0
        has_in = G.in_degree(v) > 0
        if has_out and has_in:
            return None
        if has_in:
            B.append(v)
        else:
            A.append(v)
    return tuple(A), tuple(B)


def _edge_choices(G, a, b):
    dirs = []
    if G.has_edge(a, b):
        dirs.append(1)
    if G.has_edge(b, a):
        dirs.append(-1)
    return dirs


def count_alternations(G, path):
    """Maximum number of direction changes along `path`.

    `path` must be a sequence of distinct vertices that is a path of the
    underlying undirected graph. Each step is oriented forward or
    backward according to the directed edges present; when both
    directions exist the choice maximizing the count is taken.
    """
    if len(path) != len(set(path)):
        raise GraphError("path vertices must be distinct")
    if len(path) < 2:
        return 0
    steps = []
    for a, b in zip(path, path[1:]):
        choices = _edge_choices(G, a, b)
        if not choices:
            raise GraphError("(%s, %s) is not an edge in either direction" % (a, b))
        steps.append(choices)
    best = {d: 0 for d in steps[0]}
    for choices in steps[1:]:
        best = {
            d2: max(best[d1] + (1 if d1 != d2 else 0) for d1 in best)
            for d2 in choices
        }
    return max(best.values())
