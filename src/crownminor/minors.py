"""Directed-minor search; the models and their check live in `verify`.

Covers: directed-minor checking on any host, acyclic or not, shallow
depth-r checking and butterfly-minor checking, all by one loop that
guesses edge images and routes the connecting paths with one
backtracking path router, which also finds disjoint paths in DAGs and
the paths of topological minors between the vertices that the one
placement matcher places; and the greatest reduced average density
(grad), whose searches live in `density`.

The guess loop's pattern-only tables (edge order, automorphisms as edge
permutations, look-ahead lists) are memoised in `_pattern_tables`, keyed
by the pattern's value (`Digraph` hashes and compares by its vertex count
and edges) and bounded at 64 patterns. A process that asks one pattern,
such as crown(q), against many hosts builds them once; a one-shot CLI
call builds them once anyway and gains nothing.

Vertex sets are int masks from the guess to the model: each owner's
host vertices are one mask, which the router extends with its paths and
`_assemble` reads as the branch set. The router's callers own every
request end before they call it. An end that several owners share, such
as the root of a butterfly branch or a placed vertex of a topological
minor, goes in the router's `shared` mask instead: it may end paths of
several owners but lies inside none.
"""

from collections import namedtuple
from functools import lru_cache

from .digraph import (
    Digraph,
    GraphError,
    adjacency_masks,
    find_cycle,
    mask_bits,
    reach_mask,
    topological_order,
)
# verify_model is not called here. It stays importable from minors because
# the benchmark in perfbench/ reads it there (tracer.WRAPPED["minors"]).
from .verify import DirectedModel, verified, verify_model  # noqa: F401


# ---------------------------------------------------------------------------
# disjoint paths in DAGs


class IntervalPartition:
    """Breakpoints 0 = z_0 < z_1 < ... < z_l = k splitting the 1-based
    request indices into intervals (z_{i-1}, z_i]."""

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints):
        bp = tuple(breakpoints)
        if not bp or bp[0] != 0:
            raise GraphError("breakpoints must start at 0")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise GraphError("breakpoints must be strictly increasing")
        self.breakpoints = bp

    @classmethod
    def from_sizes(cls, sizes):
        bp = [0]
        for s in sizes:
            if s <= 0:
                raise GraphError("interval sizes must be positive")
            bp.append(bp[-1] + s)
        return cls(bp)

    @property
    def k(self):
        return self.breakpoints[-1]

    def groups(self):
        """0-based coordinate indices per interval."""
        return [
            list(range(a, b))
            for a, b in zip(self.breakpoints, self.breakpoints[1:])
        ]


def dag_disjoint_paths(G, pairs, partition, max_len=None):
    """Paths P_i from s_i to t_i such that requests in different intervals
    of `partition` get fully vertex-disjoint paths (requests within one
    interval may share freely). With max_len set, every path must have at
    most max_len edges. Returns a list of vertex lists, or None.

    Each interval is one owner for the path router `_route`, and owns
    its requests' ends before the search, since each path holds its own
    ends: two intervals sharing an end fail at once, and no path tries a
    vertex a later request must end on.
    """
    if max_len is not None and max_len < 0:
        raise GraphError("length bound must be nonnegative")
    if topological_order(G) is None:
        raise GraphError("host must be acyclic")
    if partition.k != len(pairs):
        raise GraphError("partition covers %d requests, got %d" % (partition.k, len(pairs)))
    for s, t in pairs:
        G.check_vertex(s)
        G.check_vertex(t)
    reqs = [(g, *pairs[i]) for g, group in enumerate(partition.groups()) for i in group]
    own = dict.fromkeys(range(len(partition.groups())), 0)
    for g, s, t in reqs:
        own[g] |= 1 << s | 1 << t
    seen = 0
    for ends in own.values():
        if ends & seen:
            return None
        seen |= ends
    return _route(G, reqs, own, max_len)


def dag_disjoint_paths_bounded(G, pairs, partition, r):
    """dag_disjoint_paths with every path length capped at r edges."""
    return dag_disjoint_paths(G, pairs, partition, max_len=r)


# ---------------------------------------------------------------------------
# guess enumeration shared by the minor checkers


@lru_cache(maxsize=64)
def _pattern_tables(H):
    """The tables of `_enumerate_guesses` that depend on the pattern H
    alone, as (edge_order, perms, pending), tuples all the way down so
    that no caller can change a shared entry:

    - edge_order: H's edges in lexicographic order;
    - perms: each automorphism of H but the identity, as the permutation
      of edge positions it induces, in sorted order (`least` only asks
      whether some permutation maps a prefix lower, so the order is
      free). `_injective_maps` finds them on `core`'s own masks, H's
      non-isolated vertices relabelled in order: every order of the
      isolated ones induces the same permutation, and an order-keeping
      relabelling keeps the edge positions;
    - pending[k]: the edges after edge k + 1 with an end at an end of
      edge k (step k + 1 draws the image of edge k + 1 from its ends'
      domains anyway).

    Memoised by value for up to 64 patterns: `Digraph` is immutable and
    hashes and compares by (n, edges), so equal patterns built
    separately, such as two `crown(q)` calls, share one entry."""
    edge_order = tuple(sorted(H.edges))
    at = {v: i for i, v in enumerate(sorted({v for e in edge_order for v in e}))}
    core_order = [(at[u], at[v]) for u, v in edge_order]
    index = {e: i for i, e in enumerate(core_order)}
    core = Digraph(len(at), core_order)
    autos = _injective_maps(core, core, adjacency_masks(core, "out"), adjacency_masks(core, "in"))
    perms = {tuple(index[(a[u], a[v])] for u, v in core_order) for a in autos}
    perms.discard(tuple(range(len(edge_order))))
    pending = tuple(tuple((a, b) for a, b in edge_order[k + 2:] if a in (u, v) or b in (u, v))
                    for k, (u, v) in enumerate(edge_order))
    return edge_order, tuple(sorted(perms)), pending


def _enumerate_guesses(H, G, depth=None, tree=False):
    """Yield (edge_image, source, sink, own, ends) tuples, where own maps
    each pattern vertex to the mask of host vertices the guess gives it,
    and ends maps it to the pair (sorted in-heads, sorted out-tails): the
    heads of the images of its in-edges and the tails of those of its
    out-edges.

    Host edges are tried for each pattern edge in lexicographic order,
    then the extra source/sink vertices of branches whose in or out set
    does not determine them. A prefix is cut once a pattern automorphism
    maps it lower, so only lexicographically least images survive.

    With tree set, each branch gets one root, its source and its sink,
    as in a tree-like model (see is_butterfly_minor). A vertex that is
    both an in-head and an out-tail must be the root. Otherwise a lone
    in-head may be taken as the root, or else a lone out-tail: its side
    of the branch shrinks to one path, which joins the other side. Only
    branches with neither get root candidates, the common sinks of their
    in-heads that are common sources of their out-tails.

    A branch's paths run within depth through free vertices and its own,
    and later steps only take vertices away. So a step is cut when a
    touched branch has an in-head that cannot reach an out-tail that way,
    or has only in-heads (out-tails) and no common sink (source) for
    them; candidate sources, sinks and roots pass the same test. Every
    cut is necessary for routing, so the first guess that routes is the
    one the unpruned stream reaches first.

    A step is also cut when a later pattern edge (a, b) with an end at a
    touched branch has no host edge x -> y left, where x may be a's next
    out-tail and y b's next in-head (forward checking, after Haralick
    and Elliott, Artificial Intelligence 14(3), 1980). Such an x is
    usable by a and reached within depth from each in-head of a, or,
    with none, from a common source of a's out-tails; such a y is usable
    by b and reaches each out-tail of b, or, with none, a common sink of
    b's in-heads. The step that places (a, b) runs both ends through the
    test above, which its image can pass only on these terms, on usable
    sets no larger than now. So a cut prefix yields no guess, and the
    stream is the same as without this cut.

    The same two sets are the domains each step draws its own image
    from: for pattern edge (u, v), x runs over where u's next out-tail
    may lie and y over x's out-neighbours where v's next in-head may
    lie, both worked out once per search node. Placing (x, y) only
    shrinks the usable sets, and reach within them is monotone, so an
    image outside the domains fails the test above for u or v. No guess
    is lost, and the images left are tried in the same lexicographic
    order. The edge right after a step is therefore left out of its
    look-ahead: the next step's domains ask the same question.

    Host vertex sets are int masks per pattern vertex v: `own[v]` (their
    union is `claimed`), `heads[v]` and `tails[v]`, the in-heads and
    out-tails so far. Single-vertex reach masks are memoised per call.
    The tables that depend on H alone come from `_pattern_tables`, so one
    pattern asked against many hosts and depths finds its automorphisms
    once.
    """
    if H.n > G.n:
        return  # disjoint nonempty branch sets need H.n host vertices
    edge_order, perms, pending = _pattern_tables(H)
    adj = (adjacency_masks(G, "out"), adjacency_masks(G, "in"))  # by `back`
    full = (1 << G.n) - 1
    image = [None] * len(edge_order)
    own = [0] * H.n
    heads = [0] * H.n
    tails = [0] * H.n
    memo = {}

    def reach(x, usable, back):
        key = (x, usable, back)
        got = memo.get(key)
        if got is None:
            got = memo[key] = reach_mask(adj[back], 1 << x, usable, depth)
        return got

    def common_end(anchors, usable, back):
        """The usable vertices every anchor reaches (back: that reach
        every anchor) within depth through usable vertices."""
        got = usable
        for a in anchors:
            got &= reach(a, usable, back)
        return got

    def next_ends(v, claimed, back):
        """Where v's next out-tail may lie (back: its next in-head): the
        usable vertices every in-head reaches, or with no in-head those
        a common source of the out-tails reaches (back: those reaching
        every out-tail, or a common sink of the in-heads)."""
        usable = full & ~claimed | own[v]
        near, far = (tails[v], heads[v]) if back else (heads[v], tails[v])
        if near:
            return common_end(mask_bits(near), usable, back)
        if far:
            starts = common_end(mask_bits(far), usable, not back)
            return reach_mask(adj[back], starts, usable, depth)
        return usable

    def linked(xs, ys):
        """Some host edge runs from xs to ys; walks the smaller mask."""
        if xs.bit_count() <= ys.bit_count():
            return any(adj[0][x] & ys for x in mask_bits(xs))
        return any(adj[1][y] & xs for y in mask_bits(ys))

    def carried(waiting, claimed):
        """Each pattern edge (a, b) in `waiting` still has a host edge
        from where a's next out-tail may lie to where b's next in-head
        may."""
        tail_ends, head_ends = {}, {}
        for a, b in waiting:
            if a not in tail_ends:
                tail_ends[a] = next_ends(a, claimed, False)
            if b not in head_ends:
                head_ends[b] = next_ends(b, claimed, True)
            if not linked(tail_ends[a], head_ends[b]):
                return False
        return True

    def least(k):
        """No automorphism maps the first k edge images lower."""
        for p in perms:
            for i in range(k):
                j = p[i]
                if j >= k or image[j] != image[i]:
                    if j < k and image[j] < image[i]:
                        return False
                    break
        return True

    def feasible(v, claimed):
        usable = full & ~claimed | own[v]
        ins, outs = heads[v], tails[v]
        if ins and outs:
            return all(reach(a, usable, False) & outs == outs for a in mask_bits(ins))
        if ins & ins - 1:
            return common_end(mask_bits(ins), usable, False) != 0
        return not outs & outs - 1 or common_end(mask_bits(outs), usable, True) != 0

    def assign(k, claimed):
        if k == len(edge_order):
            yield from guess_ends(claimed)
            return
        u, v = edge_order[k]
        waiting = pending[k]
        own_u, own_v, tails_u, heads_v = own[u], own[v], tails[u], heads[v]
        # host edges in lexicographic order, drawn from the ends' domains
        head_domain = next_ends(v, claimed, True)
        for x in mask_bits(next_ends(u, claimed, False)):
            bx = 1 << x
            for y in mask_bits(adj[0][x] & head_domain):
                by = 1 << y
                image[k] = (x, y)
                if not least(k + 1):
                    continue
                own[u], own[v] = own_u | bx, own_v | by
                tails[u], heads[v] = tails_u | bx, heads_v | by
                now = claimed | bx | by
                if feasible(u, now) and feasible(v, now) and (
                        not waiting or carried(waiting, now)):
                    yield from assign(k + 1, now)
        own[u], own[v], tails[u], heads[v] = own_u, own_v, tails_u, heads_v

    def guess_ends(claimed):
        # (v, maps): v needs a vertex that each of its in-heads reaches and
        # that reaches each of its out-tails (next_ends both ways); the
        # choice goes into each of the maps in `maps`
        need = []
        source, sink, ends = {}, {}, {}
        for v in H.vertices():
            ins = list(mask_bits(heads[v]))
            outs = list(mask_bits(tails[v]))
            ends[v] = ins, outs
            if tree:
                both = list(mask_bits(heads[v] & tails[v]))
                if len(both) > 1:
                    return  # each of them would have to be the root
                fixed = both or (ins if len(ins) == 1 else outs if len(outs) == 1 else [])
                if fixed:
                    source[v] = sink[v] = fixed[0]
                else:
                    need.append((v, (source, sink)))
                continue
            if ins:
                source[v] = ins[0]
            elif len(outs) == 1:
                source[v] = outs[0]
            elif outs:
                need.append((v, (source,)))
            else:
                need.append((v, (source, sink)))
            if outs:
                sink[v] = outs[0]
            elif len(ins) == 1:
                sink[v] = ins[0]
            elif ins:
                need.append((v, (sink,)))

        def fill(j, claimed):
            if j == len(need):
                yield (dict(zip(edge_order, image)), dict(source), dict(sink), dict(enumerate(own)),
                       ends)
                return
            v, maps = need[j]
            own_v = own[v]
            for cand in mask_bits(next_ends(v, claimed, False) & next_ends(v, claimed, True)):
                bit = 1 << cand
                own[v] = own_v | bit
                for chosen in maps:
                    chosen[v] = cand
                yield from fill(j + 1, claimed | bit)
            own[v] = own_v

        yield from fill(0, claimed)

    yield from assign(0, 0)


def _branch_requests(ends, source, sink):
    """Connection requests per pattern vertex, for ends as yielded by
    `_enumerate_guesses`: (vertex, from, to) triples whose paths, found
    inside the branch, complete the model. They run from each in-head, or
    the source when there is none, to each out-tail, or the sink when
    there is none."""
    return [(v, a, b) for v, (ins, outs) in ends.items()
            for a in ins or [source[v]] for b in outs or [sink[v]]]


def _assemble(H, G, image, source, sink, own, depth):
    """The verified model whose branch sets are the routed owner masks:
    own[v] holds v's request paths and its source and sink."""
    model = DirectedModel(
        host=G,
        pattern=H,
        branch={v: frozenset(mask_bits(own[v])) for v in H.vertices()},
        edge_image=dict(image),
        source=dict(source),
        sink=dict(sink),
        depth=depth,
    )
    return verified(model, "assembled model failed verification")


def general_minor_check(H, G):
    """Sound-and-complete directed-minor test on any host: guess edge
    images and the needed source/sink vertices, then route the
    connecting paths of every branch set, of any length. Every positive
    answer is a verified model; None means no model exists."""
    return _guess_and_route(H, G, None)


def dag_minor_check(H, G):
    """general_minor_check for an acyclic host (anything else is an
    error); a pattern with a cycle gets None without a search."""
    if topological_order(G) is None:
        raise GraphError("host must be acyclic")
    if find_cycle(H) is not None:
        return None  # a minor of a DAG is itself acyclic
    return general_minor_check(H, G)


def shallow_minor_check(H, G, r):
    """Depth-r minor test on any host: the same guessing and routing as
    general_minor_check, with every connecting path at most r edges
    long."""
    if r < 0:
        raise GraphError("depth must be nonnegative")
    return _guess_and_route(H, G, r)


def _guess_and_route(H, G, depth):
    """The first guess whose branch requests all route (paths of at most
    `depth` edges, any length when None), as a verified model; None when
    no guess routes."""
    for image, source, sink, own, ends in _enumerate_guesses(H, G, depth):
        reqs = _branch_requests(ends, source, sink)
        if _route(G, reqs, own, depth) is not None:
            return _assemble(H, G, image, source, sink, own, depth)
    return None


def _simple_paths(adj, a, b, usable, max_len=None):
    """Every simple directed a->b path, for adj = adjacency_masks(G), as a
    (vertex list, vertex mask) pair in depth-first order over increasing
    successor ids, whose vertices strictly between a and b lie in the
    mask `usable`; with max_len set, only paths of at most max_len edges.
    Paths are yielded one at a time, since there can be exponentially
    many."""
    end = 1 << b
    if a == b:
        yield [a], end
        return
    # path[-1] lies len(path) - 1 edges from a, so it may step to an inner
    # vertex while len(path) < limit; n bounds nothing, since a simple
    # path has fewer than n edges
    limit = len(adj) if max_len is None else max_len
    path, on = [a], 1 << a
    stack = [mask_bits(adj[a] & (usable & ~on | end if limit > 1 else end))] if limit > 0 else []
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            on ^= 1 << path.pop()
        elif w == b:
            yield path + [b], on | end
        else:
            path.append(w)
            on |= 1 << w
            stack.append(mask_bits(adj[w] & (usable & ~on | end if len(path) < limit else end)))


def _route(G, reqs, own, max_len, shared=0):
    """The one path-completion engine: a simple path of at most max_len
    edges (any length when None) for each (owner, from, to) request, in
    order, backtracking over the paths of earlier requests. `own` maps
    every owner to its host-vertex mask; a vertex is taken when some
    owner or `shared` holds it. A path may use untaken vertices and those
    of its own owner, and its untaken vertices join that owner in place.
    Returns the list of paths, one per request, or None.

    The caller owns every request end before the call. An end of one
    owner belongs to it, so no other path passes through it; an end that
    several owners share goes in `shared` and in no owner's mask, so it
    may end paths of several owners but lies inside none."""
    adj = adjacency_masks(G)
    paths = []

    def rec(idx, taken):
        if idx == len(reqs):
            return True
        v, a, b = reqs[idx]
        mine = own[v]
        for path, on in _simple_paths(adj, a, b, ~taken | mine, max_len):
            new = on & ~taken
            own[v] = mine | new
            paths.append(path)
            if rec(idx + 1, taken | new):
                return True
            paths.pop()
        own[v] = mine
        return False

    taken = shared
    for mask in own.values():
        taken |= mask
    return paths if rec(0, taken) else None


def _injective_maps(H, G, out_m, in_m):
    """Yield every injective map of V(H) into V(G), as a dict, that sends
    each pattern edge to a host pair (x, y) with y in out_m[x], for masks
    that hold one relation from both sides (y in out_m[x] iff x in
    in_m[y]). Pattern vertices are placed by decreasing degree, then id;
    a vertex's candidates are one mask, the unused hosts in out_m of the
    images of its placed in-neighbours and in in_m of those of its placed
    out-neighbours, tried in increasing id and pruned by in- and
    out-degree (at least the pattern's).

    With G's adjacency masks the maps send edges to edges. With H's own
    they are H's automorphisms: a bijection that keeps every edge keeps
    every non-edge too."""
    if H.n > G.n:
        return iter(())
    # degrees read once per call, not through in_adj at every candidate
    hin, hout = [len(a) for a in H.in_adj], [len(a) for a in H.out_adj]
    gin, gout = [len(a) for a in G.in_adj], [len(a) for a in G.out_adj]
    order = sorted(H.vertices(), key=lambda v: (-(hin[v] + hout[v]), v))
    full = (1 << G.n) - 1
    mapping = {}

    def rec(idx, used):
        if idx == len(order):
            yield dict(mapping)
            return
        v = order[idx]
        hi, ho = hin[v], hout[v]
        cands = full & ~used
        for u in H.in_adj[v]:
            if u in mapping:
                cands &= out_m[mapping[u]]
        for u in H.out_adj[v]:
            if u in mapping:
                cands &= in_m[mapping[u]]
        for cand in mask_bits(cands):
            if gin[cand] >= hi and gout[cand] >= ho:
                mapping[v] = cand
                yield from rec(idx + 1, used | 1 << cand)
        mapping.pop(v, None)

    return rec(0, 0)


def subgraph_check(H, G):
    """Injective map of V(H) into V(G) preserving edges (not induced), or
    None. Exhaustive backtracking with degree pruning."""
    return next(_injective_maps(H, G, adjacency_masks(G, "out"), adjacency_masks(G, "in")), None)


# ---------------------------------------------------------------------------
# butterfly minors


def butterfly_contract(G, e):
    """Contract edge e = (u, v), legal only when u has outdegree 1 or v
    has indegree 1. The merged vertex keeps the smaller id; ids above the
    larger one shift down by one."""
    u, v = e
    if not G.has_edge(u, v):
        raise GraphError("(%s, %s) is not an edge" % (u, v))
    if G.out_degree(u) != 1 and G.in_degree(v) != 1:
        raise GraphError(
            "cannot contract (%s, %s): outdeg(u)=%d, indeg(v)=%d"
            % (u, v, G.out_degree(u), G.in_degree(v))
        )
    keep, drop = min(u, v), max(u, v)

    def relabel(x):
        x = keep if x in (u, v) else x
        return x if x < drop else x - 1

    es = set()
    for (a, b) in G.edges:
        na, nb = relabel(a), relabel(b)
        if na != nb:
            es.add((na, nb))
    return Digraph(G.n - 1, sorted(es))


def legal_butterfly_contractions(G):
    return sorted(
        e for e in G.edges if G.out_degree(e[0]) == 1 or G.in_degree(e[1]) == 1
    )


def is_butterfly_minor(H, G):
    """A tree-like model of H in G as a verified DirectedModel whose
    source and sink are both the branch's root, or None when there is
    none. Such a model exists iff H is a butterfly minor of G, that is,
    iff H arises from G by deleting vertices and edges and contracting
    edges (u, v) where u has out-degree 1 or v has in-degree 1 (Amiri,
    Kawarabayashi, Kreutzer and Wollan, "The Erdős-Pósa property for
    directed graphs", 2016). In a tree-like model each branch set is an
    in-branching into its root and an out-branching from it that share
    only the root, and each pattern edge (u, v) maps to a host edge from
    the out-branching of u to the in-branching of v.

    It runs the directed checkers' guess-and-route loop on guesses with
    one root per branch (`_enumerate_guesses` with tree set). Each branch
    is routed by two owners, (v, "in") from each in-head to the root and
    (v, "out") from the root to each out-tail, so the two sides meet
    only at the root, a shared end."""
    for image, root, _, _, ends in _enumerate_guesses(H, G, None, True):
        roots = sum(1 << x for x in root.values())
        reqs, own = [], {}
        for v, (ins, outs) in ends.items():
            reqs += [((v, "in"), a, root[v]) for a in ins]
            reqs += [((v, "out"), root[v], b) for b in outs]
            own[v, "in"] = sum(1 << a for a in ins) & ~roots
            own[v, "out"] = sum(1 << b for b in outs) & ~roots
        if _route(G, reqs, own, None, roots) is not None:
            branch = {v: own[v, "in"] | own[v, "out"] | 1 << root[v] for v in H.vertices()}
            return _assemble(H, G, image, root, root, branch, None)
    return None


# ---------------------------------------------------------------------------
# topological minors


# placement maps each pattern vertex to a host vertex, paths each pattern
# edge to a host vertex list
SubdivisionWitness = namedtuple("SubdivisionWitness", "host pattern placement paths")


class _ReachMasks(dict):
    """G's reach masks in one direction, each swept on its first read: a
    full table (`ball_masks(G, G.n)`) takes n rounds on an n-vertex path."""

    def __init__(self, G, direction):
        self.adj, self.full = adjacency_masks(G, direction), (1 << G.n) - 1

    def __missing__(self, x):
        got = self[x] = reach_mask(self.adj, 1 << x, self.full)
        return got


def topological_minor_check(H, G):
    """Search for a subdivision of H inside G: an injective placement of
    the pattern vertices plus internally disjoint directed paths, one per
    pattern edge. Desk-scale backtracking; returns a witness or None.

    Placements come from `_injective_maps` over G's reach masks, so each
    pattern edge joins two host vertices with a path between them; no
    other placement can route. Each placement is completed by one
    `_route` call with one owner per pattern edge, so paths of different
    edges share no inner vertex; the placed vertices end the paths of
    several edges and lie inside none, so they are shared ends."""
    edge_order = sorted(H.edges)
    for placement in _injective_maps(H, G, _ReachMasks(G, "out"), _ReachMasks(G, "in")):
        placed = sum(1 << x for x in placement.values())
        reqs = [(e, placement[e[0]], placement[e[1]]) for e in edge_order]
        routed = _route(G, reqs, dict.fromkeys(edge_order, 0), None, placed)
        if routed is not None:
            return SubdivisionWitness(G, H, placement, dict(zip(edge_order, routed)))
    return None


def subdivision_to_model(w):
    """Convert a subdivision witness into a directed model: internal path
    vertices join the branch of the head endpoint, the image of a pattern
    edge is the first edge of its path."""
    H, G = w.pattern, w.host
    branch = {v: {w.placement[v]} for v in H.vertices()}
    image = {}
    for e, path in w.paths.items():
        image[e] = (path[0], path[1])
        branch[e[1]].update(path[1:-1])
        branch[e[1]].add(path[-1])
    model = DirectedModel(
        host=G,
        pattern=H,
        branch={v: frozenset(b) for v, b in branch.items()},
        edge_image=image,
        source={v: w.placement[v] for v in H.vertices()},
        sink={v: w.placement[v] for v in H.vertices()},
        depth=None,
    )
    return verified(model, "subdivision conversion failed")


# ---------------------------------------------------------------------------
# grad


def grad(G, r):
    """Greatest density |E(H)|/|V(H)| over depth-r minors H of G, as an
    exact Fraction (0 when G has no edges).

    A depth-r minor sits on a family of disjoint nonempty branch sets.
    Each of its edges joins an ordered pair of branch sets through a host
    edge, and every branch set meets the conditions `verify_model` checks
    at depth r.

    r = 0: in->out paths have length 0, so a depth-0 minor is a subgraph
    and grad(G, 0) is the largest |E(G[S])|/|S| over nonempty S (an
    antiparallel pair counts as two edges). `density.densest_subgraph`
    computes it in polynomial time.

    r >= 1: a branch-and-bound search that starts from grad(G, 0) (grad
    is monotone in r) and visits only partitions of one weak component
    of G into weakly connected blocks. No densest minor is lost:

    - A branch set can shrink to the union of its in->out paths, or of
      its source->out paths when it has no in-vertex, or of its in->sink
      paths when it has no out-vertex, and still meet every condition;
      with neither kind of vertex it can shrink to one vertex. Such a
      union is weakly connected.
    - A branch set can also grow: its paths stay inside it. So a vertex
      outside every branch set but next to one may join it, which keeps
      blocks connected. Repeating this covers every weak component the
      family touches.
    - Pattern edges only join branch sets inside one component, so a
      family is no denser than its densest part inside one component.

    `density.densest_partition` describes the search and its bounds.
    """
    if r < 0:
        raise GraphError("depth must be nonnegative")
    # imported on first use: with bytecode caching off, every import of
    # the package would otherwise compile the search
    from .density import densest_partition, densest_subgraph

    best = densest_subgraph(G)
    return best if r == 0 else densest_partition(G, r, best)
