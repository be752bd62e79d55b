"""Parameterized solvers for domination-type problems.

Each solver follows the scattered-set branching scheme where it applies
and finishes with exhaustive search below desk-scale thresholds or where
no scattered set is found, so the answers stay exact at every size we
can run. The exhaustive steps share one pruned bitmask subset search,
_first_subset. Every feasible outcome carries a witness that passes
verify.vertex_set_problem within the solver's size bound.
directed_steiner_outtree is a standalone entry point; no solver calls it.
"""

import itertools
from collections import namedtuple

from .digraph import GraphError, adjacency_masks, ball_masks, bfs_dist, mask_bits, reach_mask
from .scattered import deletion_set
from .verify import verify_dominating, vertex_set_problem


class DominationInstance(namedtuple("DominationInstance", "graph k d", defaults=(1,))):
    """Inputs shared by the domination problems: a Digraph, a size
    budget k and a domination radius d."""

    __slots__ = ()


# witness: a vertex tuple, or (vertex tuple, parent dict) for an
# outbranching; None when infeasible
SolveOutcome = namedtuple("SolveOutcome", "feasible witness exhausted", defaults=(None, False))


# PROBE_CAP: the cap _scatter_branch passes to deletion_set, whose
# docstring says why it is not scattered.PROBE_CAP. SCATTER_BUDGET: the
# most vertices a probe deletes, C(3,2), the dichotomy's deletion bound
# at crown order 3. BASE_CAP and W_CAP: _scatter_branch runs the
# exhaustive subset search, instead of branching, on at most
# max(BASE_CAP, budget + 1) targets for independent_dominating_set and
# max(W_CAP, budget) targets for dominating_outbranching.
PROBE_CAP = 12
SCATTER_BUDGET = 3
BASE_CAP = 10
W_CAP = 8


def _need_k(k):
    if k < 0:
        raise GraphError("need k >= 0, got %d" % k)


def _first_subset(cand, sizes, clash, cover, want, accept):
    """The first non-None accept(members) over the subsets of the vertex
    bitmask cand that hold no two vertices u, w with w in clash[u] and
    whose masks cover[u] together hold the bitmask want, tried size by
    size through sizes and within a size in the order of
    itertools.combinations over cand's sorted members; None if there is
    none. accept gets the members as one int mask.

    Include/exclude search on the smallest candidate v: including v
    drops clash[v] from the candidates and adds cover[v] to the covered
    mask. A branch ends as soon as fewer candidates than open places are
    left, or when the candidates from v on cannot cover the rest of
    want: the union of their masks misses a vertex of it, or each open
    place covers at most most[v] of its vertices and that is too few.
    Clashes are symmetric, so every cut branch holds only subsets that
    clash or miss want, and the order is kept. want = 0 turns the cover
    cuts off."""
    top = cand.bit_length()
    # over the candidates >= v: the union of their masks inside want,
    # and the most vertices of want one of them covers
    suffix = [0] * (top + 1)
    most = [0] * (top + 1)
    for v in range(top - 1, -1, -1):
        suffix[v], most[v] = suffix[v + 1], most[v + 1]
        if cand >> v & 1:
            mine = cover[v] & want
            suffix[v] |= mine
            most[v] = max(most[v], mine.bit_count())

    def rec(cand, need, covered, picked):
        left = want & ~covered
        if need == 0:
            return None if left else accept(picked)
        missing = left.bit_count()
        while cand.bit_count() >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            if left & ~suffix[v] or need * most[v] < missing:
                return None
            got = rec((cand ^ low) & ~clash[v], need - 1, covered | cover[v], picked | low)
            if got is not None:
                return got
            cand ^= low
        return None

    for size in sizes:
        got = rec(cand, size, 0, 0)
        if got is not None:
            return got
    return None


def _scatter_branch(k, cap, extra, clash, closed, in_ball, accept):
    """The scattered-set branching of ids and dob. Returns a SolveOutcome
    whose witness is the first non-None accept(us) over vertex masks us
    of at most k vertices whose closed balls cover all len(closed)
    vertices and that hold no u, w with w in clash[u], or None; it is
    exhausted when a probe finds no scattered set.

    State: targets W not yet dominated, allowed vertices cand, chosen
    us, budget j. No chosen vertex is in the in-ball of a target left in
    W, so if j + 1 of them are scattered in G[cand | W] minus a set C, a
    solution must meet C. Above max(cap, j + extra) targets the search
    asks deletion_set for C and includes each allowed vertex of it in
    ascending order by _first_subset's rule (with j = 0 it ends);
    otherwise, or with no C, _first_subset searches exhaustively."""
    _need_k(k)
    fell_back = False

    def rec(W, cand, us, j):
        nonlocal fell_back
        cut = None
        if W.bit_count() > max(cap, j + extra):
            if j == 0:
                return None
            cut = deletion_set(in_ball, W, cand | W, 1, j + 1, SCATTER_BUDGET, PROBE_CAP)
            fell_back |= cut is None
        if cut is None:
            return _first_subset(cand, range(j + 1), clash, closed, W, lambda m: accept(us | m))
        for s in mask_bits(cut[0] & cand):
            got = rec(W & ~closed[s], (cand ^ 1 << s) & ~clash[s], us | 1 << s, j - 1)
            if got is not None:
                return got
        return None

    full = (1 << len(closed)) - 1
    got = rec(full, full, 0, k)
    return SolveOutcome(got is not None, got, fell_back)


def spanning_outtree(G, D):
    """Parent map of an out-tree spanning D inside G[D], rooted at the
    smallest workable root (_root), or None. Raises GraphError for an id
    outside G."""
    live = set(D)
    for v in live:
        G.check_vertex(v)
    root = _root(sum(1 << v for v in live), adjacency_masks(G), adjacency_masks(G, "in"))
    return None if root is None else bfs_dist(G, root, within=live, parents=True)


# ---------------------------------------------------------------------------
# exhaustive oracle


def brute_force_solve(instance, variant):
    """Exact solver by subset enumeration, smallest size first then
    lexicographic. Variants:
    ds (d-dominating set), ids (independent dominating set),
    dob (dominating set spanned by an out-tree), is (independent set of
    size exactly k, no member within distance d of another either way).
    dob takes d = 1 whatever instance.d says; every variant raises
    GraphError for d < 1."""
    G = instance.graph
    k = instance.k
    _need_k(k)
    d = instance.d
    if d < 1:
        raise GraphError("need d >= 1, got %d" % d)
    if variant == "is":
        if k == 0:
            return SolveOutcome(True, (), exhausted=True)
        near = [bfs_dist(G, v, max_depth=d) for v in G.vertices()]
        for combo in itertools.combinations(G.vertices(), k):
            if not any(b in near[a] or a in near[b] for a, b in itertools.combinations(combo, 2)):
                return SolveOutcome(True, tuple(combo), exhausted=True)
        return SolveOutcome(False, exhausted=True)
    for size in range(0, k + 1):
        for combo in itertools.combinations(G.vertices(), size):
            if variant in ("ds", "ids"):
                if not vertex_set_problem("dominating", G, combo, d, independent=variant == "ids"):
                    return SolveOutcome(True, tuple(combo), exhausted=True)
            elif variant == "dob":
                if not verify_dominating(G, combo, 1):
                    continue
                parent = spanning_outtree(G, combo)
                if parent is not None:
                    return SolveOutcome(True, (tuple(combo), parent), exhausted=True)
            else:
                raise GraphError("unknown variant %r" % variant)
    return SolveOutcome(False, exhausted=True)


# ---------------------------------------------------------------------------
# independent dominating set


def independent_dominating_set(G, k):
    """Branching solver (_scatter_branch): choosing a vertex removes its
    closed out-neighborhood from the targets and its closed in- and
    out-neighborhoods from the candidates. Exact at all sizes."""
    # computed once per call: closed 1-balls and edge neighborhoods
    closed, in_ball = ball_masks(G, 1), ball_masks(G, 1, "in")
    clash = [c | i for c, i in zip(closed, in_ball)]
    out = _scatter_branch(k, BASE_CAP, 1, clash, closed, in_ball, lambda m: tuple(mask_bits(m)))
    D = out.witness
    if out.feasible and (len(D) > k or vertex_set_problem("dominating", G, D, independent=True)):
        raise RuntimeError("internal: branching produced an invalid witness")
    return out


# ---------------------------------------------------------------------------
# d-dominating set with target reduction


def find_irrelevant_vertex(G, W, d):
    """A vertex w of W whose domination is implied by the rest: some
    other target's d-in-ball is contained in w's, so any set hitting the
    smaller ball hits w's too. Returns the smallest such w or None; the
    rule holds whatever the size budget, so it takes none."""
    W = sorted(set(W))
    targets = 0
    for w in W:
        G.check_vertex(w)
        targets |= 1 << w
    balls = ball_masks(G, d, "in")
    for w in W:
        if _implied(w, targets, balls):
            return w
    return None


def _implied(w, targets, balls):
    """Some target other than w, in the vertex mask targets, has its
    in-ball mask inside w's. Balls are closed, so such a target lies in
    w's own ball, and only the targets there are tested. It runs once
    per target of ds's sweep, so it walks the bits itself, as _root
    does."""
    ball = balls[w]
    rest = ball & targets & ~(1 << w)
    while rest:
        low = rest & -rest
        if not balls[low.bit_length() - 1] & ~ball:
            return True
        rest ^= low
    return False


def d_dominating_set(G, k, d=1):
    """Shrink the target set by irrelevant-vertex reductions, then cover
    the residual targets exactly by grouping potential dominators by
    their trace on the targets.

    Targets, traces and open targets are int vertex masks, and every
    d-ball comes from one ball_masks call per direction. The reductions
    are one sweep over the targets in id order. It drops what repeated
    find_irrelevant_vertex calls would: dropping a target makes no other
    target irrelevant, so each next one found lies later in the order.
    The cover branches on the open target in the fewest traces, the
    smallest id among ties, over the traces that hold it in order of
    their first dominator."""
    if k < 0 or d < 1:
        raise GraphError("need k >= 0 and d >= 1")
    balls = ball_masks(G, d, "in")
    targets = (1 << G.n) - 1
    for w in G.vertices():
        if _implied(w, targets, balls):
            targets &= ~(1 << w)

    # each distinct nonempty trace on the targets, with the smallest
    # vertex that has it, in order of that vertex
    traces = {}
    for v, ball in enumerate(ball_masks(G, d)):
        tr = ball & targets
        if tr and tr not in traces:
            traces[tr] = v
    holders = [[] for _ in range(G.n)]
    for tr, v in traces.items():
        for w in mask_bits(tr):
            holders[w].append((tr, v))
    hits = [len(h) for h in holders]

    def cover(uncovered, budget, chosen):
        if not uncovered:
            return list(chosen)
        if budget == 0:
            return None
        pivot = min(mask_bits(uncovered), key=hits.__getitem__)
        for tr, v in holders[pivot]:
            got = cover(uncovered & ~tr, budget - 1, chosen + [v])
            if got is not None:
                return got
        return None

    got = cover(targets, k, [])
    if got is None:
        return SolveOutcome(False)
    D = tuple(sorted(got))
    if len(D) > k or vertex_set_problem("dominating", G, D, d):
        raise RuntimeError("internal: reduced cover is no dominating set of at most k vertices")
    return SolveOutcome(True, D)


# ---------------------------------------------------------------------------
# directed Steiner out-trees


def directed_steiner_outtree(G, terminals):
    """Minimum-vertex out-tree containing all terminals, by the
    Dreyfus-Wagner dynamic program over (terminal subset, root): each
    terminal starts as a one-vertex tree, each subset's row first merges
    two smaller trees at a shared root, then its roots step back along
    in-edges, cheapest first (Dijkstra on unit steps). Returns
    (vertices, parent) or None when no out-tree holds them all."""
    import heapq

    terms = sorted(set(terminals))
    if not terms:
        raise GraphError("need at least one terminal")
    full = (1 << len(terms)) - 1

    INF = float("inf")
    cost = [[INF] * G.n for _ in range(full + 1)]
    # per (subset, root): a split submask, ~u for a step on to u, or
    # None at a terminal's own one-vertex tree
    choice = [[None] * G.n for _ in range(full + 1)]
    for i, t in enumerate(terms):
        G.check_vertex(t)
        cost[1 << i][t] = 1

    for mask in range(1, full + 1):
        row, pick = cost[mask], choice[mask]
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                for v, (a, b) in enumerate(zip(cost[sub], cost[mask ^ sub])):
                    if a + b - 1 < row[v]:
                        row[v] = a + b - 1
                        pick[v] = sub
            sub = (sub - 1) & mask
        heap = sorted((c, v) for v, c in enumerate(row) if c < INF)
        while heap:
            c, u = heapq.heappop(heap)
            if c == row[u]:
                for v in G.predecessors(u):
                    if c + 1 < row[v]:
                        row[v] = c + 1
                        pick[v] = ~u
                        heapq.heappush(heap, (c + 1, v))

    root = min(G.vertices(), key=cost[full].__getitem__)
    if cost[full][root] == INF:
        return None
    verts = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        verts.add(v)
        how = choice[mask][v]
        if how is not None:
            stack += [(how, v), (mask ^ how, v)] if how > 0 else [(mask, ~how)]
    parent = spanning_outtree(G, verts)
    if parent is None or not set(terms) <= verts:
        raise RuntimeError("internal: Steiner reconstruction failed")
    return tuple(sorted(verts)), parent


# ---------------------------------------------------------------------------
# dominating out-branching


def _root(inside, out_adj, in_adj):
    """The smallest member of the vertex mask inside that reaches all of
    it inside G[inside], that is, the smallest root of an out-tree that
    spans it, or None. out_adj and in_adj are the out- and in-neighbour
    masks of G, open or closed. A member with no in-neighbour inside (an
    in-source) must be the root of any such tree: two in-sources reject
    the set without a reach sweep, and one is the only root swept from.
    The screen runs on every set dob's subset search tries, so it walks
    the bits itself: through mask_bits it took 1.7 times as long."""
    source, rest = None, inside
    while rest:
        low = rest & -rest
        rest ^= low
        if not in_adj[low.bit_length() - 1] & (inside ^ low):
            if source is not None:
                return None
            source = low.bit_length() - 1
    roots = mask_bits(inside) if source is None else (source,)
    return next((v for v in roots if reach_mask(out_adj, 1 << v, inside) == inside), None)


def dominating_outbranching(G, k):
    """Does some set of at most k vertices span an out-tree and dominate
    every vertex? Branching solver (_scatter_branch) with no clashes:
    choosing a vertex removes its closed out-neighborhood from the
    targets and only itself from the candidates. Exact at all sizes.
    Each covering set is rooted with _root, so a set with two in-sources
    costs no reach sweep, and one BFS from the root it finds builds the
    parent map of the set it accepts."""
    closed, in_ball = ball_masks(G, 1), ball_masks(G, 1, "in")

    def spanned(inside):
        # (D, parent) if an out-tree spans the vertex mask inside
        root = _root(inside, closed, in_ball)
        if root is None:
            return None
        D = tuple(mask_bits(inside))
        return D, bfs_dist(G, root, within=set(D), parents=True)

    out = _scatter_branch(k, W_CAP, 0, [0] * G.n, closed, in_ball, spanned)
    if out.feasible:
        D, parent = out.witness
        if len(D) > k or vertex_set_problem("outbranching", G, D, parent=parent):
            raise RuntimeError("internal: out-branching witness invalid")
    return out


# ---------------------------------------------------------------------------
# independent set


def independent_set(G, k, d=1):
    """Independent set of size exactly k (distance-d version: no member
    within distance d of another), by one exact search: _first_subset
    over each vertex's two-way d-ball as a bitmask, computed once per
    call. It returns the first independent k-subset in the order of
    itertools.combinations over the sorted vertices, or proves that
    there is none without visiting the subsets it cuts. The search is
    the whole method, not a fallback, so `exhausted` stays False. The
    answer is checked by vertex_set_problem at d, one bounded BFS per
    member."""
    _need_k(k)
    if d < 1:
        raise GraphError("need d >= 1, got %d" % d)
    if k == 0:
        return SolveOutcome(True, ())
    if k > G.n:
        return SolveOutcome(False)
    clash = [o | i for o, i in zip(ball_masks(G, d), ball_masks(G, d, "in"))]
    got = _first_subset((1 << G.n) - 1, (k,), clash, clash, 0, lambda m: tuple(mask_bits(m)))
    if got is None:
        return SolveOutcome(False)
    if len(got) != k or vertex_set_problem("independent", G, got, d):
        raise RuntimeError("internal: independent set has two members within distance d")
    return SolveOutcome(True, got)
