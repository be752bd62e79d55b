"""Parameterized solvers for domination-type problems.

Each solver follows the scattered-set branching scheme where it applies
and finishes with exhaustive search below desk-scale thresholds or where
no scattered set is found, so the answers stay exact at every size we
can run. The exhaustive steps share one pruned bitmask subset search,
_first_subset. Every feasible outcome carries a witness that passes the
matching verifier. directed_steiner_outtree is a standalone entry point;
no solver calls it.
"""

import itertools
from collections import namedtuple

from .digraph import GraphError, adjacency_masks, ball_masks, bfs_dist, mask_bits, reach_mask
from .scattered import deletion_set
from .verify import verify_dominating, verify_independent, verify_outbranching


class DominationInstance(namedtuple("DominationInstance", "graph k d", defaults=(1,))):
    """Inputs shared by the domination problems: a Digraph, a size
    budget k and a domination radius d."""

    __slots__ = ()


# witness: a vertex tuple, or (vertex tuple, parent dict) for an
# outbranching; None when infeasible
SolveOutcome = namedtuple("SolveOutcome", "feasible witness exhausted", defaults=(None, False))


# PROBE_CAP: the cap both branching solvers pass to deletion_set,
# whose docstring says why it is not scattered.PROBE_CAP. BASE_CAP and
# W_CAP: independent_dominating_set and dominating_outbranching run
# their exhaustive subset search, instead of branching, on an alive set
# of at most max(BASE_CAP, k + 1) vertices and on a target set of at
# most max(W_CAP, chosen + budget) vertices.
PROBE_CAP = 12
BASE_CAP = 10
W_CAP = 8


def _need_k(k):
    if k < 0:
        raise GraphError("need k >= 0, got %d" % k)


def _need_budget(scatter_budget):
    # checked on entry, not only where deletion_set is reached
    if scatter_budget < 0:
        raise GraphError("need scatter_budget >= 0, got %d" % scatter_budget)


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
            if variant == "ds":
                if verify_dominating(G, combo, d):
                    return SolveOutcome(True, tuple(combo), exhausted=True)
            elif variant == "ids":
                if verify_dominating(G, combo, d) and verify_independent(G, combo):
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


def independent_dominating_set(G, k, scatter_budget=3):
    """Branching solver: a verified 1-scattered set of size k+1 forces
    every dominating set to meet its deletion set, so branch on those
    vertices, removing the chosen vertex's closed out-neighborhood from
    the alive mask and forbidding its closed in-neighborhood. Small or
    scatter-less residuals go to the exhaustive subset search. Alive and
    forbidden vertices are int masks, and every branch is read off ball
    tables built once per call. Exact at all sizes."""
    _need_k(k)
    _need_budget(scatter_budget)
    fell_back = False
    # computed once per call: closed 1-balls and edge neighborhoods
    closed, in_ball = ball_masks(G, 1), ball_masks(G, 1, "in")
    clash = [c | i for c, i in zip(closed, in_ball)]

    def rec(alive, Y, k):
        # an independent set of at most k vertices of alive - Y that
        # dominates alive, as a list, or None
        nonlocal fell_back
        cut = None
        if alive.bit_count() > max(BASE_CAP, k + 1):
            cut = deletion_set(in_ball, alive, alive, 1, k + 1, scatter_budget, PROBE_CAP)
            fell_back |= cut is None
        if cut is None:
            return _first_subset(alive & ~Y, range(k + 1), clash, closed, alive,
                                 lambda m: list(mask_bits(m)))
        # with k = 0 the walk returns C = 0, so no branch reaches k = -1
        for s in mask_bits(cut[0] & ~Y):
            sub = rec(alive & ~closed[s], Y | in_ball[s], k - 1)
            if sub is not None:
                return [s] + sub
        return None

    got = rec((1 << G.n) - 1, 0, k)
    if got is None:
        return SolveOutcome(False, exhausted=fell_back)
    D = tuple(sorted(got))
    if not (verify_independent(G, D) and verify_dominating(G, D, 1)):
        raise RuntimeError("internal: branching produced an invalid witness")
    return SolveOutcome(True, D, exhausted=fell_back)


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
    if not verify_dominating(G, D, d):
        raise RuntimeError("internal: reduced cover does not dominate")
    return SolveOutcome(True, D)


# ---------------------------------------------------------------------------
# directed Steiner out-trees


def directed_steiner_outtree(G, terminals):
    """Minimum-vertex out-tree containing all terminals, by dynamic
    programming over (vertex, terminal subset) with subtree merges at a
    shared root and single-edge extensions. Returns (vertices, parent)
    or None when no out-tree holds them all."""
    terms = sorted(set(terminals))
    if not terms:
        raise GraphError("need at least one terminal")
    tidx = {t: i for i, t in enumerate(terms)}
    full = (1 << len(terms)) - 1

    INF = float("inf")
    cost = [[INF] * G.n for _ in range(full + 1)]
    choice = [[None] * G.n for _ in range(full + 1)]
    for t in terms:
        m = 1 << tidx[t]
        # distances into t, one BFS against the edges
        for v, dd in bfs_dist(G, t, direction="in").items():
            cost[m][v] = dd + 1
            choice[m][v] = ("leaf", t)

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                for v in G.vertices():
                    a, b = cost[sub][v], cost[rest][v]
                    if a + b - 1 < cost[mask][v]:
                        cost[mask][v] = a + b - 1
                        choice[mask][v] = ("split", sub)
            sub = (sub - 1) & mask
        # propagate along edges until stable (unit increments)
        changed = True
        while changed:
            changed = False
            for v in G.vertices():
                for u in G.successors(v):
                    if cost[mask][u] + 1 < cost[mask][v]:
                        cost[mask][v] = cost[mask][u] + 1
                        choice[mask][v] = ("step", u)
                        changed = True

    best_root, best_cost = None, INF
    for v in G.vertices():
        if cost[full][v] < best_cost:
            best_root, best_cost = v, cost[full][v]
    if best_root is None:
        return None

    verts = set()

    def collect(mask, v):
        verts.add(v)
        kind = choice[mask][v]
        if kind is None:
            return
        tag = kind[0]
        if tag == "leaf":
            parent = bfs_dist(G, v, parents=True)
            x = kind[1]
            while x != v:
                verts.add(x)
                x = parent[x]
        elif tag == "split":
            collect(kind[1], v)
            collect(mask ^ kind[1], v)
        else:
            collect(mask, kind[1])

    collect(full, best_root)
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
    return next((v for v in roots if reach_mask(out_adj, v, inside) == inside), None)


def dominating_outbranching(G, k, scatter_budget=3):
    """Does some set of at most k vertices span an out-tree and dominate
    every vertex? Branches on the deletion set of a scattered witness
    (any solution must meet it), shrinking the target mask by the chosen
    vertex's closed out-neighborhood. A target set of at most
    max(W_CAP, chosen + budget) vertices, or one with no scattered
    witness, goes to the exhaustive subset search, which keeps the
    answer exact at all sizes; only the second case marks the outcome
    exhausted. The search roots each covering set with _root, so a set
    with two in-sources costs no reach sweep, and one BFS from the root
    it finds builds the parent map of the set it accepts."""
    _need_k(k)
    _need_budget(scatter_budget)
    fell_back = False
    full = (1 << G.n) - 1
    closed, in_ball = ball_masks(G, 1), ball_masks(G, 1, "in")
    no_clash = [0] * G.n

    def spanned(inside):
        # (D, parent) if an out-tree spans the vertex mask inside
        root = _root(inside, closed, in_ball)
        if root is None:
            return None
        D = tuple(mask_bits(inside))
        return D, bfs_dist(G, root, within=set(D), parents=True)

    def rec(W, us, j):
        # the vertex mask us plus at most j further vertices that
        # dominate the target mask W and span an out-tree, as
        # (D, parent), or None
        nonlocal fell_back
        t = us.bit_count()
        cut = None
        if W.bit_count() > max(W_CAP, t + j):
            if j == 0:
                return None
            cut = deletion_set(in_ball, W, full, 1, t + j + 1, scatter_budget, PROBE_CAP)
            fell_back |= cut is None
        if cut is None:
            return _first_subset(full & ~us, range(j + 1), no_clash, closed, W,
                                 lambda m: spanned(us | m))
        for nxt in mask_bits(cut[0] & ~us):
            got = rec(W & ~closed[nxt], us | 1 << nxt, j - 1)
            if got is not None:
                return got
        return None

    if G.n == 0:
        return SolveOutcome(False)
    got = rec(full, 0, k)
    if got is None:
        return SolveOutcome(False, exhausted=fell_back)
    D, parent = got
    if not (
        verify_outbranching(G, D, parent)
        and verify_dominating(G, D, 1)
        and len(D) <= k
    ):
        raise RuntimeError("internal: out-branching witness invalid")
    return SolveOutcome(True, (D, parent), exhausted=fell_back)


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
    answer is checked by verify_independent at d, one bounded BFS per
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
    if len(got) != k or not verify_independent(G, got, d):
        raise RuntimeError("internal: independent set has two members within distance d")
    return SolveOutcome(True, got)
