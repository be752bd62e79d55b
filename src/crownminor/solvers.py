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

from .digraph import GraphError, ball_masks, bfs_dist, mask_bits, reach_mask
from .scattered import compute_scattered, without_vertices


class DominationInstance(namedtuple("DominationInstance", "graph k d", defaults=(1,))):
    """Inputs shared by the domination problems: a Digraph, a size
    budget k and a domination radius d."""

    __slots__ = ()


# witness: a vertex tuple, or (vertex tuple, parent dict) for an
# outbranching; None when infeasible
SolveOutcome = namedtuple("SolveOutcome", "feasible witness exhausted", defaults=(None, False))


# PROBE_CAP: the probes independent_dominating_set hands to
# compute_scattered (dominating_outbranching passes none and so gets
# compute_scattered's default of 14). W_CAP: dominating_outbranching
# runs its exhaustive subset search on a target set of at most
# max(W_CAP, chosen + budget) vertices instead of branching.
PROBE_CAP = 12
W_CAP = 8


def _need_k(k):
    if k < 0:
        raise GraphError("need k >= 0, got %d" % k)


def _need_budget(scatter_budget):
    # checked on entry, not only where compute_scattered is reached
    if scatter_budget < 0:
        raise GraphError("need scatter_budget >= 0, got %d" % scatter_budget)


def _mask(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _first_subset(cand, size, clash, cover, want, accept):
    """The first non-None accept(members) over the size-subsets of the
    vertex bitmask cand that hold no two vertices u, w with w in
    clash[u] and whose masks cover[u] together hold the bitmask want,
    tried in the order of itertools.combinations over cand's sorted
    members; None if there is none. accept gets a list it must copy to
    keep.

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
    chosen = []

    def rec(cand, need, covered):
        left = want & ~covered
        if need == 0:
            return None if left else accept(chosen)
        missing = left.bit_count()
        while cand.bit_count() >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            if left & ~suffix[v] or need * most[v] < missing:
                return None
            chosen.append(v)
            got = rec((cand ^ low) & ~clash[v], need - 1, covered | cover[v])
            if got is not None:
                return got
            chosen.pop()
            cand ^= low
        return None

    return rec(cand, size, 0)


# ---------------------------------------------------------------------------
# verifiers


def verify_dominating(G, D, d=1):
    """D names no vertex twice and every vertex lies inside the
    d-out-neighborhood of D. Raises GraphError for an id outside G."""
    D = list(D)
    covered = set()
    for v in D:
        covered.update(bfs_dist(G, v, max_depth=d))
    return len(set(D)) == len(D) and len(covered) == G.n


def verify_independent(G, D):
    """No edge in either direction inside D. Raises GraphError for an id
    outside G."""
    D = list(D)
    for v in D:
        G.check_vertex(v)
    return _independent(G, D)


def _independent(G, D):
    """verify_independent without the range check, for brute_force_solve,
    whose candidate sets are drawn from G's own vertices."""
    for a, b in itertools.combinations(D, 2):
        if G.has_edge(a, b) or G.has_edge(b, a):
            return False
    return len(set(D)) == len(D)


def verify_outbranching(G, vertices, parent):
    """parent maps each vertex to its tree parent (None at the root);
    checks that no vertex is named twice, one root, edges present, and
    every vertex walking up to it. Raises GraphError for an id outside G."""
    vertices = list(vertices)
    vs = set(vertices)
    for v in vs:
        G.check_vertex(v)
    if len(vs) != len(vertices) or set(parent) != vs or not vs:
        return False
    roots = [v for v in vs if parent[v] is None]
    if len(roots) != 1:
        return False
    for v in vs:
        p = parent[v]
        if p is None:
            continue
        if p not in vs or not G.has_edge(p, v):
            return False
    root = roots[0]
    for v in vs:
        seen = set()
        x = v
        while x is not None:
            if x in seen:
                return False
            seen.add(x)
            x = parent[x]
        if root not in seen:
            return False
    return True


def spanning_outtree(G, D):
    """Parent map of an out-tree spanning D inside G[D], rooted at the
    smallest workable root, or None."""
    live = set(D)
    for root in sorted(live):
        parent = bfs_dist(G, root, within=live, parents=True)
        if len(parent) == len(live):
            return parent
    return None


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
                if verify_dominating(G, combo, d) and _independent(G, combo):
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


def independent_dominating_set(G, k, scatter_budget=3, base_cap=10):
    """Branching solver: a verified 1-scattered set of size k+1 forces
    every dominating set to meet its deletion set, so branch on those
    vertices, removing the chosen vertex's out-neighborhood and
    forbidding its in-neighborhood. Small or scatter-less residuals are
    searched exhaustively. Exact at all sizes."""
    _need_k(k)
    _need_budget(scatter_budget)
    used_fallback = [False]
    # computed once per call: closed 1-out-balls and edge neighborhoods
    closed = ball_masks(G, 1)
    clash = [c | i for c, i in zip(closed, ball_masks(G, 1, "in"))]

    def masked(alive):
        return without_vertices(G, set(G.vertices()) - alive)

    def exhaustive(alive, Y, k):
        """The first independent set of alive - Y dominating alive, by
        size 0..k, then in itertools.combinations order: _first_subset
        over the edge-neighborhood masks, covering alive with the
        closed out-neighborhood masks."""
        want = _mask(alive)
        cand = want & ~_mask(Y)
        for size in range(0, k + 1):
            got = _first_subset(cand, size, clash, closed, want, list)
            if got is not None:
                return got
        return None

    def rec(alive, Y, k):
        if k < 0:
            return None
        if len(alive) <= max(base_cap, k + 1):
            return exhaustive(alive, Y, k)
        Gm = masked(alive)
        w = compute_scattered(
            Gm, sorted(alive), d=1, m=k + 1, s_budget=scatter_budget,
            probe_cap=PROBE_CAP,
        )
        if w is None:
            used_fallback[0] = True
            return exhaustive(alive, Y, k)
        for s in sorted(set(w.deleted) - Y):
            # closed[s] is s's ball in G; s is alive, so it takes from
            # alive what s's ball in Gm would
            gone = set(mask_bits(closed[s]))
            sub = rec(alive - gone, Y | set(Gm.in_adj[s]), k - 1)
            if sub is not None:
                return [s] + sub
        return None

    got = rec(frozenset(G.vertices()), frozenset(), k)
    if got is None:
        return SolveOutcome(False, exhausted=used_fallback[0])
    D = tuple(sorted(got))
    if not (verify_independent(G, D) and verify_dominating(G, D, 1)):
        raise RuntimeError("internal: branching produced an invalid witness")
    return SolveOutcome(True, D, exhausted=used_fallback[0])


# ---------------------------------------------------------------------------
# d-dominating set with target reduction


def find_irrelevant_vertex(G, W, d):
    """A vertex w of W whose domination is implied by the rest: some
    other target's d-in-ball is contained in w's, so any set hitting the
    smaller ball hits w's too. Returns the smallest such w or None; the
    rule holds whatever the size budget, so it takes none."""
    W = sorted(set(W))
    for w in W:
        G.check_vertex(w)
    balls = ball_masks(G, d, "in")
    for w in W:
        if _implied(w, W, balls):
            return w
    return None


def _implied(w, W, balls):
    """Some target of W other than w has its in-ball mask inside w's."""
    ball = balls[w]
    return any(w2 != w and not balls[w2] & ~ball for w2 in W)


def d_dominating_set(G, k, d=1):
    """Shrink the target set by irrelevant-vertex reductions, then cover
    the residual targets exactly by grouping potential dominators by
    their trace on the targets.

    The reductions are one sweep over the sorted targets with the in-ball
    masks computed once. It drops what repeated find_irrelevant_vertex
    calls would: dropping a target makes no other target irrelevant, so
    each next one found lies later in the order."""
    if k < 0 or d < 1:
        raise GraphError("need k >= 0 and d >= 1")
    balls = ball_masks(G, d, "in")
    W = set(G.vertices())
    for w in G.vertices():
        if _implied(w, W, balls):
            W.remove(w)

    traces = {}
    for v in sorted(G.vertices()):
        tr = frozenset(bfs_dist(G, v, max_depth=d)) & W
        if tr and tr not in traces:
            traces[tr] = v

    trace_list = sorted(traces.items(), key=lambda it: traces[it[0]])
    # the pivot is the uncovered target in the fewest traces
    hits = {w: sum(1 for tr, _ in trace_list if w in tr) for w in W}

    def cover(uncovered, budget, chosen):
        if not uncovered:
            return list(chosen)
        if budget == 0:
            return None
        pivot = min(uncovered, key=hits.__getitem__)
        for tr, v in trace_list:
            if pivot in tr:
                got = cover(uncovered - tr, budget - 1, chosen + [v])
                if got is not None:
                    return got
        return None

    got = cover(frozenset(W), k, [])
    if got is None:
        return SolveOutcome(False)
    D = tuple(sorted(got))
    if not verify_dominating(G, D, d):
        raise RuntimeError("internal: reduced cover does not dominate")
    return SolveOutcome(True, D)


# ---------------------------------------------------------------------------
# directed Steiner out-trees


def directed_steiner_outtree(G, terminals, size_budget=None):
    """Minimum-vertex out-tree containing all terminals, by dynamic
    programming over (vertex, terminal subset) with subtree merges at a
    shared root and single-edge extensions. Returns (vertices, parent)
    or None (also when the optimum exceeds size_budget)."""
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
    if best_root is None or best_cost == INF:
        return None
    if size_budget is not None and best_cost > size_budget:
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


def dominating_outbranching(G, k, scatter_budget=3):
    """Does some set of at most k vertices span an out-tree and dominate
    every vertex? Branches on the deletion set of a scattered witness
    (any solution must meet it), shrinking the target set by the chosen
    vertex's closed out-neighborhood. A target set of at most
    max(W_CAP, chosen + budget) vertices, or one with no scattered
    witness, goes to the exhaustive subset search, which keeps the
    answer exact at all sizes; only the second case marks the outcome
    exhausted."""
    _need_k(k)
    _need_budget(scatter_budget)
    used_fallback = [False]
    closed = ball_masks(G, 1)
    no_clash = [0] * G.n

    def rooted(D):
        """Some member of D reaches all of D inside G[D]; the closed
        balls serve as adjacency masks."""
        inside = _mask(D)
        return any(reach_mask(closed, root, inside) == inside for root in D)

    def exhaustive(W, us, j):
        """us plus the first 0..j further vertices, by size, then in
        itertools.combinations order, that dominate W and span an
        out-tree. _first_subset covers W with the closed out-neighborhood
        masks and rooted() screens the rest, so spanning_outtree runs
        only on the set it will accept."""
        want = _mask(W)

        def spanned(combo):
            D = tuple(sorted(set(us) | set(combo)))
            if not rooted(D):
                return None
            return D, spanning_outtree(G, D)

        cand = ((1 << G.n) - 1) & ~_mask(us)
        for size in range(0, j + 1):
            got = _first_subset(cand, size, no_clash, closed, want, spanned)
            if got is not None:
                return got
        return None

    def rec(W, us, j):
        t = len(us)
        if len(W) <= max(W_CAP, t + j):
            return exhaustive(W, us, j)
        if j == 0:
            return None
        scat = compute_scattered(G, sorted(W), d=1, m=t + j + 1, s_budget=scatter_budget)
        if scat is None:
            used_fallback[0] = True
            return exhaustive(W, us, j)
        for nxt in sorted(set(scat.deleted) - set(us)):
            rest = W - set(mask_bits(closed[nxt]))
            got = rec(rest, us + (nxt,), j - 1)
            if got is not None:
                return got
        return None

    if G.n == 0:
        return SolveOutcome(False)
    got = rec(set(G.vertices()), (), k)
    if got is None:
        return SolveOutcome(False, exhausted=used_fallback[0])
    D, parent = got
    if not (
        verify_outbranching(G, D, parent)
        and verify_dominating(G, D, 1)
        and len(D) <= k
    ):
        raise RuntimeError("internal: out-branching witness invalid")
    return SolveOutcome(True, (D, parent), exhausted=used_fallback[0])


# ---------------------------------------------------------------------------
# independent set


def independent_set(G, k, d=1, scatter_budget=3):
    """Independent set of size exactly k (distance-d version: no member
    within distance d of another), by one exact search: _first_subset
    over each vertex's two-way d-ball as a bitmask, computed once per
    call. It returns the first independent k-subset in the order of
    itertools.combinations over the sorted vertices, or proves that
    there is none without visiting the subsets it cuts. scatter_budget
    is checked as for the other solvers and otherwise unused."""
    _need_k(k)
    if d < 1:
        raise GraphError("need d >= 1, got %d" % d)
    _need_budget(scatter_budget)
    if k == 0:
        return SolveOutcome(True, ())
    if k > G.n:
        return SolveOutcome(False)
    clash = [o | i for o, i in zip(ball_masks(G, d), ball_masks(G, d, "in"))]
    got = _first_subset((1 << G.n) - 1, k, clash, clash, 0, tuple)
    if got is not None:
        return SolveOutcome(True, got, exhausted=True)
    return SolveOutcome(False, exhausted=True)
