"""The crown-or-scattered dichotomy.

Given a digraph with an r-scattered set, the dichotomy either exhibits a
crown of order q as a depth-r minor or produces an (r+1)-scattered set
after deleting few vertices. The extraction pipeline mirrors the
underlying combinatorics: a label-avoiding clique step, a crown
extractor for one level class, a trichotomy over level classes, and a
peeling loop on top. Vertex sets inside the control structure are int
bitmasks over vertex ids, from the adjacency to the pools and buckets.
Scattered sets themselves, which the solvers need without the dichotomy,
live in `scattered`; this module builds on them.

The guaranteed thresholds for these constructions are astronomically
large, so everything here runs in best-effort mode: pools are consumed
until exhausted, every candidate witness is verified from scratch, and
an explicit BudgetExhausted signals that the pools ran out. No wrong
witness is ever returned.
"""

import itertools
import math
from collections import namedtuple

from .digraph import BudgetExhausted, GraphError, bfs_dist, crown, mask_bits

# compute_scattered and is_scattered are not used here. They stay
# importable from quasiwide because the benchmark in perfbench/ reads
# them there (workloads.py, and tracer.WRAPPED["quasiwide"]).
from .scattered import compute_scattered, without_vertices  # noqa: F401
from .verify import (  # noqa: F401
    DirectedModel, ScatteredWitness, is_scattered, verified, verify_model,
)


# ---------------------------------------------------------------------------
# bound functions (exact integers; they explode quickly). The extractors
# evaluate them only at small orders: uniform_level_crown takes
# 2 * clique_threshold(q) as its round limit for q <= 4, and
# bipartite_trichotomy takes uniform_level_threshold(q, n) as its bucket
# goal for q <= 3; above those orders they run without a limit or goal.


def ramsey_upper(n):
    """Upper bound on the least m forcing a monochromatic K_n in any
    2-coloring of K_m (central binomial bound)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return math.comb(2 * n - 2, n - 1)


def clique_threshold(n):
    """Pool size guaranteeing the label-avoiding clique extraction:
    f(1) = 1, f(n+1) = 1 + R(2 f(n))."""
    if n < 1:
        raise ValueError("need n >= 1")
    f = 1
    for _ in range(n - 1):
        f = 1 + ramsey_upper(2 * f)
    return f


def uniform_level_threshold(q, n):
    """Pool size guaranteeing the one-level crown extraction:
    g(q, n) = (2n)^(2 f(q))."""
    return (2 * n) ** (2 * clique_threshold(q))


# ---------------------------------------------------------------------------
# controlled bipartite graphs


class ControlledBipartite:
    """Bipartite digraph (A to B) enriched with control data.

    base maps a vertex to the B-vertex it sits close to (or None); level
    orders vertices by that closeness (r+1 meaning no base); eta labels
    every edge (a, b) with the walk tail that realizes it, listed along
    the walk and ending at b. base and level must be defined for every
    A-vertex, every B-vertex and every vertex appearing in a label.

    Labels are vertex ids (ints >= 0): over a ground digraph they are its
    vertex ids, and one id may appear on both sides (the two roles stay
    distinct; edges are always read as A-side to B-side). The adjacency
    is kept as masks only: succ[a] is the mask of a's B-side successors
    and pred[b] the mask of b's A-side predecessors. An edge whose ends
    are not an A-vertex and a B-vertex raises KeyError.
    """

    def __init__(self, a_nodes, b_nodes, edges, base, level, eta, r):
        self.a_nodes = tuple(sorted(a_nodes))
        self.b_nodes = tuple(sorted(b_nodes))
        self.base = dict(base)
        self.level = dict(level)
        self.eta = {e: tuple(val) for e, val in eta.items()}
        self.r = r
        self.succ = dict.fromkeys(self.a_nodes, 0)
        self.pred = dict.fromkeys(self.b_nodes, 0)
        for (a, b) in edges:
            self.succ[a] |= 1 << b
            self.pred[b] |= 1 << a

    def one_scattered(self, members):
        """No A-vertex sees two of `members`, a mask of B-vertices, among
        its successors."""
        return all((s & members).bit_count() < 2 for s in self.succ.values())

    def restrict(self, a_keep, b_keep):
        """The sub-structure induced by the A-vertices in the mask a_keep
        and the B-vertices in the mask b_keep. It shares base, level and
        eta with this structure, read-only, and holds only the ANDed
        adjacency masks of its own."""
        sub = object.__new__(ControlledBipartite)
        sub.a_nodes = tuple(a for a in self.a_nodes if a_keep >> a & 1)
        sub.b_nodes = tuple(b for b in self.b_nodes if b_keep >> b & 1)
        sub.base, sub.level, sub.eta, sub.r = self.base, self.level, self.eta, self.r
        sub.succ = {a: self.succ[a] & b_keep for a in sub.a_nodes}
        sub.pred = {b: self.pred[b] & a_keep for b in sub.b_nodes}
        return sub


class ControlledCrown(namedtuple("ControlledCrown", "order principals connectors")):
    """Crown of the given order inside a controlled bipartite graph:
    principals are the B-side sinks, connectors[k] covers the k-th pair
    of principals (pairs in lexicographic order)."""

    __slots__ = ()

    def crown_edges(self):
        for a, (b, c) in zip(self.connectors, itertools.combinations(self.principals, 2)):
            yield (a, b)
            yield (a, c)


def verify_controlled_crown(cb, cc):
    """Full check: correct shape, all crown edges present, and no edge
    label meeting the crown anywhere except at the edge's own endpoint."""
    q = cc.order
    if len(cc.principals) != q or len(cc.connectors) != math.comb(q, 2):
        return False
    body = set(cc.principals) | set(cc.connectors)
    if len(body) != q + math.comb(q, 2):
        return False  # duplicate labels or a connector colliding with a principal
    for (a, b) in cc.crown_edges():
        if not cb.succ.get(a, 0) >> b & 1:
            return False
        if (set(cb.eta[(a, b)]) - {b}) & body:
            return False
    return True


# ---------------------------------------------------------------------------
# label-avoiding clique extraction


def label_avoiding_clique(vertices, gamma, n):
    """A set H of n vertices of the complete graph on `vertices` such
    that no internal edge's label lies in H.

    gamma maps frozenset pairs to a single vertex or None, with
    gamma(e) disjoint from e. Recursion: pick the first vertex v, split
    the remaining edges by whether their label is exactly v, take an
    exact maximum clique in either color class; the v-colored case
    yields the answer directly, the other case strips label partners
    greedily and recurses. Raises BudgetExhausted when pools run dry.
    """
    verts = sorted(vertices)
    if n < 1:
        raise GraphError("clique target must be positive")

    def g(u, w):
        got = gamma.get(frozenset((u, w)))
        if got is not None and got in (u, w):
            raise GraphError("edge label must avoid its endpoints")
        return got

    def rec(pool, need):
        if need == 1:
            if not pool:
                raise BudgetExhausted("clique pool empty")
            return [pool[0]]
        if len(pool) < need:
            raise BudgetExhausted("clique pool smaller than target")
        v = pool[0]
        rest = pool[1:]
        same = _max_clique(rest, lambda x, y: g(x, y) == v)
        if len(same) >= need:
            return sorted(same)[:need]
        other = _max_clique(rest, lambda x, y: g(x, y) != v)
        kept, dropped = [], set()
        for u in other:
            if u not in dropped:
                partner = g(v, u)
                if partner not in kept:
                    kept.append(u)
                    dropped.add(partner)
        inner = rec(kept, need - 1)
        return [v] + inner

    out = rec(verts, n)
    for u, w in itertools.combinations(out, 2):
        if g(u, w) in out:
            raise RuntimeError("internal: clique extraction returned a labeled pair")
    return sorted(out)


def _max_clique(pool, adj):
    """Exact maximum clique by branch and bound; pools stay tiny."""
    best = []

    def extend(cur, cand):
        nonlocal best
        if len(cur) + len(cand) <= len(best):
            return
        if not cand:
            if len(cur) > len(best):
                best = list(cur)
            return
        x = cand[0]
        extend(cur + [x], [y for y in cand[1:] if adj(x, y)])
        extend(cur, cand[1:])

    extend([], sorted(pool))
    return best


# ---------------------------------------------------------------------------
# crown extraction at a single level


def uniform_level_crown(cb, q):
    """Controlled crown of order q in a controlled bipartite graph whose
    A-side sits on one level.

    Rounds pick a pivot and classify its connections to the remaining
    pool as red (connector based elsewhere) or yellow (based at an
    endpoint), keeping the larger class; each used connector's successors
    leave the pool, which keeps connectors distinct. The surviving
    monochrome pivot set then feeds the label-avoiding clique step: red
    labels are connector bases, yellow labels chase the one same-level
    label vertex of the non-base edge to the pivot it serves.
    """
    if q < 1:
        raise GraphError("crown order must be positive")
    lvls = {cb.level[a] for a in cb.a_nodes}
    if len(lvls) > 1:
        raise GraphError("expected a single A-side level")
    if q == 1:
        if not cb.b_nodes:
            raise BudgetExhausted("no principals available")
        return ControlledCrown(1, (cb.b_nodes[0],), ())
    c = next(iter(lvls)) if lvls else None
    round_limit = 2 * clique_threshold(q) if q <= 4 else None

    recorded = {}  # frozenset pair of pivots -> connector
    used = 0
    pool = sum(1 << b for b in cb.b_nodes)
    red, yellow = [], []
    rounds = 0
    while pool and (round_limit is None or rounds < round_limit):
        rounds += 1
        v = (pool & -pool).bit_length() - 1
        pool ^= 1 << v
        d_red = d_yellow = 0
        for u in mask_bits(pool):
            if not pool >> u & 1:
                continue
            # the least unused A-vertex seeing both pivots
            conns = cb.pred[v] & cb.pred[u] & ~used
            if not conns:
                continue  # this pair cannot be connected; u leaves with the round
            conn = (conns & -conns).bit_length() - 1
            used |= 1 << conn
            recorded[frozenset((v, u))] = conn
            if cb.base.get(conn) in (v, u):
                d_yellow |= 1 << u
            else:
                d_red |= 1 << u
            pool &= ~cb.succ[conn]
        if d_red.bit_count() >= d_yellow.bit_count():
            pool = d_red
            red.append(v)
        else:
            pool = d_yellow
            yellow.append(v)

    attempts = [("red", red), ("yellow", yellow)]
    if len(yellow) > len(red):
        attempts.reverse()
    for kind, group in attempts:
        if len(group) < q:
            last_err = BudgetExhausted("%s pivot pool too small" % kind)
            continue
        try:
            gamma = _pivot_labels(cb, group, recorded, kind, c)
            body = label_avoiding_clique(group, gamma, q)
            connectors = (recorded[frozenset(pair)] for pair in itertools.combinations(body, 2))
            cc = ControlledCrown(q, tuple(body), tuple(connectors))
            if not verify_controlled_crown(cb, cc):
                raise BudgetExhausted("extracted crown failed the label check")
            return cc
        except BudgetExhausted as err:
            last_err = err
    raise last_err


def _pivot_labels(cb, group, recorded, kind, c):
    """Edge labels for the clique step over a monochrome pivot group."""
    connector_pair = {a: p for p, a in recorded.items()}
    gamma = {}
    for u, w in itertools.combinations(sorted(group), 2):
        key = frozenset((u, w))
        # every round's pool keeps only vertices its pivot recorded a
        # connector with, and pools only shrink: any two pivots have one
        conn = recorded[key]
        if kind == "red":
            gamma[key] = cb.base.get(conn)
            continue
        bs = cb.base.get(conn)
        far = w if bs == u else u
        z = None
        for x in cb.eta[(conn, far)]:
            if cb.level.get(x) == c:
                z = x
                break
        label = None
        if z is not None and z in connector_pair:
            zp = connector_pair[z]
            if far in zp:
                partner = next(iter(zp - {far}))
                if partner != bs:
                    label = partner
        gamma[key] = label
    return gamma


# ---------------------------------------------------------------------------
# trichotomy over level classes


class BipartiteScattered(namedtuple("BipartiteScattered", "deleted members")):
    """members are 1-scattered in the structure minus the deleted
    A-vertices."""

    __slots__ = ()


def bipartite_trichotomy(cb, p, q):
    """A 1-scattered B-set of size p, or a controlled crown of order q.

    The loop classifies pivots: if enough of the pool avoids all of a
    pivot's predecessors' successor sets, the pivot joins the scattered
    set; otherwise the pool narrows to one level class and the pivot
    joins that class's bucket. Big buckets go to the one-level crown
    extractor. The third outcome of the underlying trichotomy, an
    A-vertex with more than n successors, cannot occur: n is taken as
    the largest out-degree, and only sizes the buckets' goal.
    """
    if p < 1 or q < 1:
        raise GraphError("need p, q >= 1")
    n = max((s.bit_count() for s in cb.succ.values()), default=0)
    bucket_goal = uniform_level_threshold(q, max(n, 1)) if q <= 3 else None

    pool = sum(1 << b for b in cb.b_nodes)
    scattered = 0
    buckets = [0] * (cb.r + 2)
    bucketed = 0

    def crown_from_bucket(j):
        a_keep = sum(1 << a for a in cb.a_nodes if cb.level[a] == j)
        return uniform_level_crown(cb.restrict(a_keep, buckets[j]), q)

    while scattered.bit_count() < p:
        if bucket_goal is not None:
            for j in range(cb.r + 2):
                if buckets[j].bit_count() >= bucket_goal:
                    return crown_from_bucket(j)
        fresh = pool & ~bucketed
        if not fresh:
            break
        v = (fresh & -fresh).bit_length() - 1
        by_level = [0] * (cb.r + 2)
        for a in mask_bits(cb.pred[v]):
            by_level[cb.level[a]] |= cb.succ[a] & pool
        rest = pool
        for reach in by_level:
            rest &= ~reach
        share = pool.bit_count() / (cb.r + 3)
        if rest.bit_count() >= share:
            scattered |= 1 << v
            pool = rest & ~(1 << v)
        else:
            t = min(j for j in range(cb.r + 2) if by_level[j].bit_count() >= share)
            buckets[t] |= 1 << v
            bucketed |= 1 << v
            pool = by_level[t]

    last_err = None
    if scattered.bit_count() < p:
        # pools exhausted below the guaranteed sizes: try the buckets anyway
        order = sorted(range(cb.r + 2), key=lambda j: (-buckets[j].bit_count(), j))
        for j in order:
            if buckets[j].bit_count() < q:
                continue
            try:
                return crown_from_bucket(j)
            except BudgetExhausted as err:
                last_err = err
        # the share-based loop confines itself to one pivot's reach class;
        # greedily top the scattered set up from the whole B-side instead
        for b in cb.b_nodes:
            if scattered.bit_count() == p:
                break
            if not scattered >> b & 1 and cb.one_scattered(scattered | 1 << b):
                scattered |= 1 << b
    if scattered.bit_count() == p:
        if not cb.one_scattered(scattered):
            raise RuntimeError("internal: scattered invariant broke")
        return BipartiteScattered((), tuple(mask_bits(scattered)))
    if last_err is not None:
        raise last_err
    raise BudgetExhausted(
        "trichotomy stalled: %d scattered of %d, largest bucket %d"
        % (scattered.bit_count(), p, max(b.bit_count() for b in buckets))
    )


# ---------------------------------------------------------------------------
# peeling: scattered set or crown in a controlled bipartite graph


def scattered_or_crown(cb, p, q):
    """Either a BipartiteScattered (deleting at most C(q,2) A-vertices)
    or a ControlledCrown of order q.

    Peels greedily: while some unused A-vertex covers more than q
    vertices of the current pool, keep it and shrink the pool to its
    successors minus its base. Completing C(q,2) rounds leaves a pool
    every kept vertex covers fully, which is a crown; otherwise the
    trichotomy runs on the residual structure: the unkept A-vertices
    over the pool.

    Cover ties go to the A-vertex whose repr sorts first, so vertex 10
    wins over vertex 9. That order stays because the pinned dichotomy
    outcomes in the tests were recorded with it; integer order picks
    other crowns and scattered sets.
    """
    if q < 1 or p < 1:
        raise GraphError("need p, q >= 1")
    rounds = math.comb(q, 2)
    kept = []
    pool = every_b = sum(1 << b for b in cb.b_nodes)
    while len(kept) < rounds:
        best = None
        for a in cb.a_nodes:
            if a in kept:
                continue
            cover = (cb.succ[a] & pool).bit_count()
            if cover > q and (best is None or (-cover, repr(a)) < best[0]):
                best = ((-cover, repr(a)), a)
        if best is None:
            break
        a = best[1]
        kept.append(a)
        pool &= cb.succ[a]
        if cb.base.get(a) is not None:
            pool &= ~(1 << cb.base[a])

    if len(kept) == rounds:
        principals = tuple(mask_bits(pool))[:q]
        if len(principals) < q:
            raise BudgetExhausted("peeled pool thinner than the crown order")
        cc = ControlledCrown(q, principals, tuple(kept))
        if not verify_controlled_crown(cb, cc):
            raise BudgetExhausted("peeled crown failed verification")
        return cc

    alive = sum(1 << a for a in cb.a_nodes if a not in kept)
    res = bipartite_trichotomy(cb.restrict(alive, pool), p, q)
    if isinstance(res, BipartiteScattered):
        # scatteredness must survive in the whole structure minus deletions
        whole = cb.restrict(alive, every_b)
        if not whole.one_scattered(sum(1 << b for b in res.members)):
            raise RuntimeError("internal: scattered set not scattered after deletion")
        return BipartiteScattered(tuple(kept), res.members)
    # a crown that verified in a restriction of cb verifies in cb
    return res


# ---------------------------------------------------------------------------
# the dichotomy on digraphs


def build_controlled_bipartite(G, I, r):
    """The control structure over ground digraph G for an r-scattered
    set I: B is I; every vertex reaching two members within r+1 steps
    joins A; each such reach fixes one shortest path, recorded as the
    edge label; bases point at the unique member within r steps."""
    if r < 0:
        raise GraphError("radius must be nonnegative")
    I = sorted(I)
    if len(set(I)) != len(I):
        raise GraphError("scattered candidates must be distinct")
    # into[u][w]: the distance from w to member u, up to r + 1
    into = {u: bfs_dist(G, u, max_depth=r + 1, direction="in") for u in I}
    reached = {}  # each vertex to the members it reaches, in order
    near = {}  # each vertex within r of a member to that member
    for u in I:
        for w, dd in into[u].items():
            reached.setdefault(w, []).append(u)
            if dd <= r:
                if w in near:  # two members' r-in-balls meet at w
                    raise GraphError("input set is not r-scattered")
                near[w] = u

    a_nodes = []
    edges = set()
    eta = {}
    seen = set()
    for v in sorted(reached):
        reach = reached[v]
        if len(reach) < 2:
            continue
        a_nodes.append(v)
        parents = bfs_dist(G, v, max_depth=r + 1, parents=True)
        for u in reach:
            tail = []  # the path from v to u without v, gathered from u back
            x = u
            while x != v:
                tail.append(x)
                x = parents[x]
            tail.reverse()
            edges.add((v, u))
            eta[(v, u)] = tail
            seen.update(tail)
    seen.update(a_nodes)
    seen.update(I)
    base = {}
    level = {}
    for w in seen:
        b = near.get(w)
        base[w] = b
        level[w] = into[b][w] if b is not None else r + 1
    return ControlledBipartite(a_nodes, I, edges, base, level, eta, r)


def crown_to_model(G, cb, cc, r):
    """Depth-r model of the crown pattern in the ground digraph:
    connector branches are singletons; a principal's branch is the union
    of the labels on its crown edges (walks back to the principal)."""
    q = cc.order
    pattern, _ = crown(q)
    branch = {i: {b} for i, b in enumerate(cc.principals)}
    image = {}
    pairs = itertools.combinations(range(q), 2)
    for pid, (a, pair) in enumerate(zip(cc.connectors, pairs), q):
        branch[pid] = {a}
        for i in pair:
            tail = cb.eta[(a, cc.principals[i])]
            if not tail:
                raise BudgetExhausted("crown edge degenerates to its own principal")
            branch[i].update(tail)
            image[(pid, i)] = (a, tail[0])
    ends = dict(enumerate(cc.principals + cc.connectors))
    model = DirectedModel(
        host=G,
        pattern=pattern,
        branch={v: frozenset(verts) for v, verts in branch.items()},
        edge_image=image,
        source=ends,
        sink=dict(ends),
        depth=r,
    )
    ok, bad = verify_model(model)
    if not ok:
        raise BudgetExhausted("crown model failed verification: %s" % "; ".join(bad))
    return model


def dichotomy_step(G, I, r, p, q):
    """Either a depth-r crown model of order q in G, or an (r+1)-scattered
    subset of I of size p after deleting at most C(q,2) vertices. Both
    outcomes are verified before being returned."""
    return _step(G, I, r, (p,), q)


def _step(G, I, r, sizes, q):
    """dichotomy_step at the first size p in sizes whose step raises no
    BudgetExhausted; the last size's error propagates. The control
    structure depends only on G, I and r, so it is built once for all
    of them."""
    cb = build_controlled_bipartite(G, I, r)
    for p in sizes:
        try:
            res = scattered_or_crown(cb, p, q)
            if not isinstance(res, BipartiteScattered):
                return crown_to_model(G, cb, res, r)
            break
        except BudgetExhausted:
            if p == sizes[-1]:
                raise
    S = tuple(sorted(res.deleted))
    w = ScatteredWitness(G, S, tuple(sorted(res.members)), r + 1)
    if not w.verify():
        raise RuntimeError("internal: scattered outcome failed on the ground graph")
    if len(S) > math.comb(q, 2):
        raise RuntimeError("internal: deletion set exceeded its bound")
    return w


def iterate_dichotomy(G, W, target_r, m, q):
    """Iterate the dichotomy from radius 0 up to target_r: accumulate
    deletions while the scattered outcome repeats, stop at the first
    crown. Returns a ScatteredWitness at radius target_r or a crown
    DirectedModel. q, an int, is the crown order that every round
    excludes.

    Early rounds ask for two extra members per remaining round (the
    guaranteed thresholds shrink the set round over round), backing off
    toward m when the pools cannot support the surplus.
    """
    if m < 1:
        raise GraphError("target size must be positive")
    W = sorted(set(W))
    if len(W) < m:
        raise GraphError("need |W| >= m")
    deleted = set()
    members = list(W)
    for i in range(target_r):
        Gi = without_vertices(G, deleted)
        p_hi = min(len(members), m + 2 * (target_r - 1 - i))
        res = _step(Gi, members, i, range(p_hi, m - 1, -1), q)
        if isinstance(res, DirectedModel):
            return verified(res._replace(host=G), "crown did not lift to the full graph")
        deleted.update(res.deleted)
        members = list(res.members)
    w = ScatteredWitness(G, tuple(sorted(deleted)), tuple(sorted(members[:m])), target_r)
    if not w.verify():
        raise RuntimeError("internal: iterated witness failed verification")
    return w
