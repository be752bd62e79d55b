"""The trust base: the witness records and every check an answer or a
witness document must pass, from the model check to the scattered-set
and domination checks. The engines run their final self-checks here
and `witnessdoc` re-verifies every document here; this module imports
nothing of the package but `digraph`, so reading a document back loads
no engine. `vertex_set_problem` is the one acceptance rule of each
vertex-set answer, for the solvers, their oracle and the documents alike.
"""

import itertools
from collections import namedtuple

from .digraph import GraphError, LazyMasks, adjacency_masks, bfs_dist, mask_bits, reach_mask


class DirectedModel(namedtuple(
        "DirectedModel", "host pattern branch edge_image source sink depth", defaults=(None,))):
    """Witness that `pattern` has a directed model in `host`, both
    Digraphs.

    branch maps each pattern vertex to a host vertex set; edge_image maps
    each pattern edge to a host edge; source/sink give the per-branch
    designated vertices (entries may be omitted, in which case the
    verifier checks existence). depth, when not None, bounds the length
    of every connecting path inside a branch set.
    """

    __slots__ = ()


def _branch_reach(adj, bmask, depth):
    """The reach table of one branch set, an int mask, for adj =
    adjacency_masks(G): each member, in increasing order, mapped to the
    mask of members it reaches inside the branch by a path of at most
    `depth` edges (of any length when depth is None)."""
    return {a: reach_mask(adj, 1 << a, bmask, depth) for a in mask_bits(bmask)}


def _unlinked(reach, ins, outs):
    """The (in, out) pairs of a branch whose out-vertex lies outside its
    in-vertex's reach; none means every in-vertex reaches every out."""
    return ((a, b) for a in ins for b in outs if not reach[a] >> b & 1)


def _first_source(reach, outs):
    """Smallest branch member reaching every out-vertex, or None."""
    return next((c for c in reach if all(reach[c] >> b & 1 for b in outs)), None)


def _first_sink(reach, ins):
    """Smallest branch member reached from every in-vertex, or None."""
    return next((c for c in reach if all(reach[a] >> c & 1 for a in ins)), None)


def verified(model, what):
    """The model itself once verify_model accepts it; otherwise an
    internal error naming the step that built it."""
    ok, bad = verify_model(model)
    if not ok:
        raise RuntimeError("internal: %s: %s" % (what, bad))
    return model


def verify_model(model):
    """Check every model condition; returns (ok, list of violations).
    Every key of branch, source and sink must be a pattern vertex, and
    every key of edge_image a pattern edge."""
    H, G = model.pattern, model.host
    limit = model.depth
    if limit is not None and limit < 0:
        return False, ["negative depth"]

    bad = ["%s of %s, which is not a pattern vertex" % (name, v)
           for name, keyed in (("branch", model.branch), ("source", model.source),
                               ("sink", model.sink))
           for v in keyed if v not in H.vertices()]
    bad += ["edge image of %s, which is not a pattern edge" % (e,)
            for e in model.edge_image if e not in H.edges]
    branches = {}
    for v in H.vertices():
        bset = frozenset(model.branch.get(v, ()))
        if not bset:
            bad.append("branch %d empty or missing" % v)
        if any(not (0 <= x < G.n) for x in bset):
            bad.append("branch %d contains foreign vertices" % v)
        branches[v] = bset
    if bad:
        return False, bad

    for u, v in itertools.combinations(sorted(branches), 2):
        if branches[u] & branches[v]:
            bad.append("branches %d and %d overlap" % (u, v))

    # per pattern vertex, the masks of its in-heads and out-tails
    heads, tails = dict.fromkeys(branches, 0), dict.fromkeys(branches, 0)
    for e in sorted(H.edges):
        img = model.edge_image.get(e)
        if img is None:
            bad.append("edge image missing for %s" % (e,))
            continue
        x, y = img
        if not G.has_edge(x, y):
            bad.append("image %s of %s is not a host edge" % (img, e))
            continue
        tails[e[0]] |= 1 << x
        heads[e[1]] |= 1 << y
        if x not in branches[e[0]]:
            bad.append("image of %s does not start in branch %d" % (e, e[0]))
        if y not in branches[e[1]]:
            bad.append("image of %s does not end in branch %d" % (e, e[1]))
    if bad:
        return False, bad

    adj = adjacency_masks(G)
    for v in H.vertices():
        bset = branches[v]
        in_set, out_set = list(mask_bits(heads[v])), list(mask_bits(tails[v]))
        reach = _branch_reach(adj, sum(1 << x for x in bset), limit)
        for a, b in _unlinked(reach, in_set, out_set):
            bad.append("branch %d: no path %s -> %s within depth" % (v, a, b))

        s = model.source.get(v)
        if s is not None:
            if s not in bset:
                bad.append("source of %d outside branch" % v)
            elif any(_unlinked(reach, [s], out_set)):
                bad.append("source of %d misses part of out set" % v)
        elif _first_source(reach, out_set) is None:
            bad.append("branch %d has no valid source" % v)

        t = model.sink.get(v)
        if t is not None:
            if t not in bset:
                bad.append("sink of %d outside branch" % v)
            elif any(_unlinked(reach, in_set, [t])):
                bad.append("sink of %d not reached from part of in set" % v)
        elif _first_sink(reach, in_set) is None:
            bad.append("branch %d has no valid sink" % v)

    return not bad, bad


# ---------------------------------------------------------------------------
# scattered sets


def is_scattered(G, U, d, deleted=()):
    """True iff every member of U lies in G - deleted and no vertex of
    G - deleted has two distinct members of U in its d-out-neighborhood
    (computed in G - deleted), that is, iff the members' d-in-balls in
    G - deleted are pairwise disjoint. A deleted member makes it False,
    as disjoint_balls requires every member to be alive. Raises
    GraphError for a member or deleted id outside G. The in-masks come
    from a LazyMasks table: only the vertices the balls visit get one."""
    if d < 0:
        raise GraphError("radius must be nonnegative")
    U = list(U)
    if len(set(U)) != len(U):
        raise GraphError("scattered candidates must be distinct")
    dead = frozenset(deleted)
    for v in itertools.chain(U, dead):
        G.check_vertex(v)
    alive = ((1 << G.n) - 1) & ~sum(1 << v for v in dead)
    return disjoint_balls(LazyMasks(G.in_adj), U, alive, d)


def disjoint_balls(adj, members, alive, d):
    """The kernel of is_scattered: every vertex id in members lies in the
    vertex mask alive, and their d-balls in G[alive] are pairwise
    disjoint, for adj = adjacency_masks(G, "in"), LazyMasks(G.in_adj) or
    the closed in-ball masks of G."""
    covered = 0
    for u in members:
        ball = reach_mask(adj, 1 << u, alive, d)
        if not ball or ball & covered:
            return False
        covered |= ball
    return True


class ScatteredWitness(namedtuple("ScatteredWitness", "graph deleted members radius")):
    """members, a tuple, is radius-scattered in the Digraph graph minus
    the tuple deleted."""

    __slots__ = ()

    def verify(self):
        return is_scattered(self.graph, self.members, self.radius, self.deleted)


# ---------------------------------------------------------------------------
# domination


def verify_dominating(G, D, d=1):
    """D names no vertex twice and every vertex lies inside the
    d-out-neighborhood of D. Raises GraphError for an id outside G."""
    D = list(D)
    covered = set()
    for v in D:
        covered.update(bfs_dist(G, v, max_depth=d))
    return len(set(D)) == len(D) and len(covered) == G.n


def verify_independent(G, D, d=1):
    """D names no vertex twice and no member's d-out-neighborhood holds
    another member; at d = 1, no edge in either direction inside D.
    Raises GraphError for an id outside G."""
    D = list(D)
    for v in D:
        G.check_vertex(v)
    members = set(D)
    return len(members) == len(D) and all(
        len(members.intersection(bfs_dist(G, v, max_depth=d))) == 1 for v in D)


def verify_outbranching(G, vertices, parent):
    """parent maps each vertex to its tree parent (None at the root);
    checks that no vertex is named twice, one root, edges present, and
    every vertex hanging under the root: one reach sweep from it over
    the child masks of the parent map covers them all. Raises GraphError
    for an id outside G."""
    vertices = list(vertices)
    vs = set(vertices)
    for v in vs:
        G.check_vertex(v)
    if len(vs) != len(vertices) or set(parent) != vs or not vs:
        return False
    roots = [v for v in vs if parent[v] is None]
    if len(roots) != 1:
        return False
    children = [0] * G.n
    for v in vs:
        p = parent[v]
        if p is None:
            continue
        if p not in vs or not G.has_edge(p, v):
            return False
        children[p] |= 1 << v
    inside = sum(1 << v for v in vs)
    return reach_mask(children, 1 << roots[0], inside) == inside


def vertex_set_problem(kind, G, D, d=1, independent=False, parent=None):
    """Why the vertex set D fails as a `kind` answer in G, or None: a
    "dominating" set dominates within d (and is independent if flagged),
    an "independent" set has no member within distance d of another,
    and an "outbranching" is a tree under parent that dominates G too.
    The size bound is the caller's. Raises GraphError for an id outside G."""
    if kind == "outbranching":
        if not verify_outbranching(G, D, parent):
            return "outbranching witness does not verify"
        if not verify_dominating(G, D, 1):
            return "outbranching witness does not dominate"
    elif kind == "dominating":
        if d < 0 or not verify_dominating(G, D, d):
            return "dominating witness does not verify at d = %d" % d
        if independent and not verify_independent(G, D):
            return "dominating witness is not independent"
    elif d < 0 or not verify_independent(G, D, d):
        return "independent witness does not verify"
    return None
