"""Scattered sets after a bounded deletion.

A set U is d-scattered in a digraph G minus a set S when no vertex of
G - S reaches two members of U by directed paths of length at most d,
that is, when the members' d-in-balls in G - S are pairwise disjoint.
Directed uniform quasi-wideness asks for a large such U after deleting
a bounded S, and the domination solvers branch on exactly that. This
module holds the test (`is_scattered`), the verified witness record
(`ScatteredWitness`), the bounded search for one (`compute_scattered`)
and the vertex deletion the solvers and the dichotomy share
(`without_vertices`). The crown-or-scattered dichotomy, behind the
equivalence of nowhere crownful and directed uniformly quasi-wide
classes, lives in `quasiwide`, so that the solvers and the `scatter`
command never load it.
"""

import itertools
from collections import namedtuple

from .digraph import Digraph, GraphError, adjacency_masks, reach_mask


def is_scattered(G, U, d, deleted=()):
    """True iff no vertex of G - deleted has two distinct members of U in
    its d-out-neighborhood (computed in G - deleted), that is, iff the
    members' d-in-balls in G - deleted are pairwise disjoint. Raises
    GraphError for a member or deleted id outside G."""
    if d < 0:
        raise GraphError("radius must be nonnegative")
    U = list(U)
    if len(set(U)) != len(U):
        raise GraphError("scattered candidates must be distinct")
    dead = frozenset(deleted)
    for v in itertools.chain(U, dead):
        G.check_vertex(v)
    members = set(U)
    if members & dead:
        return False
    adj = adjacency_masks(G, "in")
    alive = ((1 << G.n) - 1) & ~sum(1 << v for v in dead)
    covered = 0
    for u in U:
        ball = reach_mask(adj, u, alive, d)
        if ball & covered:
            return False
        covered |= ball
    return True


class ScatteredWitness(namedtuple("ScatteredWitness", "graph deleted members radius")):
    """members, a tuple, is radius-scattered in the Digraph graph minus
    the tuple deleted."""

    __slots__ = ()

    def verify(self):
        return is_scattered(self.graph, self.members, self.radius, self.deleted)


def compute_scattered(G, W, d, m, s_budget, probe_cap=14):
    """Search for S (|S| <= s_budget) and U in W (|U| = m) with U
    d-scattered in G - S, via the common-ancestor construction: for a
    candidate U' the set C of vertices that d-in-dominate two members is
    deleted, which scatters the survivors.

    Subsets of the first probe_cap elements of W are tried by increasing
    size then lexicographically, the order of itertools.combinations.
    C only grows as U grows, so any m survivors of a larger answer are an
    answer of size m by themselves: the first answer, if there is one,
    has size m, and only size m is walked. It is walked as a prefix
    search over the in-ball bitmasks, carrying C and the chosen members,
    and a prefix is cut with all its extensions as soon as its C exceeds
    s_budget or holds a chosen member, which would then fall short of m
    survivors. A cut branch holds no answer, so the first answer is the
    one the full walk finds. Returns a verified witness or None.
    """
    W = sorted(set(W))
    if m > len(W):
        raise GraphError("need |W| >= m")
    if m <= 0:
        raise GraphError("target size must be positive")
    if s_budget < 0:
        raise GraphError("need s_budget >= 0, got %d" % s_budget)
    probe = W[:probe_cap]
    for u in probe:
        G.check_vertex(u)
    adj, full = adjacency_masks(G, "in"), (1 << G.n) - 1
    balls = [reach_mask(adj, u, full, d) for u in probe]
    chosen = []

    def extend(start, reached, C, held):
        # reached: union of the chosen members' balls; C: the vertices
        # in the balls of two chosen members; held: the chosen members
        if len(chosen) == m:
            return C
        for i in range(start, len(probe) - m + len(chosen) + 1):
            grown = C | (reached & balls[i])
            now = held | 1 << probe[i]
            if grown.bit_count() > s_budget or grown & now:
                continue
            chosen.append(probe[i])
            got = extend(i + 1, reached | balls[i], grown, now)
            if got is not None:
                return got
            chosen.pop()
        return None

    C = extend(0, 0, 0, 0)
    if C is None:
        return None
    deleted = tuple(v for v in G.vertices() if C >> v & 1)
    w = ScatteredWitness(G, deleted, tuple(chosen), d)
    if not w.verify():
        raise RuntimeError("internal: common-ancestor deletion failed to scatter")
    return w


def without_vertices(G, S):
    """Same vertex ids, all edges meeting S removed (S becomes isolated)."""
    S = set(S)
    return Digraph(G.n, [e for e in G.edges if e[0] not in S and e[1] not in S])
