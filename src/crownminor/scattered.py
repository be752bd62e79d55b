"""Scattered sets after a bounded deletion.

A set U is d-scattered in a digraph G minus a set S when no vertex of
G - S reaches two members of U by directed paths of length at most d,
that is, when the members' d-in-balls in G - S are pairwise disjoint.
Directed uniform quasi-wideness asks for a large such U after deleting
a bounded S, and the domination solvers branch on exactly that. This
module holds the bounded search for one (`compute_scattered`), the
probe behind it, which the solvers call too (`deletion_set`, over the
prefix walk `common_ancestor_walk`), and the vertex deletion the
dichotomy uses (`without_vertices`); the test (`is_scattered`, on the
mask kernel `disjoint_balls`) and the witness record
(`ScatteredWitness`) live in `verify`. The crown-or-scattered
dichotomy, behind the equivalence of nowhere crownful and directed
uniformly quasi-wide classes, lives in `quasiwide`, so that the solvers
and the `scatter` command never load it.
"""

import itertools

from .digraph import Digraph, GraphError, adjacency_masks, mask_bits, reach_mask
from .verify import ScatteredWitness, disjoint_balls

# the cap compute_scattered passes to deletion_set
PROBE_CAP = 14


def compute_scattered(G, W, d, m, s_budget):
    """Search for S (|S| <= s_budget) and U in W (|U| = m) with U
    d-scattered in G - S, via the common-ancestor construction of
    deletion_set over the first PROBE_CAP elements of W. Returns a
    verified witness or None.
    """
    if d < 0:
        raise GraphError("radius must be nonnegative")
    W = sorted(set(W))
    if m > len(W):
        raise GraphError("need |W| >= m")
    if m <= 0:
        raise GraphError("target size must be positive")
    if s_budget < 0:
        raise GraphError("need s_budget >= 0, got %d" % s_budget)
    # W is sorted and not empty, so its ends bound every id in it
    G.check_vertex(W[0])
    G.check_vertex(W[-1])
    adj, targets = adjacency_masks(G, "in"), sum(1 << w for w in W[:PROBE_CAP])
    got = deletion_set(adj, targets, (1 << G.n) - 1, d, m, s_budget, PROBE_CAP)
    if got is None:
        return None
    C, chosen = got
    return ScatteredWitness(G, tuple(mask_bits(C)), tuple(chosen), d)


def deletion_set(adj, targets, passable, d, m, s_budget, cap):
    """The common-ancestor deletion over the first cap members of the
    vertex mask targets, all passable: common_ancestor_walk over their
    d-in-balls in G[passable], with adj as for disjoint_balls. Returns
    (C, U), a mask C of at most s_budget vertices and a list U of m
    members that disjoint_balls confirms scattered in G[passable & ~C],
    or None. The caps differ: compute_scattered walks once per call, and
    the scatter benchmark's outcomes were recorded at 14; the solvers
    walk at every branching node, and their exhausted flag depends on
    their cap of 12."""
    probe = list(itertools.islice(mask_bits(targets), cap))
    balls = [reach_mask(adj, u, passable, d) for u in probe]
    got = common_ancestor_walk(probe, balls, m, s_budget)
    if got is not None and not disjoint_balls(adj, got[1], passable & ~got[0], d):
        raise RuntimeError("internal: common-ancestor deletion failed to scatter")
    return got


def common_ancestor_walk(probe, balls, m, s_budget):
    """The first m-subset U of the vertex list probe, in the order of
    itertools.combinations, whose deletion set C (the vertices in the
    balls of two members, balls[i] being probe[i]'s in-ball mask) has at
    most s_budget vertices and misses U; then U is scattered once C is
    deleted. Returns (C, U as a list) or None.

    C only grows as U grows, so any m survivors of a larger answer are an
    answer of size m by themselves: the first answer, if there is one,
    has size m, and only size m is walked. It is walked as a prefix
    search over the ball masks, carrying C and the chosen members, and a
    prefix is cut with all its extensions as soon as its C exceeds
    s_budget or holds a chosen member, which would then fall short of m
    survivors. A cut branch holds no answer, so the first answer is the
    one the full walk finds.
    """
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
    return None if C is None else (C, chosen)


def without_vertices(G, S):
    """Same vertex ids, all edges meeting S removed (S becomes isolated)."""
    S = set(S)
    return Digraph(G.n, [e for e in G.edges if e[0] not in S and e[1] not in S])
