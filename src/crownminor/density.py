"""The searches behind `minors.grad`: the densest subgraph by max-flow,
and the densest family of connected branch sets by branch and bound.

Vertex sets are int masks (bit v for vertex v), as in the solvers' ball
masks.
"""

from fractions import Fraction
from math import gcd

from .digraph import adjacency_masks, mask_bits, reach_mask
from .verify import _branch_reach


def densest_subgraph(G):
    """The largest |E(G[S])|/|S| over nonempty vertex sets S (0 when G
    has no edges), by Goldberg's min-cut construction ("Finding a maximum
    density subgraph", UCB/CSD-84-171, 1984) inside Dinkelbach's
    iteration on lambda = a/b, the density of the best set so far.

    For lambda the network has a source s, a sink t and the vertices.
    Each adjacent pair {u, v} gets capacity b*w in both directions, where
    w is the number of edges between them. Each vertex v of total degree
    d gets an arc s -> v of capacity b*d - 2a when that is positive, or
    v -> t of capacity 2a - b*d. A cut with vertex set S on the source
    side then costs a constant plus 2(a|S| - b|E(G[S])|), so the source
    side of a minimum cut holds a set denser than lambda whenever one
    exists; otherwise lambda is the answer.
    """
    m = len(G.edges)
    if not m:
        return Fraction(0)
    n = G.n
    weight = {}
    for u, v in G.edges:
        pair = (u, v) if u < v else (v, u)
        weight[pair] = weight.get(pair, 0) + 1
    degree = [G.out_degree(v) + G.in_degree(v) for v in range(n)]
    a, b = m, n
    while True:
        arcs = [(u, v, w * b, w * b) for (u, v), w in weight.items()]
        for v in range(n):
            slack = b * degree[v] - 2 * a
            if slack > 0:
                arcs.append((n, v, slack, 0))
            elif slack < 0:
                arcs.append((v, n + 1, -slack, 0))
        side = set(_min_cut_side(n + 2, arcs, n, n + 1))
        inner = sum(1 for u, v in G.edges if u in side and v in side)
        if inner * b <= a * len(side):
            return Fraction(a, b)
        a, b = inner, len(side)


def _min_cut_side(size, arcs, s, t):
    """The nodes other than s that s still reaches in the residual
    network of a maximum s-t flow, which form the source side of a
    minimum cut; by Dinic's algorithm. Nodes are 0..size-1 and `arcs`
    holds (u, v, capacity of u -> v, capacity of v -> u) with integer
    capacities."""
    head, cap = [], []
    adj = [[] for _ in range(size)]
    for u, v, forward, backward in arcs:
        adj[u].append(len(head))
        head.append(v)
        cap.append(forward)
        adj[v].append(len(head))
        head.append(u)
        cap.append(backward)
    while True:
        level = [-1] * size
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in adj[u]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = level[u] + 1
                    queue.append(head[a])
        if level[t] < 0:
            return queue[1:]
        # blocking flow: depth-first along level-increasing arcs, with a
        # per-node cursor; a node that leads nowhere leaves the level graph
        cursor = [0] * size
        path = []
        u = s
        while True:
            if u == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                path.clear()
                u = s
                continue
            out = adj[u]
            i = cursor[u]
            while i < len(out) and not (cap[out[i]] and level[head[out[i]]] == level[u] + 1):
                i += 1
            cursor[u] = i
            if i < len(out):
                path.append(out[i])
                u = head[out[i]]
            elif u == s:
                break
            else:
                level[u] = -1
                u = head[path.pop() ^ 1]


def densest_partition(G, r, best):
    """grad(G, r) for r >= 1 given best = grad(G, 0): the largest
    (pattern edge count) / p over partitions of a weak component of G
    into p weakly connected blocks, by branch and bound.

    Blocks are int masks. The next block is the one holding the lowest
    unplaced vertex, taken among the connected sets of unplaced vertices
    that hold it, so every partial family can be completed. Two bounds on
    L, the number of ordered block pairs joined by a host edge (no
    pattern has more edges), cut families before their reach tables are
    built:

    - a complete family of p blocks with L/p at most the incumbent is
      skipped;
    - with k blocks placed and m >= 1 blocks still to come from the set R
      of unplaced vertices, L is at most the pairs among placed blocks,
      plus min(m, |out(B) & R|) + min(m, |in(B) & R|) for each placed
      block B (each pair with a new block needs its own vertex of R),
      plus min(m(m - 1), e(R) - |R| + m) (the new blocks are connected,
      so at least |R| - m edges of G[R] lie inside them). A family is
      cut when no m lets this beat the incumbent over k + m blocks.

    A complete family that passes goes to `_max_edges_over_blocks`,
    which looks only for counts above floor(incumbent * p). The
    incumbent is kept as num/den and compared by cross-multiplying.
    """
    n = G.n
    out_m, in_m = adjacency_masks(G, "out"), adjacency_masks(G, "in")
    nb = [o | i for o, i in zip(out_m, in_m)]
    num, den = best.numerator, best.denominator
    roles = {}
    placed, outs, ins = [], [], []

    def roles_of(block):
        got = roles.get(block)
        if got is None:
            got = roles[block] = _block_roles(block, r, out_m)
        return got

    def place(R, pairs, edges):
        # R: unplaced vertices, pairs: joined pairs among placed blocks,
        # edges: |E(G[R])|
        def grow(S, ext, banned, s_out, s_in, touching):
            # S: the next block; touching: edges of G[R] with an end in S
            nonlocal num, den
            k = len(placed) + 1
            joined = pairs
            for B, b_out in zip(placed, outs):
                joined += (s_out & B != 0) + (b_out & S != 0)
            rest = R & ~S
            if not rest:
                if joined * den > num * k:
                    got = _max_edges_over_blocks(
                        [roles_of(B) for B in placed] + [roles_of(S)], num * k // den
                    )
                    if got is not None:
                        g = gcd(got, k)
                        num, den = got // g, k // g
            else:
                caps = [(o & rest).bit_count() for o in outs]
                caps += [(i & rest).bit_count() for i in ins]
                caps += [(s_out & rest).bit_count(), (s_in & rest).bit_count()]
                if _can_beat(num, den, joined, k, caps, rest.bit_count(), edges - touching):
                    placed.append(S)
                    outs.append(s_out)
                    ins.append(s_in)
                    place(rest, joined, edges - touching)
                    placed.pop()
                    outs.pop()
                    ins.pop()
            # every connected set holding S and avoiding `banned` once
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                fresh = R & ~S
                grow(
                    S | low,
                    (ext | nb[u]) & fresh & ~low & ~banned,
                    banned,
                    s_out | out_m[u],
                    s_in | in_m[u],
                    touching + (out_m[u] & fresh).bit_count() + (in_m[u] & fresh).bit_count(),
                )
                banned |= low

        v = (R & -R).bit_length() - 1
        grow(1 << v, nb[v] & R, 0, out_m[v], in_m[v],
             (out_m[v] & R).bit_count() + (in_m[v] & R).bit_count())

    left = (1 << n) - 1
    while left:
        comp = reach_mask(nb, left & -left, left)
        left &= ~comp
        if comp & (comp - 1):
            place(comp, 0, sum((out_m[u] & comp).bit_count() for u in mask_bits(comp)))
    return Fraction(num, den)


def _can_beat(num, den, joined, k, caps, size, edges):
    """Whether the bound of `densest_partition` lets some number m of
    new blocks, 1 <= m <= size, beat num/den: k blocks placed with
    `joined` pairs among them, `caps` the distinct out- and in-neighbours
    each placed block has among the `size` unplaced vertices, and `edges`
    the edges among those."""
    if (joined + sum(caps) + edges) * den <= num * (k + 1):
        return False
    caps.sort()
    i, cross, count = 0, 0, len(caps)
    for m in range(1, size + 1):
        while i < count and caps[i] < m:
            i += 1
        cross += count - i  # sum of min(m, c) over caps
        new = min(m * (m - 1), edges - size + m)
        if (joined + cross + new) * den > num * (k + m):
            return True
    return False


def _block_roles(block, r, out_m):
    """The ways one branch set (an int mask) takes pattern edges at depth
    r: (in mask, out mask) pairs, where a pattern edge may enter at any
    vertex of the in mask and leave along any host edge into the out mask
    (the out-neighbours of the out side, outside the block).

    The out side O ranges over the nonempty intersections of members'
    reach sets within the block (`_branch_reach`), and the in side I is
    every member that reaches all of O. Any in and out sets inside such a
    pair meet `verify_model`'s conditions (a vertex of I is a source and
    one of O a sink), and every choice that meets them lies inside one.
    Pairs contained in another are dropped."""
    reach = _branch_reach(out_m, block, r)
    closed = set()
    for mask in reach.values():
        closed |= {c & mask for c in closed if c & mask}
        closed.add(mask)
    found = []
    for side in closed:
        in_side = out = 0
        for a, mask in reach.items():
            if mask & side == side:
                in_side |= 1 << a
            if side >> a & 1:
                out |= out_m[a]
        found.append((in_side, out & ~block))
    found.sort(key=lambda role: (-role[0].bit_count() - role[1].bit_count(), role))
    kept = []
    for in_side, out in found:
        if not any(in_side | i == i and out | o == o for i, o in kept):
            kept.append((in_side, out))
    return kept


def _max_edges_over_blocks(roles, best_cnt):
    """The largest pattern edge count above best_cnt that a family of
    branch sets realizes, or None. roles[i] lists block i's
    `_block_roles`; with one role per block, each ordered pair (i, j)
    with a host edge from block i's out side into block j's in side takes
    one pattern edge. Blocks with several roles are fixed one at a time,
    and the blocks not yet fixed count with the union of their roles,
    which bounds every completion from above."""
    p = len(roles)
    ins, outs = [0] * p, [0] * p
    for i, block_roles in enumerate(roles):
        for in_side, out in block_roles:
            ins[i] |= in_side
            outs[i] |= out
    free = [i for i in range(p) if len(roles[i]) > 1]
    floor = best_cnt

    def rec(t):
        nonlocal best_cnt
        count = sum(1 for out in outs for in_side in ins if out & in_side)
        if count <= best_cnt:
            return
        if t == len(free):
            best_cnt = count
            return
        i = free[t]
        saved = ins[i], outs[i]
        for in_side, out in roles[i]:
            ins[i], outs[i] = in_side, out
            rec(t + 1)
        ins[i], outs[i] = saved

    rec(0)
    return best_cnt if best_cnt > floor else None
