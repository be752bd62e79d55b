"""Independent brute-force oracles used by the test suite.

Every verdict here is written from the definitions, separately from the
library's own search code, so that agreements are meaningful: simple
path enumeration, assignment-function minor search, exhaustive solvers,
an exhaustive family sweep for `grad`, placement-and-path search for
subdivisions, and a split-by-split check that a butterfly model is
tree-like. The exceptions are former library code that the current
code must reproduce: `reference_guesses`,
the minor checkers' guess stream before its owner-aware pruning, and
`scattered_by_sweep` and `controlled_bipartite_by_table`, which ran one
BFS per host vertex where the library now runs one per member, and
`full_copy_sample`, the generators' sampler before it went O(k), and
`butterfly_minor_by_contraction`, the library's butterfly test before it
searched for tree-like models, with its isomorphism test
`digraph_isomorphic`, and the forms that sorted the same lists more
than once: `adjacency_by_sorting` (the `Digraph` adjacency),
`emit_graph_by_sorted_edges` (the graph text), the label walk with
path and `reverse()` in `controlled_bipartite_by_table`, and
`controlled_bipartite_lists` (`ControlledBipartite`'s neighbor lists).
Random test instances, which decide no verdict, come from the library's
`random_digraph` and `random_dag` and are re-exported under those names;
`ladder` builds the path router's exponential case. The last section
holds small helpers that only tests call: `is_directed_path`,
`crown_source_id`, `wideness_threshold` and `deletion_budget`.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

from crownminor.digraph import Digraph, GraphError, bfs_dist
from crownminor.generators import random_dag, random_digraph  # noqa: F401
from crownminor.minors import _injective_maps, butterfly_contract, legal_butterfly_contractions
from crownminor.quasiwide import ControlledBipartite, dichotomy_threshold


def enum_paths(G, src, max_len=None, reverse=False):
    """All simple directed paths starting at src (length in edges capped
    at max_len), as vertex tuples, by plain DFS."""
    succ = (lambda v: G.predecessors(v)) if reverse else (lambda v: G.successors(v))
    out = []

    def dfs(path):
        out.append(tuple(path))
        if max_len is not None and len(path) - 1 >= max_len:
            return
        for w in succ(path[-1]):
            if w not in path:
                path.append(w)
                dfs(path)
                path.pop()

    dfs([src])
    return out


def reach_by_paths(G, v, d, reverse=False):
    """d-neighborhood computed by exhaustive path enumeration."""
    return sorted({p[-1] for p in enum_paths(G, v, max_len=d, reverse=reverse)})


def paths_between(G, s, t, max_len=None):
    return [p for p in enum_paths(G, s, max_len=max_len) if p[-1] == t]


def brute_disjoint_paths(G, pairs, groups, max_len=None):
    """Exhaustive tuple search: one path per request, requests in
    different groups vertex-disjoint. groups: list of lists of request
    indices. Returns True/False."""
    group_of = {}
    for gi, g in enumerate(groups):
        for i in g:
            group_of[i] = gi
    cand = [paths_between(G, s, t, max_len) for (s, t) in pairs]
    if any(not c for c in cand):
        return False
    chosen = {}

    def rec(i):
        if i == len(pairs):
            return True
        gi = group_of[i]
        for path in cand[i]:
            vs = set(path)
            if any(
                group_of[j] != gi and vs & set(pj) for j, pj in chosen.items()
            ):
                continue
            chosen[i] = path
            if rec(i + 1):
                return True
            del chosen[i]
        return False

    return rec(0)


def ladder(rungs):
    """A DAG of two-vertex rungs {2i, 2i + 1}, each vertex pointing at
    both vertices of the next rung and the last rung at t = 2 * rungs,
    as (G, t): 2^(rungs - 1) paths lead from either vertex of the first
    rung to t."""
    t = 2 * rungs
    es = [(2 * i + a, 2 * i + 2 + b) for i in range(rungs - 1) for a in (0, 1) for b in (0, 1)]
    es += [(t - 2, t), (t - 1, t)]
    return Digraph(t + 1, es), t


def _block_reach(G, block, src):
    block = set(block)
    if src not in block:
        return {}
    dist = {src: 0}
    dq = deque([src])
    while dq:
        v = dq.popleft()
        for w in G.successors(v):
            if w in block and w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def _near(dist_map, target, depth):
    d = dist_map.get(target)
    return d is not None and (depth is None or d <= depth)


def _model_conditions_hold(H, G, blocks, images, depth):
    """All model conditions, recomputed from scratch for the given edge
    images: start/end containment, in->out paths, source, sink."""
    edges = sorted(H.edges)
    for e, (x, y) in zip(edges, images):
        if x not in blocks[e[0]] or y not in blocks[e[1]]:
            return False
    for v in range(H.n):
        ins = sorted({img[1] for e, img in zip(edges, images) if e[1] == v})
        outs = sorted({img[0] for e, img in zip(edges, images) if e[0] == v})
        dist = {a: _block_reach(G, blocks[v], a) for a in blocks[v]}
        for a in ins:
            for b in outs:
                if not _near(dist[a], b, depth):
                    return False
        if not any(
            all(_near(dist[c], b, depth) for b in outs) for c in blocks[v]
        ):
            return False
        if not any(
            all(_near(dist[a], c, depth) for a in ins) for c in blocks[v]
        ):
            return False
    return True


def brute_directed_minor(H, G, depth=None):
    """Assignment-function oracle: label every host vertex with a pattern
    vertex or none, then try every combination of edge images."""
    h = H.n
    if h == 0:
        return True
    if h > G.n:
        return False
    edges = sorted(H.edges)
    host_edges = sorted(G.edges)
    for assign in itertools.product(range(h + 1), repeat=G.n):
        blocks = [set() for _ in range(h)]
        ok = True
        for hv, lab in enumerate(assign):
            if lab:
                blocks[lab - 1].add(hv)
        if any(not b for b in blocks):
            continue
        cand = []
        for (u, v) in edges:
            cs = [(x, y) for (x, y) in host_edges if x in blocks[u] and y in blocks[v]]
            if not cs:
                ok = False
                break
            cand.append(cs)
        if not ok:
            continue

        def try_images(i, picked):
            if i == len(edges):
                return _model_conditions_hold(H, G, blocks, picked, depth)
            for c in cand[i]:
                picked.append(c)
                # cheap scratch check on the two touched branches only
                if _partial_ok(H, G, blocks, edges, picked, depth) and try_images(
                    i + 1, picked
                ):
                    return True
                picked.pop()
            return False

        if try_images(0, []):
            return True
    return False


def _partial_ok(H, G, blocks, edges, picked, depth):
    u, v = edges[len(picked) - 1]
    for w in (u, v):
        ins = {img[1] for e, img in zip(edges, picked) if e[1] == w}
        outs = {img[0] for e, img in zip(edges, picked) if e[0] == w}
        dist = {a: _block_reach(G, blocks[w], a) for a in ins}
        for a in ins:
            for b in outs:
                if not _near(dist[a], b, depth):
                    return False
    return True


def reference_guesses(H, G, depth=None):
    """The minor checkers' guess stream before owner-aware pruning, kept
    as the reference the pruned `minors._enumerate_guesses` must agree
    with: the same (edge_image, source, sink, owner) quadruples in the
    same order, minus guesses that cannot route. Edge images are tried
    in lexicographic order and cut only by whole-host reach within
    depth, an owner-aware in->out test on each touched branch, and, at
    full images, lexicographic least-ness under the pattern's
    automorphisms; source and sink candidates only by whole-host reach.
    """
    edge_order = sorted(H.edges)
    host_edges = sorted(G.edges)
    reach = {v: set(bfs_dist(G, v, max_depth=depth)) for v in G.vertices()}
    autos = {tuple(m[v] for v in H.vertices()) for m in _injective_maps(H, H, True)}
    autos.discard(tuple(H.vertices()))
    in_edges = {v: sorted(e for e in H.edges if e[1] == v) for v in H.vertices()}
    out_edges = {v: sorted(e for e in H.edges if e[0] == v) for v in H.vertices()}
    image = {}

    def canonical():
        mine = tuple(image[e] for e in edge_order)
        return all(
            tuple(image[(a[e[0]], a[e[1]])] for e in edge_order) >= mine for a in autos
        )

    def feasible_partial(v, owner):
        ins = {image[e][1] for e in in_edges[v] if e in image}
        outs = {image[e][0] for e in out_edges[v] if e in image}
        if not all(any(x1 in reach[s] and x2 in reach[s] for s in G.vertices())
                   for x1 in outs for x2 in outs if x1 < x2):
            return False
        if not all(reach[y1] & reach[y2] for y1 in ins for y2 in ins if y1 < y2):
            return False
        if not (ins and outs):
            return True
        usable = {w for w in G.vertices() if owner.get(w, v) == v}
        return all(outs <= bfs_dist(G, a, max_depth=depth, within=usable).keys() for a in ins)

    def assign(idx, owner):
        if idx == len(edge_order):
            if canonical():
                yield from guess_ends(owner)
            return
        e = edge_order[idx]
        u, v = e
        for x, y in host_edges:
            if owner.get(x, u) != u or owner.get(y, v) != v:
                continue
            image[e] = (x, y)
            touched = [w for w in (x, y) if w not in owner]
            owner.setdefault(x, u)
            owner.setdefault(y, v)
            if feasible_partial(u, owner) and feasible_partial(v, owner):
                yield from assign(idx + 1, owner)
            del image[e]
            for w in touched:
                del owner[w]

    def guess_ends(owner):
        need, fixed_source, fixed_sink = [], {}, {}
        for v in sorted(H.vertices()):
            ins = sorted({image[e][1] for e in in_edges[v]})
            outs = sorted({image[e][0] for e in out_edges[v]})
            if ins:
                fixed_source[v] = ins[0]
            elif len(outs) == 1:
                fixed_source[v] = outs[0]
            elif outs:
                need.append(("source", v, outs))
            else:
                need.append(("free", v, None))
            if outs:
                fixed_sink[v] = outs[0]
            elif len(ins) == 1:
                fixed_sink[v] = ins[0]
            elif ins:
                need.append(("sink", v, ins))

        def fill(j, extra):
            if j == len(need):
                source, sink = dict(fixed_source), dict(fixed_sink)
                for (kind, v, _), host_v in zip(need, extra):
                    if kind in ("source", "free"):
                        source[v] = host_v
                    if kind in ("sink", "free"):
                        sink[v] = host_v
                for v in H.vertices():
                    source.setdefault(v, sink.get(v))
                    sink.setdefault(v, source.get(v))
                yield dict(image), source, sink, dict(owner)
                return
            kind, v, anchors = need[j]
            for cand in G.vertices():
                if owner.get(cand, v) != v or cand in extra:
                    continue
                if kind == "source" and not all(b in reach[cand] for b in anchors):
                    continue
                if kind == "sink" and not all(cand in reach[a] for a in anchors):
                    continue
                claimed = cand not in owner
                owner.setdefault(cand, v)
                extra.append(cand)
                yield from fill(j + 1, extra)
                extra.pop()
                if claimed:
                    del owner[cand]

        yield from fill(0, [])

    yield from assign(0, {})


def brute_subgraph(H, G):
    """Permutation-based subgraph containment (not induced)."""
    if H.n > G.n:
        return False
    for perm in itertools.permutations(range(G.n), H.n):
        if all(G.has_edge(perm[u], perm[v]) for (u, v) in H.edges):
            return True
    return False


def brute_topological_minor(H, G):
    """Subdivision oracle: some injective placement of the pattern
    vertices and, per pattern edge, a simple path between the placed
    ends, where no path's inner vertex is placed or inside another path."""
    if H.n > G.n:
        return False
    edges = sorted(H.edges)
    for place in itertools.permutations(range(G.n), H.n):
        cand = [paths_between(G, place[u], place[v]) for u, v in edges]

        def rec(i, used):
            if i == len(edges):
                return True
            return any(
                not used & set(p[1:-1]) and rec(i + 1, used | set(p[1:-1])) for p in cand[i]
            )

        if rec(0, set(place)):
            return True
    return False


def is_tree_like_model(model):
    """True iff every branch has source = sink = r and splits into an in
    side I and an out side O with I & O = {r}: every vertex of I reaches
    r inside I, r reaches every vertex of O inside O, the branch's
    in-heads lie in I and its out-tails in O. Tries every split."""
    H, G = model.pattern, model.host
    for v in H.vertices():
        r = model.source[v]
        bset = set(model.branch[v])
        if model.sink[v] != r or r not in bset:
            return False
        ins = {y for e, (x, y) in model.edge_image.items() if e[1] == v}
        outs = {x for e, (x, y) in model.edge_image.items() if e[0] == v}
        rest = sorted(bset - {r})

        def splits():
            for bits in range(2 ** len(rest)):
                I = {r} | {x for i, x in enumerate(rest) if bits >> i & 1}
                yield I, bset - I | {r}

        if not any(
            ins <= I and outs <= O
            and all(r in _block_reach(G, I, a) for a in I)
            and _block_reach(G, O, r).keys() == O
            for I, O in splits()
        ):
            return False
    return True


def digraph_isomorphic(A, B):
    """Exact isomorphism test by backtracking with degree-profile pruning."""
    if A.n != B.n or A.num_edges() != B.num_edges():
        return False
    prof_a = sorted((A.in_degree(v), A.out_degree(v)) for v in A.vertices())
    prof_b = sorted((B.in_degree(v), B.out_degree(v)) for v in B.vertices())
    if prof_a != prof_b:
        return False
    return next(_injective_maps(A, B, True), None) is not None


def _iso_invariant(G):
    degs = tuple(sorted((G.in_degree(v), G.out_degree(v)) for v in G.vertices()))
    sig = tuple(
        sorted(
            (G.out_degree(u), G.in_degree(u), G.out_degree(v), G.in_degree(v))
            for (u, v) in G.edges
        )
    )
    return (G.n, G.num_edges(), degs, sig)


def butterfly_minor_by_contraction(H, G):
    """Exhaustive test for H obtainable from G by vertex/edge deletions
    and butterfly contractions, with memoization on isomorphism classes
    of intermediate graphs. Desk scale."""
    hn, hm = H.n, H.num_edges()
    seen = {}

    def visit(X):
        key = _iso_invariant(X)
        bucket = seen.setdefault(key, [])
        for Y in bucket:
            if digraph_isomorphic(X, Y):
                return True
        bucket.append(X)
        return False

    def search(X):
        if X.n < hn or X.num_edges() < hm:
            return False
        if visit(X):
            return False
        if X.n == hn and X.num_edges() == hm:
            return digraph_isomorphic(X, H)
        if X.n > hn:
            for v in X.vertices():
                keep = [x for x in X.vertices() if x != v]
                sub, _ = X.induced(keep)
                if search(sub):
                    return True
            for e in legal_butterfly_contractions(X):
                if search(butterfly_contract(X, e)):
                    return True
        if X.num_edges() > hm:
            for e in sorted(X.edges):
                if search(Digraph(X.n, X.edges - {e})):
                    return True
        return False

    return search(G)


# --- scattered sets ------------------------------------------------------------


def common_ancestor_scatter(G, W, d, m, s_budget, probe_cap=14):
    """Set-based reference for compute_scattered's common-ancestor
    search, with in-balls from path enumeration: subsets U of
    the first probe_cap members of sorted W, by increasing size then
    lexicographically; C is the union of the pairwise intersections of
    the members' d-in-balls. The first U with |C| <= s_budget and at
    least m members outside C gives (sorted C, the first m of those);
    None if no subset does. Assumes 1 <= m <= |W|."""
    probe = sorted(set(W))[:probe_cap]
    balls = {u: set(reach_by_paths(G, u, d, reverse=True)) for u in probe}
    for size in range(m, len(probe) + 1):
        for U in itertools.combinations(probe, size):
            C = set()
            for u, u2 in itertools.combinations(U, 2):
                C |= balls[u] & balls[u2]
            rest = [u for u in U if u not in C]
            if len(rest) >= m and len(C) <= s_budget:
                return tuple(sorted(C)), tuple(rest[:m])
    return None


def scattered_by_sweep(G, U, d, deleted=()):
    """is_scattered's former per-vertex sweep: no vertex of G - deleted
    has two members of U in its d-out-ball in G - deleted. Takes valid,
    distinct ids."""
    alive = set(G.vertices()) - set(deleted)
    if not set(U) <= alive:
        return False
    for v in alive:
        if len(set(U) & bfs_dist(G, v, max_depth=d, within=alive).keys()) >= 2:
            return False
    return True


def full_copy_sample(rng, seq, k):
    """SplitMix64.sample's former body: a partial Fisher-Yates shuffle of
    a full copy of seq, drawing from the SplitMix64 `rng`."""
    pool = list(seq)
    if k > len(pool):
        raise ValueError("sample size exceeds population")
    for i in range(k):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def controlled_bipartite_by_table(G, I, r):
    """build_controlled_bipartite's former body, on a table of every
    vertex's out-distances up to r + 1 and two scans of I per vertex.
    Takes an r-scattered I."""
    I = sorted(set(I))
    dist = {v: bfs_dist(G, v, max_depth=r + 1) for v in G.vertices()}

    def base_of(w):
        hits = [u for u in I if dist[w].get(u, r + 2) <= r]
        assert len(hits) <= 1
        return hits[0] if hits else None

    a_nodes, edges, eta, seen = [], set(), {}, set()
    for v in sorted(G.vertices()):
        reach = [u for u in I if u in dist[v]]
        if len(reach) < 2:
            continue
        a_nodes.append(v)
        parents = bfs_dist(G, v, max_depth=r + 1, parents=True)
        for u in reach:
            path = [u]
            while path[-1] != v:
                path.append(parents[path[-1]])
            path.reverse()  # v ... u
            edges.add((v, u))
            eta[(v, u)] = tuple(path[1:])
            seen.update(path[1:])
    seen.update(a_nodes)
    seen.update(I)
    base, level = {}, {}
    for w in seen:
        b = base_of(w)
        base[w] = b
        level[w] = dist[w][b] if b is not None else r + 1
    return ControlledBipartite(a_nodes, I, edges, base, level, eta, r, ground=G)


def controlled_bipartite_lists(cb):
    """ControlledBipartite's former list fill: each A-vertex's successors
    and each B-vertex's predecessors, appended in the order of
    sorted(cb.edges)."""
    succ = {a: [] for a in cb.a_nodes}
    pred = {b: [] for b in cb.b_nodes}
    for (a, b) in sorted(cb.edges):
        succ[a].append(b)
        pred[b].append(a)
    return succ, pred


# --- digraph construction and graph text ---------------------------------------


def adjacency_by_sorting(n, edges):
    """Digraph's former adjacency: (out_adj, in_adj), each vertex's list
    filled from the edge set, then copied by sorted()."""
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in frozenset(map(tuple, edges)):
        out[u].append(v)
        inn[v].append(u)
    return tuple(tuple(sorted(a)) for a in out), tuple(tuple(sorted(a)) for a in inn)


def emit_graph_by_sorted_edges(G, comments=()):
    """emit_graph's former body, writing the edges in sorted(G.edges)
    order."""
    lines = [str(G.n)]
    lines.extend("%d %d" % e for e in sorted(G.edges))
    lines.extend("# %s" % c for c in comments)
    return "\n".join(lines) + "\n"


# --- solver-side predicates, written from the definitions -----------------


def dominates(G, D, d, W):
    covered = set()
    for v in D:
        seen = {v}
        frontier = {v}
        for _ in range(d):
            nxt = set()
            for x in frontier:
                nxt.update(G.successors(x))
            nxt -= seen
            seen |= nxt
            frontier = nxt
        covered |= seen
    return set(W) <= covered


def independent(G, D):
    return not any(
        G.has_edge(a, b) or G.has_edge(b, a) for a, b in itertools.combinations(D, 2)
    )


def has_spanning_outtree(G, D):
    D = set(D)
    if not D:
        return False
    for root in sorted(D):
        seen = {root}
        dq = deque([root])
        while dq:
            v = dq.popleft()
            for w in G.successors(v):
                if w in D and w not in seen:
                    seen.add(w)
                    dq.append(w)
        if seen == D:
            return True
    return False


def oracle_solve(G, variant, k, d=1):
    """Exhaustive solver. Returns (feasible, witness|None); the witness is
    the lexicographically least among minimum-size solutions.

    variants: ds (d-dominating set, size <= k), ids (independent
    dominating, size <= k), dob (dominating set containing a spanning
    out-tree, size <= k), is (independent set of size exactly k).
    """
    vs = sorted(G.vertices())
    allv = set(vs)
    if variant == "is":
        for combo in itertools.combinations(vs, k):
            if independent(G, combo):
                return True, list(combo)
        return False, None
    for size in range(0, k + 1):
        for combo in itertools.combinations(vs, size):
            D = set(combo)
            if variant == "ds":
                if dominates(G, D, d, allv):
                    return True, list(combo)
            elif variant == "ids":
                if dominates(G, D, 1, allv) and independent(G, combo):
                    return True, list(combo)
            elif variant == "dob":
                if dominates(G, D, 1, allv) and has_spanning_outtree(G, D):
                    return True, list(combo)
            else:
                raise ValueError(variant)
    return False, None


def oracle_steiner(G, terminals):
    """Minimum vertex count of an out-tree covering the terminals, by
    subset enumeration; None if impossible."""
    term = set(terminals)
    vs = sorted(G.vertices())
    for size in range(max(1, len(term)), G.n + 1):
        for combo in itertools.combinations(vs, size):
            T = set(combo)
            if not term <= T:
                continue
            for root in sorted(T):
                seen = {root}
                dq = deque([root])
                while dq:
                    v = dq.popleft()
                    for w in G.successors(v):
                        if w in T and w not in seen:
                            seen.add(w)
                            dq.append(w)
                if seen == T:
                    return size
    return None


def undirected_minor_check(H, G):
    """Brute-force undirected minor test: assign each pattern vertex a
    connected branch of host vertices, disjoint across the pattern, with
    every pattern edge realized between its branches."""
    h, n = H.n, G.n
    if h == 0:
        return True
    if h > n:
        return False

    def connected(block):
        block = set(block)
        start = min(block)
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in G.neighbors(v):
                if w in block and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen == block

    order = sorted(
        H.vertices(), key=lambda v: (-len(H.neighbors(v)), v)
    )
    blocks = {}

    def rec(idx, free):
        if idx == h:
            return True
        v = order[idx]
        budget = len(free) - (h - idx - 1)
        for size in range(1, budget + 1):
            for sub in itertools.combinations(free, size):
                if not connected(sub):
                    continue
                ok = True
                for u in order[:idx]:
                    if H.has_edge(u, v) and not any(
                        G.has_edge(x, y) for x in blocks[u] for y in sub
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                blocks[v] = sub
                if rec(idx + 1, [x for x in free if x not in set(sub)]):
                    return True
                del blocks[v]
        return False

    return rec(0, sorted(G.vertices()))


def _branch_reach_by_bfs(G, block, depth):
    """Each member of `block` mapped to the members it reaches inside the
    block by a path of at most `depth` edges (any length when None)."""
    return {
        a: {b for b, d in _block_reach(G, block, a).items() if depth is None or d <= depth}
        for a in sorted(block)
    }


def exhaustive_grad(G, r):
    """Greatest density |E(H)|/|V(H)| over depth-r minors H of G by the
    exhaustive sweep: every family of disjoint nonempty blocks (each
    vertex in one block or in none), and on each family the largest
    number of pattern edges whose images meet every branch-set
    condition. Exponential (about Bell(n+1) families)."""
    if r < 0:
        raise GraphError("depth must be nonnegative")
    best = Fraction(0)
    n = G.n
    blocks = []

    def assign(v):
        nonlocal best
        if v == n:
            if blocks:
                got = _best_density_on_family(G, blocks, r)
                if got is not None:
                    best = max(best, got)
            return
        # leave v out of every branch
        assign(v + 1)
        for b in blocks:
            b.add(v)
            assign(v + 1)
            b.discard(v)
        blocks.append({v})
        assign(v + 1)
        blocks.pop()

    assign(0)
    return best


def _best_density_on_family(G, blocks, r):
    """Largest pattern edge count realizable on the given branch family
    at depth r, divided by the number of blocks; None when not even the
    edgeless pattern fits."""
    p = len(blocks)
    reach = [_branch_reach_by_bfs(G, b, r) for b in blocks]
    pair_cands = []
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            cs = [
                (x, y)
                for x in sorted(blocks[i])
                for y in sorted(blocks[j])
                if G.has_edge(x, y)
            ]
            if cs:
                pair_cands.append((i, j, cs))
    ins = [set() for _ in range(p)]
    outs = [set() for _ in range(p)]
    best_cnt = -1

    def unlinked(i):
        return any(b not in reach[i][a] for a in ins[i] for b in outs[i])

    def ends_exist():
        return all(
            (ins[i] or any(outs[i] <= reach[i][c] for c in reach[i]))
            and (outs[i] or any(all(c in reach[i][a] for a in ins[i]) for c in reach[i]))
            for i in range(p)
        )

    def rec(idx, cnt):
        nonlocal best_cnt
        if cnt + (len(pair_cands) - idx) <= best_cnt:
            return
        if idx == len(pair_cands):
            if ends_exist():
                best_cnt = max(best_cnt, cnt)
            return
        i, j, cs = pair_cands[idx]
        for (x, y) in cs:
            added_out = x not in outs[i]
            added_in = y not in ins[j]
            outs[i].add(x)
            ins[j].add(y)
            if not unlinked(i) and not unlinked(j):
                rec(idx + 1, cnt + 1)
            if added_out:
                outs[i].discard(x)
            if added_in:
                ins[j].discard(y)
        rec(idx + 1, cnt)

    rec(0, 0)
    if best_cnt < 0:
        return None
    return Fraction(best_cnt, p)


def densest_subgraph_by_subsets(G):
    """The largest |E(G[S])|/|S| over every nonempty vertex set S (0 on
    the empty graph), by trying all 2^n - 1 of them."""
    best = Fraction(0)
    for size in range(1, G.n + 1):
        for S in itertools.combinations(range(G.n), size):
            inside = set(S)
            e = sum(1 for u, v in G.edges if u in inside and v in inside)
            best = max(best, Fraction(e, size))
    return best


# ---------------------------------------------------------------------------
# helpers that only tests call


def is_directed_path(G, seq):
    """True iff seq is a directed path of G (distinct vertices, each
    consecutive pair an edge)."""
    if len(seq) != len(set(seq)):
        return False
    for v in seq:
        if not (0 <= v < G.n):
            return False
    return all(G.has_edge(a, b) for a, b in zip(seq, seq[1:]))


def crown_source_id(q, i, j):
    """Vertex id of u_{i,j} in crown(q), principals numbered 0..q-1."""
    if not (0 <= i < j < q):
        raise GraphError("need 0 <= i < j < q")
    return q + i * q - i * (i + 1) // 2 + (j - i - 1)


def wideness_threshold(r, m, exclusion_order):
    """Required set size N(r, m) for the iterated dichotomy, given the
    excluded crown order per depth as a callable."""
    val = m
    for i in range(r - 1, -1, -1):
        val = dichotomy_threshold(r, val, exclusion_order(i))
    return val


def deletion_budget(r, exclusion_order):
    """Total deletions s(r) across the iterated dichotomy."""
    return sum(math.comb(exclusion_order(i), 2) for i in range(r))
