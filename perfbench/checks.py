"""Independent answer checks, written from the definitions.

Nothing here calls the library: every predicate works on plain edge
sets and adjacency lists built from ``G.n`` and ``G.edges``, and every
vertex id in a witness is range-checked before it is used (the
library's own ``is_scattered``, ``verify_independent`` and
``verify_outbranching`` do not range-check). Each check returns a list
of problems; an empty list means the answer holds.
"""

from collections import deque


class Host:
    """Adjacency view of a digraph, built only from its vertex count and
    edge set."""

    def __init__(self, G):
        self.n = G.n
        self.edges = frozenset(G.edges)
        self.out = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.out[u].append(v)


def _host(G):
    return G if isinstance(G, Host) else Host(G)


def _bad_ids(h, ids, what):
    bad = [v for v in ids if not (isinstance(v, int) and 0 <= v < h.n)]
    return ["%s: vertex id %r out of range (n=%d)" % (what, v, h.n) for v in bad]


def _dist(h, src, allowed=None, limit=None, dead=frozenset()):
    """BFS distances from src, moving only through `allowed` (all
    vertices when None) and never through `dead`, up to `limit` steps."""
    if src in dead or (allowed is not None and src not in allowed):
        return {}
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if limit is not None and dist[v] >= limit:
            continue
        for w in h.out[v]:
            if w not in dist and w not in dead and (allowed is None or w in allowed):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def check_model(pattern, G, branch, edge_image, depth=None):
    """A directed model of `pattern` in G: nonempty disjoint branch sets,
    each pattern edge mapped to a host edge between the right branches,
    and inside every branch each entry vertex reaches each exit vertex,
    some vertex reaches all exits and some vertex is reached from all
    entries, within `depth` steps when a depth is given."""
    h, p = _host(G), _host(pattern)
    problems = []
    owner = {}
    for v in range(p.n):
        bset = branch.get(v)
        if not bset:
            problems.append("branch %d empty or missing" % v)
            continue
        problems += _bad_ids(h, bset, "branch %d" % v)
        for x in bset:
            if owner.setdefault(x, v) != v:
                problems.append("vertex %r in branches %d and %d" % (x, owner[x], v))
    extra = set(branch) - set(range(p.n))
    if extra:
        problems.append("branches for non-pattern vertices %s" % sorted(extra))
    if problems:
        return problems
    ins = {v: set() for v in range(p.n)}
    outs = {v: set() for v in range(p.n)}
    for e in sorted(p.edges):
        img = edge_image.get(e)
        if img is None or len(img) != 2:
            problems.append("pattern edge %s has no image" % (e,))
            continue
        x, y = img
        if (x, y) not in h.edges:
            problems.append("image %s of %s is not a host edge" % (img, e))
        elif owner.get(x) != e[0] or owner.get(y) != e[1]:
            problems.append("image %s of %s leaves its branches" % (img, e))
        else:
            outs[e[0]].add(x)
            ins[e[1]].add(y)
    if problems:
        return problems
    for v in range(p.n):
        bset = set(branch[v])
        dist = {a: _dist(h, a, allowed=bset, limit=depth) for a in bset}
        for a in ins[v]:
            for b in outs[v]:
                if b not in dist[a]:
                    problems.append("branch %d: %d does not reach %d" % (v, a, b))
        if not any(all(b in dist[c] for b in outs[v]) for c in bset):
            problems.append("branch %d has no source" % v)
        if not any(all(c in dist[a] for a in ins[v]) for c in bset):
            problems.append("branch %d has no sink" % v)
    return problems


def check_scattered(G, members, radius, deleted=(), size=None, within=None):
    """`members` is radius-scattered in G - deleted: distinct, in range,
    disjoint from the deletions, and no surviving vertex reaches two of
    them within `radius` steps. Optionally |members| == size, members a
    subset of `within` and |deleted| bounded by the caller."""
    h = _host(G)
    members, deleted = list(members), list(deleted)
    problems = _bad_ids(h, members, "members") + _bad_ids(h, deleted, "deleted")
    if problems:
        return problems
    if len(set(members)) != len(members):
        problems.append("members repeat")
    if size is not None and len(members) != size:
        problems.append("%d members, expected %d" % (len(members), size))
    if within is not None and not set(members) <= set(within):
        problems.append("members outside the candidate set")
    dead = frozenset(deleted)
    if dead & set(members):
        problems.append("a member is deleted")
    if problems:
        return problems
    mset = set(members)
    for v in range(h.n):
        if v in dead:
            continue
        hit = mset.intersection(_dist(h, v, limit=radius, dead=dead))
        if len(hit) >= 2:
            return ["vertex %d reaches members %s within %d" % (v, sorted(hit)[:2], radius)]
    return []


def _dominated(h, D, d):
    covered = set()
    for v in D:
        covered.update(_dist(h, v, limit=d))
    return covered


def check_dominating(G, D, k, d=1, independent=False):
    """|D| <= k, ids in range and distinct, every vertex within distance
    d of D, and, when asked, no edge inside D."""
    h = _host(G)
    D = list(D)
    problems = _bad_ids(h, D, "dominating set")
    if problems:
        return problems
    if len(set(D)) != len(D):
        problems.append("dominating set repeats a vertex")
    if len(D) > k:
        problems.append("dominating set has %d > k=%d vertices" % (len(D), k))
    missed = set(range(h.n)) - _dominated(h, D, d)
    if missed:
        problems.append("vertices %s not dominated" % sorted(missed)[:5])
    if independent:
        problems += check_independent(h, D, len(D))
    return problems


def check_independent(G, D, k):
    """Exactly k distinct in-range vertices with no edge between any two."""
    h = _host(G)
    D = list(D)
    problems = _bad_ids(h, D, "independent set")
    if problems:
        return problems
    if len(set(D)) != len(D) or len(D) != k:
        problems.append("independent set of size %d, expected %d distinct" % (len(D), k))
    dset = set(D)
    for u in dset:
        for w in h.out[u]:
            if w in dset:
                problems.append("edge %d -> %d inside the set" % (u, w))
    return problems


def check_outbranching(G, D, parent, k):
    """D (at most k vertices) spans an out-tree given by `parent` (one
    root mapped to None, every other vertex to a D-parent over a host
    edge, no cycles) and dominates every vertex."""
    h = _host(G)
    D = list(D)
    problems = _bad_ids(h, D, "out-branching") + _bad_ids(
        h, [p for p in parent.values() if p is not None], "parent")
    if problems:
        return problems
    dset = set(D)
    if len(dset) != len(D) or not dset:
        problems.append("out-branching vertices repeat or are empty")
    if len(D) > k:
        problems.append("out-branching has %d > k=%d vertices" % (len(D), k))
    if set(parent) != dset:
        problems.append("parent map does not cover exactly the vertices")
        return problems
    roots = [v for v in D if parent[v] is None]
    if len(roots) != 1:
        return problems + ["%d roots" % len(roots)]
    for v in D:
        p = parent[v]
        if p is not None and (p not in dset or (p, v) not in h.edges):
            problems.append("parent %r of %d is not an in-neighbour in the set" % (p, v))
    for v in D:
        seen = set()
        while v is not None and v not in seen:
            seen.add(v)
            v = parent.get(v)
        if v is not None:
            problems.append("parent map has a cycle")
            break
    missed = set(range(h.n)) - _dominated(h, D, 1)
    if missed:
        problems.append("vertices %s not dominated" % sorted(missed)[:5])
    return problems


def parse_graph_text(text):
    """Vertex count and edge list of the graph text format, parsed here
    without the library (comments after '#', first line n)."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or len(rows[0]) != 1:
        raise ValueError("missing vertex count")
    n = int(rows[0][0])
    edges = set()
    for r in rows[1:]:
        if len(r) != 2:
            raise ValueError("bad edge line %r" % r)
        u, v = int(r[0]), int(r[1])
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError("bad edge %d %d" % (u, v))
        edges.add((u, v))
    return n, edges
