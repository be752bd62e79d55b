"""Instance generation for the benchmark, independent of the library's
own random generators.

Each host is a pure function of its spec (family, size, density and a
per-instance seed) through Python's ``random.Random``; the library only
receives the finished vertex count and edge list. The scatter workload
is the exception by design: its queries call the library generators
themselves, because that construction cost is what the workload
measures.
"""

import random


def random_dag_edges(n, p, seed):
    """Edges of a random DAG: each forward pair of a hidden order kept
    with probability p, then vertex ids shuffled."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[u], perm[v]) for u, v in edges)


def random_digraph_edges(n, p, seed):
    """Edges of a random digraph: each ordered pair kept with
    probability p (both directions may appear)."""
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


def crown_edges(q):
    """Crown of order q: sinks 0..q-1, one source per pair i < j, in the
    library's id order (sources from q on, pairs lexicographic)."""
    edges, nxt = [], q
    for i in range(q):
        for j in range(i + 1, q):
            edges += [(nxt, i), (nxt, j)]
            nxt += 1
    return nxt, edges


def alternating_path_edges(k):
    """Path on k+2 vertices whose edges all point toward the endpoint of
    odd 1-based index, so the direction flips at every inner vertex."""
    edges = []
    for a in range(k + 1):
        b = a + 1
        edges.append((a, b) if (b + 1) % 2 == 1 else (b, a))
    return k + 2, edges


def pattern_edges(name):
    """Vertex count and edges of a pattern named like 'crown(3)' or
    'alt(2)'."""
    kind, arg = name.rstrip(")").split("(")
    if kind == "crown":
        return crown_edges(int(arg))
    if kind == "alt":
        return alternating_path_edges(int(arg))
    raise ValueError("unknown pattern %r" % name)


def host_edges(spec):
    """Vertex count and edge list of a benchmark-generated host spec."""
    fam, n = spec["family"], spec["n"]
    if fam == "dag":
        return n, random_dag_edges(n, spec["p"], spec["seed"])
    if fam == "digraph":
        return n, random_digraph_edges(n, spec["p"], spec["seed"])
    raise ValueError("unknown host family %r" % fam)
