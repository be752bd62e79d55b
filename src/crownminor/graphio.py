"""Text format for digraphs.

First non-comment line holds the vertex count n, then one `u v` pair per
line (0-based, whitespace-separated). Anything after `#` is a comment.
Serialization is deterministic: edges sorted lexicographically.
"""

from .digraph import Digraph


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the 1-based line number."""


def parse_graph(text):
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError("line %d: expected vertex count" % lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphFormatError("line %d: vertex count is not an integer" % lineno) from None
            if n < 0:
                raise GraphFormatError("line %d: vertex count must be nonnegative" % lineno)
            continue
        if len(fields) != 2:
            raise GraphFormatError("line %d: expected `u v` edge pair" % lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError("line %d: edge endpoints must be integers" % lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError("line %d: vertex id out of range (n=%d)" % (lineno, n))
        if u == v:
            raise GraphFormatError("line %d: self-loop at vertex %d" % (lineno, u))
        if (u, v) in edges:
            raise GraphFormatError("line %d: duplicate edge (%d, %d)" % (lineno, u, v))
        edges.add((u, v))
    if n is None:
        raise GraphFormatError("line 1: missing vertex count")
    return Digraph(n, edges)


def emit_graph(G, comments=()):
    lines = [str(G.n)]
    lines.extend("%d %d" % e for e in sorted(G.edges))
    lines.extend("# %s" % c for c in comments)
    return "\n".join(lines) + "\n"


def load_graph(path):
    with open(path) as fh:
        return parse_graph(fh.read())


def save_graph(path, G, comments=()):
    with open(path, "w") as fh:
        fh.write(emit_graph(G, comments))
