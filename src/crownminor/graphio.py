"""Text format for digraphs.

First non-comment line holds the vertex count n, then one `u v` pair per
line (0-based, whitespace-separated). Anything after `#` is a comment.
Serialization is deterministic: edges sorted lexicographically. Files
are UTF-8.
"""

from .digraph import Digraph


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the 1-based line number."""


def parse_graph(text):
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        fields = raw.split()
        # edge lines are nearly all of a file, so they are tested first
        if len(fields) == 2 and n is not None:
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError("line %d: edge endpoints must be integers" % lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError("line %d: vertex id out of range (n=%d)" % (lineno, n))
            if u == v:
                raise GraphFormatError("line %d: self-loop at vertex %d" % (lineno, u))
            size = len(edges)
            edges.add((u, v))
            if len(edges) == size:
                raise GraphFormatError("line %d: duplicate edge (%d, %d)" % (lineno, u, v))
            continue
        if not fields:
            continue
        if n is not None:
            raise GraphFormatError("line %d: expected `u v` edge pair" % lineno)
        if len(fields) != 1:
            raise GraphFormatError("line %d: expected vertex count" % lineno)
        try:
            n = int(fields[0])
        except ValueError:
            raise GraphFormatError("line %d: vertex count is not an integer" % lineno) from None
        if n < 0:
            raise GraphFormatError("line %d: vertex count must be nonnegative" % lineno)
    if n is None:
        raise GraphFormatError("line 1: missing vertex count")
    return Digraph(n, edges)


def emit_graph(G, comments=()):
    lines = [str(G.n)]
    # out_adj lists each vertex's successors in ascending order, so this
    # is the edges in lexicographic order
    lines.extend("%d %d" % (u, v) for u, succ in enumerate(G.out_adj) for v in succ)
    lines.extend("# %s" % c for c in comments)
    return "\n".join(lines) + "\n"


def load_graph(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise GraphFormatError("line %d: not UTF-8 text" % lineno) from None
    return parse_graph(text)


def save_graph(path, G, comments=()):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_graph(G, comments))
