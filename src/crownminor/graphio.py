"""Text format for digraphs.

First non-comment line holds the vertex count n, then one `u v` pair per
line (0-based, whitespace-separated). Anything after `#` is a comment.
Serialization is deterministic: edges sorted lexicographically, then one
`# ` line per line of each comment. Files are UTF-8.

One rule decides whether a text is a graph: with comments cut off, its
first non-blank line holds one integer n, every later non-blank line
holds two, and those pairs are the distinct edges of a `Digraph` on n
vertices. `parse_graph` checks it in one bulk pass over the whole text,
and `Digraph` makes the only range and self-loop checks. A line-by-line
pass runs only on a text that the rule rejects, and only to word the
error: it names the first bad line.
"""

from .digraph import Digraph


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the 1-based line number."""


def parse_graph(text):
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
        text = "\n".join(lines)
    if _has_graph_shape(lines):
        try:
            # every line break is whitespace to split(), so these are
            # the fields of the lines in order
            ids = list(map(int, text.split()))
            pairs = iter(ids)
            G = Digraph(next(pairs), zip(pairs, pairs))
        except ValueError:  # a GraphError is one too
            pass
        else:
            # a repeated pair is counted once in G.edges
            if 2 * G.num_edges() + 1 == len(ids):
                return G
    raise GraphFormatError(_first_error(lines))


def _has_graph_shape(lines):
    """Whether the first non-blank line holds one field and every later
    non-blank line two. The field counts are dropped on return, before
    parse_graph builds the host: holding them meanwhile cost about 15%
    of the parse of a 40,000-edge text."""
    shape = list(map(len, map(str.split, lines)))
    head = next((i for i, size in enumerate(shape) if size), None)
    return head is not None and shape[head] == 1 and set(shape[head + 1:]) <= {0, 2}


def _first_error(lines):
    """The message for the first bad line of a rejected text, given as
    its lines with comments cut off."""
    n = None
    edges = set()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if len(fields) == 2 and n is not None:
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                return "line %d: edge endpoints must be integers" % lineno
            if not (0 <= u < n and 0 <= v < n):
                return "line %d: vertex id out of range (n=%d)" % (lineno, n)
            if u == v:
                return "line %d: self-loop at vertex %d" % (lineno, u)
            if (u, v) in edges:
                return "line %d: duplicate edge (%d, %d)" % (lineno, u, v)
            edges.add((u, v))
            continue
        if not fields:
            continue
        if n is not None:
            return "line %d: expected `u v` edge pair" % lineno
        if len(fields) != 1:
            return "line %d: expected vertex count" % lineno
        try:
            n = int(fields[0])
        except ValueError:
            return "line %d: vertex count is not an integer" % lineno
        if n < 0:
            return "line %d: vertex count must be nonnegative" % lineno
    if n is None:
        return "line 1: missing vertex count"
    raise RuntimeError("internal: a rejected graph text has no bad line")


def emit_graph(G, comments=()):
    lines = [str(G.n)]
    # out_adj lists each vertex's successors in ascending order, so this
    # is the edges in lexicographic order
    lines.extend("%d %d" % (u, v) for u, succ in enumerate(G.out_adj) for v in succ)
    # a comment holding a line break becomes one `# ` line per line, split
    # as parse_graph splits the text; an empty one is a bare `# ` line
    lines.extend("# " + line for c in comments for line in c.splitlines() or [""])
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
