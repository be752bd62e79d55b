"""Line-delimited witness documents.

Every document carries its kind, echoed parameters, a payload with a
fixed field order (diffable), and a verification status recomputed at
emit time. Parsing re-verifies against the graphs in context, so a
tampered document fails to load.
"""

from .generators import crown
from .minors import DirectedModel, verify_model
from .quasiwide import ScatteredWitness
from .solvers import verify_dominating, verify_independent, verify_outbranching

KINDS = ("model", "scattered", "dominating", "outbranching", "independent", "crown")


class WitnessFormatError(ValueError):
    pass


def _ids(vals):
    return " ".join(str(v) for v in vals)


def emit_model(model, kind="model", params=()):
    lines = ["kind %s" % kind]
    for key, val in params:
        lines.append("param %s %s" % (key, val))
    lines.append("depth %s" % ("none" if model.depth is None else model.depth))
    for v in sorted(model.branch):
        lines.append("branch %d: %s" % (v, _ids(sorted(model.branch[v]))))
    for e in sorted(model.edge_image):
        x, y = model.edge_image[e]
        lines.append("edge %d %d: %d %d" % (e[0], e[1], x, y))
    for v in sorted(model.source):
        lines.append("source %d %d" % (v, model.source[v]))
    for v in sorted(model.sink):
        lines.append("sink %d %d" % (v, model.sink[v]))
    ok, _ = verify_model(model)
    lines.append("verified %s" % ("true" if ok else "false"))
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_scattered(w):
    lines = [
        "kind scattered",
        "d %d" % w.radius,
        "S: %s" % _ids(w.deleted),
        "U: %s" % _ids(w.members),
        "verified %s" % ("true" if w.verify() else "false"),
        "end",
    ]
    return "\n".join(lines) + "\n"


def emit_vertex_set(kind, G, vertices, d=None):
    if kind == "dominating":
        ok = verify_dominating(G, vertices, d if d else 1)
    elif kind == "independent":
        ok = verify_independent(G, vertices)
    else:
        raise WitnessFormatError("unknown vertex-set kind %r" % kind)
    lines = ["kind %s" % kind]
    if d is not None:
        lines.append("d %d" % d)
    lines.append("D: %s" % _ids(vertices))
    lines.append("verified %s" % ("true" if ok else "false"))
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_outbranching(G, vertices, parent):
    ok = verify_outbranching(G, vertices, parent) and verify_dominating(G, vertices, 1)
    lines = ["kind outbranching", "D: %s" % _ids(sorted(vertices))]
    for v in sorted(parent):
        p = parent[v]
        lines.append("parent %d %s" % (v, "none" if p is None else p))
    lines.append("verified %s" % ("true" if ok else "false"))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _fields(text):
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            out.append(line)
    if not out or out[-1] != "end":
        raise WitnessFormatError("document not terminated")
    return out[:-1]


def parse_witness(text, host=None, pattern=None):
    """Parse and re-verify a witness document. Model kinds need the host
    (and, for kind `model`, the pattern) graph; a crown document rebuilds
    its pattern from its order parameter. Raises WitnessFormatError when
    a line is malformed, an id lies outside the graph, a vertex list
    names a vertex twice, two lines set one field (a second `d` line,
    or two `branch` lines for one vertex), or the payload does not
    verify (an out-branching must also dominate the graph)."""
    lines = _fields(text)
    if not lines or not lines[0].startswith("kind "):
        raise WitnessFormatError("missing kind header")
    kind = lines[0].split()[1]
    if kind not in KINDS:
        raise WitnessFormatError("unknown kind %r" % kind)
    body = lines[1:]
    try:
        if kind in ("model", "crown"):
            return _parse_model(body, kind, host, pattern)
        if kind == "scattered":
            return _parse_scattered(body, host)
        if kind == "outbranching":
            return _parse_outbranching(body, host)
        return _parse_vertex_set(body, kind, host)
    except WitnessFormatError:
        raise
    except ValueError as err:
        # int() of a non-integer field, a line with too many or too few
        # fields, or a GraphError for an id outside the graph
        raise WitnessFormatError("invalid document: %s" % err) from err


def _split_ids(payload):
    payload = payload.strip()
    return tuple(int(x) for x in payload.split()) if payload else ()


def _distinct_ids(payload):
    """_split_ids for a vertex list, which names each vertex once."""
    ids = _split_ids(payload)
    if len(set(ids)) != len(ids):
        raise WitnessFormatError("repeated vertex id in %r" % payload.strip())
    return ids


def _once(table, key, val, line):
    """table[key] = val for a line that may set its field only once."""
    if key in table:
        raise WitnessFormatError("repeated field in line %r" % line)
    table[key] = val


def _parse_model(body, kind, host, pattern):
    if host is None:
        raise WitnessFormatError("model documents need a host graph")
    fields = {}
    params = {}
    branch, image, source, sink = {}, {}, {}, {}
    for line in body:
        if line.startswith("param "):
            _, key, val = line.split(None, 2)
            _once(params, key, val, line)
        elif line.startswith("depth "):
            val = line.split()[1]
            _once(fields, "depth", None if val == "none" else int(val), line)
        elif line.startswith("branch "):
            head, payload = line.split(":", 1)
            v = int(head.split()[1])
            _once(branch, v, frozenset(_distinct_ids(payload)), line)
        elif line.startswith("edge "):
            head, payload = line.split(":", 1)
            _, u, v = head.split()
            x, y = _split_ids(payload)
            _once(image, (int(u), int(v)), (x, y), line)
        elif line.startswith("source "):
            _, v, s = line.split()
            _once(source, int(v), int(s), line)
        elif line.startswith("sink "):
            _, v, t = line.split()
            _once(sink, int(v), int(t), line)
        elif line.startswith("verified"):
            pass
        else:
            raise WitnessFormatError("unexpected line %r" % line)
    if kind == "crown":
        order = int(params.get("order", 0))
        if order < 1:
            raise WitnessFormatError("crown document lacks its order")
        pattern, _ = crown(order)
    if pattern is None:
        raise WitnessFormatError("model documents need a pattern graph")
    model = DirectedModel(host, pattern, branch, image, source, sink, fields.get("depth"))
    ok, bad = verify_model(model)
    if not ok:
        raise WitnessFormatError("model does not verify: %s" % "; ".join(bad))
    return model


def _parse_scattered(body, host):
    if host is None:
        raise WitnessFormatError("scattered documents need the graph")
    fields = {}
    for line in body:
        if line.startswith("d "):
            _once(fields, "d", int(line.split()[1]), line)
        elif line.startswith("S:"):
            _once(fields, "S", _distinct_ids(line[2:]), line)
        elif line.startswith("U:"):
            _once(fields, "U", _distinct_ids(line[2:]), line)
        elif line.startswith("verified"):
            pass
        else:
            raise WitnessFormatError("unexpected line %r" % line)
    if fields.keys() != {"d", "S", "U"}:
        raise WitnessFormatError("incomplete scattered document")
    w = ScatteredWitness(host, fields["S"], fields["U"], fields["d"])
    if not w.verify():
        raise WitnessFormatError("scattered witness does not verify")
    return w


def _parse_vertex_set(body, kind, host):
    if host is None:
        raise WitnessFormatError("vertex-set documents need the graph")
    fields = {}
    for line in body:
        if line.startswith("d "):
            _once(fields, "d", int(line.split()[1]), line)
        elif line.startswith("D:"):
            _once(fields, "D", _distinct_ids(line[2:]), line)
        elif line.startswith("verified"):
            pass
        else:
            raise WitnessFormatError("unexpected line %r" % line)
    if "D" not in fields:
        raise WitnessFormatError("incomplete document")
    D, d = fields["D"], fields.get("d")
    if kind == "dominating":
        if not verify_dominating(host, D, d if d else 1):
            raise WitnessFormatError("dominating witness does not verify")
    else:
        if not verify_independent(host, D):
            raise WitnessFormatError("independent witness does not verify")
    return D


def _parse_outbranching(body, host):
    if host is None:
        raise WitnessFormatError("outbranching documents need the graph")
    fields = {}
    parent = {}
    for line in body:
        if line.startswith("D:"):
            _once(fields, "D", _distinct_ids(line[2:]), line)
        elif line.startswith("parent "):
            _, v, p = line.split()
            _once(parent, int(v), None if p == "none" else int(p), line)
        elif line.startswith("verified"):
            pass
        else:
            raise WitnessFormatError("unexpected line %r" % line)
    if "D" not in fields:
        raise WitnessFormatError("incomplete document")
    D = fields["D"]
    if not verify_outbranching(host, D, parent):
        raise WitnessFormatError("outbranching witness does not verify")
    if not verify_dominating(host, D, 1):
        raise WitnessFormatError("outbranching witness does not dominate")
    return D, parent
