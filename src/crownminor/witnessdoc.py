"""Line-delimited witness documents.

Every document carries its kind, echoed parameters, a payload with a
fixed field order (diffable), and a verification status recomputed at
emit time. Parsing re-verifies against the graphs in context, so a
tampered document fails to load.

A document is a `kind <kind>` line, field lines and an `end` line.
Every field line has one shape, `key word... [: id...]`. FIELDS gives
each kind's keys, and for each key the words that name the field (a
second line with the same key and name repeats the field) and either
the one word of its value or, after a colon, an id list. The emitters
write their lines through this table, and `parse_witness` reads them
back through it. The reader ignores blank lines and the spacing
between words, and nothing else: it rejects a key the kind does not
have, a wrong number of words, a missing or stray colon, a number not
written as `%d` writes it, an id named twice in one list and a
repeated field.

Every check lives in `verify`, so reading a document back loads no
engine module. `_set_problem` is the acceptance rule of the vertex-set
kinds, for the emitters' `verified` line and the reader's error alike.
"""

from .verify import (
    DirectedModel, ScatteredWitness, crown, verify_dominating, verify_independent, verify_model,
    verify_outbranching,
)


class WitnessFormatError(ValueError):
    pass


def _int(word):
    value = int(word)
    if "%d" % value != word:
        raise WitnessFormatError("not a plain integer: %r" % word)
    return value


def _opt(word):
    return None if word == "none" else _int(word)


def _flag(key):
    """The parser of the true-or-false field `key`."""
    def parse(word):
        if word not in ("true", "false"):
            raise WitnessFormatError("%s is true or false, not %r" % (key, word))
        return word == "true"
    return parse


def _ids(text):
    ids = tuple(_int(w) for w in text.split())
    if len(set(ids)) != len(ids):
        raise WitnessFormatError("repeated vertex id in %r" % text.strip())
    return ids


# kind -> key -> (a parser per word that names the field, the parser of
# its value). The value is one word, or the id list after a colon when
# its parser is _ids. Every kind also has a `verified` line.
_SET = {"D": ((), _ids)}
FIELDS = {
    "model": {"param": ((str,), str), "depth": ((), _opt), "branch": ((_int,), _ids),
              "edge": ((_int, _int), _ids), "source": ((_int,), _int),
              "sink": ((_int,), _int)},
    "scattered": {"d": ((), _int), "S": ((), _ids), "U": ((), _ids)},
    "dominating": {"d": ((), _int), **_SET, "independent": ((), _flag("independent"))},
    "outbranching": {**_SET, "parent": ((_int,), _opt)},
    "independent": {"d": ((), _int), **_SET},
}
FIELDS["crown"] = FIELDS["model"]
FIELDS = {kind: {**keys, "verified": ((), _flag("verified"))} for kind, keys in FIELDS.items()}


def _line(kind, key, *words):
    """One line of a `kind` document; the last word is the id list when
    FIELDS gives `key` one."""
    if key not in FIELDS[kind]:
        raise WitnessFormatError("%s documents have no %s line" % (kind, key))
    listed = FIELDS[kind][key][1] is _ids
    if listed:
        words, ids = words[:-1], words[-1]
    head = " ".join(["none" if w is None else str(w) for w in (key,) + words])
    return "%s: %s" % (head, " ".join(str(v) for v in ids)) if listed else head


def _document(kind, ok, lines):
    if kind not in FIELDS:
        raise WitnessFormatError("unknown kind %r" % kind)
    body = [_line(kind, *line) for line in lines + [("verified", "true" if ok else "false")]]
    return "\n".join(["kind " + kind] + body + ["end"]) + "\n"


def emit_model(model, kind="model", params=()):
    lines = [("param", key, val) for key, val in params] + [("depth", model.depth)]
    lines += [("branch", v, sorted(model.branch[v])) for v in sorted(model.branch)]
    lines += [("edge", *e, model.edge_image[e]) for e in sorted(model.edge_image)]
    lines += [("source", v, model.source[v]) for v in sorted(model.source)]
    lines += [("sink", v, model.sink[v]) for v in sorted(model.sink)]
    return _document(kind, verify_model(model)[0], lines)


def emit_scattered(w):
    return _document("scattered", w.verify(), [("d", w.radius), ("S", w.deleted), ("U", w.members)])


def _set_problem(kind, G, D, d=1, independent=False, parent=None):
    """Why the vertex set D of a `kind` document fails against G, or None:
    a dominating set dominates within d (and is independent if flagged),
    an independent set has no member within distance d of another, and
    an out-branching is a tree under parent that dominates G too."""
    if kind == "outbranching":
        if not verify_outbranching(G, D, parent):
            return "outbranching witness does not verify"
        if not verify_dominating(G, D, 1):
            return "outbranching witness does not dominate"
    elif kind == "dominating":
        if d < 0 or not verify_dominating(G, D, d):
            return "dominating witness does not verify at d = %d" % d
        if independent and not verify_independent(G, D):
            return "dominating witness is not independent"
    elif d < 0 or not verify_independent(G, D, d):
        return "independent witness does not verify"
    return None


def emit_vertex_set(kind, G, vertices, d=None, independent=False):
    """A dominating or independent document; a `d` line when d is given,
    and for a dominating set an `independent true` line if independent."""
    if kind not in ("dominating", "independent"):
        raise WitnessFormatError("unknown vertex-set kind %r" % kind)
    ok = _set_problem(kind, G, vertices, 1 if d is None else d, independent) is None
    lines = ([] if d is None else [("d", d)]) + [("D", vertices)]
    return _document(kind, ok, lines + ([("independent", "true")] if independent else []))


def emit_outbranching(G, vertices, parent):
    ok = _set_problem("outbranching", G, vertices, parent=parent) is None
    lines = [("D", sorted(vertices))] + [("parent", v, parent[v]) for v in sorted(parent)]
    return _document("outbranching", ok, lines)


def _read(text):
    """(kind, fields) of a document, where fields[key] maps each field's
    name (its one name word, else the tuple of them) to its value."""
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines or lines[-1] != "end":
        raise WitnessFormatError("document not terminated")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "kind":
        raise WitnessFormatError("missing or malformed kind header %r" % lines[0])
    kind = head[1]
    if kind not in FIELDS:
        raise WitnessFormatError("unknown kind %r" % kind)
    fields = {key: {} for key in FIELDS[kind]}
    for line in lines[1:-1]:
        text, colon, ids = line.partition(":")
        words = text.split()
        if not words or words[0] not in fields:
            raise WitnessFormatError("unexpected line %r" % line)
        names, value = FIELDS[kind][words[0]]
        if value is _ids:
            words.append(ids)
        if bool(colon) != (value is _ids) or len(words) != len(names) + 2:
            raise WitnessFormatError("malformed line %r" % line)
        name = tuple(parse(w) for parse, w in zip(names, words[1:]))
        name = name[0] if len(name) == 1 else name
        if name in fields[words[0]]:
            raise WitnessFormatError("repeated field in line %r" % line)
        fields[words[0]][name] = value(words[-1])
    return kind, fields


def _need(kind, fields, *keys):
    """The values of the unnamed fields `keys`, which must all be set."""
    for key in keys:
        if () not in fields[key]:
            raise WitnessFormatError("incomplete %s document: no %s line" % (kind, key))
    return [fields[key][()] for key in keys]


def parse_witness(text, host=None, pattern=None):
    """Parse and re-verify a witness document. Model kinds need the host
    (and, for kind `model`, the pattern) graph; a crown document rebuilds
    its pattern from its order parameter. Raises WitnessFormatError when
    a line breaks the grammar above, an id lies outside the graph, a
    vertex list names a vertex twice, two lines set one field (a second
    `d` line, or two `branch` lines for one vertex), or the payload does
    not verify (for the vertex-set kinds, by `_set_problem`)."""
    try:
        kind, fields = _read(text)
        if host is None:
            raise WitnessFormatError("%s documents need the graph" % kind)
        if kind in ("model", "crown"):
            return _model(kind, fields, host, pattern)
        if kind == "scattered":
            w = ScatteredWitness(host, *_need(kind, fields, "S", "U", "d"))
            if not w.verify():
                raise WitnessFormatError("scattered witness does not verify")
            return w
        (D,) = _need(kind, fields, "D")
        given = {key: fields[key][()] for key in ("d", "independent") if () in fields.get(key, {})}
        problem = _set_problem(kind, host, D, parent=fields.get("parent"), **given)
        if problem:
            raise WitnessFormatError(problem)
        return (D, fields["parent"]) if kind == "outbranching" else D
    except WitnessFormatError:
        raise
    except ValueError as err:
        # int() of a non-integer word, or a GraphError for an id outside the graph
        raise WitnessFormatError("invalid document: %s" % err) from err


def _model(kind, fields, host, pattern):
    if kind == "crown":
        order = _int(fields["param"].get("order", "0"))
        if order < 1 or order * (order + 1) // 2 > host.n:
            raise WitnessFormatError("crown document lacks an order that fits the host")
        pattern, _ = crown(order)
    if pattern is None:
        raise WitnessFormatError("model documents need a pattern graph")
    image = fields["edge"]
    if any(len(xy) != 2 for xy in image.values()):
        raise WitnessFormatError("an edge line maps a pattern edge to two host ids")
    branch = {v: frozenset(ids) for v, ids in fields["branch"].items()}
    model = DirectedModel(host, pattern, branch, image, fields["source"], fields["sink"],
                          fields["depth"].get(()))
    ok, bad = verify_model(model)
    if not ok:
        raise WitnessFormatError("model does not verify: %s" % "; ".join(bad))
    return model
