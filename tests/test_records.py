"""The result records are immutable named tuples: their field names and
order and their defaults are what the library, the CLI and the witness
documents read."""

import pytest

from crownminor.digraph import Digraph
from crownminor.generators import crown
from crownminor.minors import DirectedModel, SubdivisionWitness
from crownminor.quasiwide import (
    BipartiteScattered,
    ControlledCrown,
    ScatteredWitness,
    iterate_dichotomy,
)
from crownminor.solvers import DominationInstance, SolveOutcome

G = Digraph(2, [(0, 1)])

RECORDS = [
    (DirectedModel, ("host", "pattern", "branch", "edge_image", "source", "sink", "depth"),
     (G, G, {}, {}, {}, {})),
    (SubdivisionWitness, ("host", "pattern", "placement", "paths"), (G, G, {}, {})),
    (ScatteredWitness, ("graph", "deleted", "members", "radius"), (G, (), (0,), 1)),
    (ControlledCrown, ("order", "principals", "connectors"), (1, (0,), ())),
    (BipartiteScattered, ("deleted", "members"), ((), (0,))),
    (DominationInstance, ("graph", "k", "d"), (G, 3)),
    (SolveOutcome, ("feasible", "witness", "exhausted"), (True,)),
]


@pytest.mark.parametrize("cls,fields,args", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_in_order_and_frozen(cls, fields, args):
    assert cls._fields == fields
    rec = cls(*args)
    assert tuple(getattr(rec, f) for f in fields[:len(args)]) == args
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_record_defaults():
    assert DirectedModel(G, G, {}, {}, {}, {}).depth is None
    assert DominationInstance(G, 3).d == 1
    out = SolveOutcome(True)
    assert out.witness is None and out.exhausted is False


def test_lifted_crown_lives_in_the_given_host():
    # the dichotomy runs on a copy of the host; its crown is handed back
    # with the caller's own graph as host
    S3, _ = crown(3)
    res = iterate_dichotomy(S3, range(S3.n), target_r=1, m=3, q=2)
    assert isinstance(res, DirectedModel)
    assert res.host is S3
