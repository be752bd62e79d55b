import hashlib
import itertools
import math
import random

import pytest

from crownminor import quasiwide
from crownminor.digraph import Digraph, GraphError, bfs_dist
from crownminor.generators import (
    crown,
    oriented_grid,
    random_bipartite_outregular,
    random_tournament,
    reversed_crown,
)
from crownminor.minors import DirectedModel, verify_model
from crownminor.quasiwide import (
    BipartiteScattered,
    BudgetExhausted,
    ControlledBipartite,
    ControlledCrown,
    ScatteredWitness,
    bipartite_trichotomy,
    build_controlled_bipartite,
    clique_threshold,
    compute_scattered,
    crown_to_model,
    dichotomy_step,
    is_scattered,
    iterate_dichotomy,
    label_avoiding_clique,
    ramsey_upper,
    scattered_or_crown,
    uniform_level_crown,
    uniform_level_threshold,
    verify_controlled_crown,
    without_vertices,
)

from oracles import (
    bipartite_edges,
    bipartite_one_scattered,
    controlled_bipartite_violations,
    deletion_budget,
    dichotomy_threshold_steps,
    label_avoiding_clique_by_rescan,
    random_digraph,
    trichotomy_threshold,
    wideness_threshold,
)


def greedy_scattered(G, d, avoid=()):
    out = []
    for v in sorted(G.vertices()):
        if v in avoid:
            continue
        if is_scattered(G, out + [v], d):
            out.append(v)
    return out


# --- scattered sets ----------------------------------------------------------


def test_everything_is_zero_scattered():
    rng = random.Random(2)
    for _ in range(10):
        G = random_digraph(rng, 7, 0.4)
        U = [v for v in G.vertices() if rng.random() < 0.5]
        assert is_scattered(G, U, 0)


def test_crown_principals_not_one_scattered():
    S3, principals = crown(3)
    assert not is_scattered(S3, principals, 1)


def test_reversed_crown_principals_scattered():
    S4r, principals = reversed_crown(4)
    assert is_scattered(S4r, principals, 1)


def test_scattered_respects_deletions():
    S3, principals = crown(3)
    assert is_scattered(S3, principals, 1, deleted=(3, 4, 5))
    assert not is_scattered(S3, principals, 1, deleted=(3,))


def test_compute_scattered_reversed_crown():
    S5r, principals = reversed_crown(5)
    w = compute_scattered(S5r, principals, d=1, m=5, s_budget=0)
    assert w is not None
    assert w.deleted == () and w.members == tuple(principals)
    assert w.verify()


def test_compute_scattered_crown_needs_deletions():
    S3, principals = crown(3)
    w = compute_scattered(S3, principals, d=1, m=2, s_budget=3)
    assert w is not None
    assert set(w.deleted) <= {3, 4, 5} and len(w.deleted) <= 3
    assert len(w.members) == 2
    assert w.verify()


def test_compute_scattered_requires_enough_candidates():
    S3, principals = crown(3)
    with pytest.raises(GraphError):
        compute_scattered(S3, principals, d=1, m=4, s_budget=0)


def test_compute_scattered_checks_every_candidate_id():
    # 999 lies past the first 14 candidates the walk probes, and is no
    # vertex of the 16-vertex grid
    G = oriented_grid(4, 4, seed=1)
    with pytest.raises(GraphError):
        compute_scattered(G, list(range(16)) + [999], 1, 2, 3)
    with pytest.raises(GraphError):
        compute_scattered(G, [-1] + list(range(16)), 1, 2, 3)


def test_compute_scattered_rejects_a_negative_budget():
    # a budget below 0 is an input error, not a budget that ran out
    S5r, principals = reversed_crown(5)
    with pytest.raises(GraphError):
        compute_scattered(S5r, principals, d=1, m=2, s_budget=-1)


def test_compute_scattered_exhaustion_returns_none():
    S3, principals = crown(3)
    assert compute_scattered(S3, principals, d=1, m=3, s_budget=0) is None


def test_one_scattered_sets_are_independent():
    # a 1-scattered set avoiding its deletion set carries no edges at all
    rng = random.Random(2468)
    found = 0
    for _ in range(30):
        G = random_digraph(rng, rng.randint(4, 10), 0.3)
        w = compute_scattered(G, sorted(G.vertices()), d=1, m=3, s_budget=3)
        if w is None:
            continue
        found += 1
        assert not set(w.members) & set(w.deleted)
        for a in w.members:
            for b in w.members:
                if a != b:
                    assert not G.has_edge(a, b)
    assert found > 0


# --- bound functions ----------------------------------------------------------


def test_ramsey_and_clique_thresholds():
    assert ramsey_upper(1) == 1
    assert ramsey_upper(2) == 2
    assert ramsey_upper(3) == 6
    assert clique_threshold(1) == 1
    assert clique_threshold(2) == 3  # 1 + R(2)
    assert clique_threshold(3) == 1 + ramsey_upper(6) == 253


def test_uniform_level_threshold_value():
    assert uniform_level_threshold(2, 2) == 4 ** 6 == 4096


def test_threshold_monotonicity():
    vals = [clique_threshold(n) for n in (1, 2, 3)]
    assert vals == sorted(vals) and len(set(vals)) == 3
    assert uniform_level_threshold(2, 2) < uniform_level_threshold(2, 3)
    assert trichotomy_threshold(0, 1, 2, 1) < trichotomy_threshold(0, 2, 2, 1)
    assert trichotomy_threshold(0, 1, 2, 1) < trichotomy_threshold(1, 1, 2, 1)
    assert dichotomy_threshold_steps(0, 1, 2, 0) == 2
    excl = lambda i: 2
    assert deletion_budget(2, excl) == 2
    assert wideness_threshold(1, 2, excl) >= 2


# --- controlled bipartite structures ------------------------------------------


def synthetic_cb(connector_bases, b_count, r=1, extra_eta=None):
    """Complete-ish controlled bipartite test structure: connectors are
    ints >= 10 mapped to (pair, base) entries: {conn: (pair, base)}."""
    b_nodes = list(range(b_count))
    a_nodes = sorted(connector_bases)
    edges = set()
    eta = {}
    base = {b: b for b in b_nodes}
    level = {b: 0 for b in b_nodes}
    for a, (pair, bs) in connector_bases.items():
        base[a] = bs
        level[a] = 1
        for b in pair:
            edges.add((a, b))
            eta[(a, b)] = (b,)
    if extra_eta:
        for e, tail in extra_eta.items():
            eta[e] = tail
    return ControlledBipartite(a_nodes, b_nodes, edges, base, level, eta, r)


def test_build_controlled_bipartite_on_crown():
    S3, principals = crown(3)
    cb = build_controlled_bipartite(S3, principals, 0)
    assert cb.a_nodes == (3, 4, 5)
    assert cb.b_nodes == (0, 1, 2)
    assert bipartite_edges(cb) == {(3, 0), (3, 1), (4, 0), (4, 2), (5, 1), (5, 2)}
    assert all(cb.base[a] is None and cb.level[a] == 1 for a in cb.a_nodes)
    bad = controlled_bipartite_violations(cb)
    assert not bad, bad


def test_build_controlled_bipartite_empty_a_side():
    G = Digraph(5, [])
    cb = build_controlled_bipartite(G, range(5), 1)
    assert cb.a_nodes == ()
    bad = controlled_bipartite_violations(cb)
    assert not bad, bad


def test_build_controlled_bipartite_requires_scattered_input():
    S3, principals = crown(3)
    with pytest.raises(GraphError):
        build_controlled_bipartite(S3, principals, 1)


@pytest.mark.parametrize("I, r, message", [
    ((0, 1, 2), 1, "input set is not r-scattered"),
    ((0, 1, 0), 0, "scattered candidates must be distinct"),
    ((0, 1, 6), 0, "invalid vertex id 6 (n=6)"),
    ((0, 1, 2), -1, "radius must be nonnegative"),
])
def test_build_controlled_bipartite_rejects_bad_input(I, r, message):
    S3, principals = crown(3)
    assert principals == (0, 1, 2)
    with pytest.raises(GraphError) as err:
        build_controlled_bipartite(S3, I, r)
    assert str(err.value) == message


def test_build_controlled_bipartite_random_invariants():
    rng = random.Random(71)
    for _ in range(20):
        G = random_digraph(rng, rng.randint(5, 12), 0.25)
        r = rng.randint(0, 2)
        I = greedy_scattered(G, r)
        cb = build_controlled_bipartite(G, I, r)
        bad = controlled_bipartite_violations(cb)
        assert not bad, bad


# --- label-avoiding clique -----------------------------------------------------


def test_clique_no_labels_takes_first():
    assert label_avoiding_clique(range(6), {}, 3) == [0, 1, 2]


def test_clique_single_vertex():
    assert label_avoiding_clique([4, 7], {}, 1) == [4]


def test_clique_adversarial_labels():
    gamma = {
        frozenset((0, 1)): 2,
        frozenset((0, 2)): 1,
        frozenset((1, 2)): 0,
        frozenset((0, 3)): 4,
        frozenset((3, 4)): 0,
    }
    got = label_avoiding_clique(range(5), gamma, 2)
    assert len(got) == 2
    u, w = got
    assert gamma.get(frozenset((u, w))) not in got


def assert_label_avoiding(got, gamma, n):
    assert len(got) == n and len(set(got)) == n
    for u, w in itertools.combinations(got, 2):
        assert gamma.get(frozenset((u, w))) not in got


def test_clique_strips_a_label_partner():
    # the edge (0, 1) is labelled 2, so taking 1 under pivot 0 drops 2
    gamma = {frozenset((0, 1)): 2}
    got = label_avoiding_clique(range(5), gamma, 3)
    assert_label_avoiding(got, gamma, 3)
    assert got == [0, 1, 3]


def test_clique_stops_when_no_vertex_is_pickable():
    # under pivot 0, vertex 2's label partner 1 is already kept
    gamma = {frozenset((0, 2)): 1}
    got = label_avoiding_clique(range(3), gamma, 2)
    assert_label_avoiding(got, gamma, 2)
    assert got == [0, 1]


def test_clique_one_pass_strip_matches_rescan():
    # a vertex the former rescan passed over stayed passed over, as the
    # kept set only grows, so one forward pass keeps the same vertices;
    # answers and failure texts agree alike
    def outcome(find, verts, gamma, n):
        try:
            return find(verts, gamma, n)
        except (BudgetExhausted, GraphError) as exc:
            return type(exc).__name__, str(exc)

    rng = random.Random(1618)
    for _ in range(400):
        verts = rng.sample(range(12), rng.randint(1, 10))
        gamma = {}
        for u, w in itertools.combinations(verts, 2):
            if rng.random() < 0.7:
                gamma[frozenset((u, w))] = rng.choice([x for x in range(12) if x not in (u, w)])
        if len(verts) > 1 and rng.random() < 0.05:
            u, w = verts[:2]
            gamma[frozenset((u, w))] = u
        n = rng.randint(1, 5)
        got = outcome(label_avoiding_clique, verts, gamma, n)
        assert got == outcome(label_avoiding_clique_by_rescan, verts, gamma, n), (verts, gamma, n)


def test_clique_rejects_labels_on_endpoints():
    with pytest.raises(GraphError):
        label_avoiding_clique(range(3), {frozenset((0, 1)): 0}, 2)


def test_clique_budget_failure():
    with pytest.raises(BudgetExhausted):
        label_avoiding_clique(range(2), {}, 3)


# --- one-level crown extraction -------------------------------------------------


def test_uniform_level_crown_red_case():
    cb = synthetic_cb(
        {10: ((0, 1), None), 11: ((0, 2), None), 12: ((1, 2), None)}, 3, r=0
    )
    cc = uniform_level_crown(cb, 3)
    assert cc.principals == (0, 1, 2)
    assert set(cc.connectors) == {10, 11, 12}
    assert verify_controlled_crown(cb, cc)


def test_uniform_level_crown_yellow_case():
    cb = synthetic_cb(
        {10: ((0, 1), 0), 11: ((0, 2), 0), 12: ((1, 2), 1)}, 3, r=1
    )
    cc = uniform_level_crown(cb, 2)
    assert verify_controlled_crown(cb, cc)


def test_uniform_level_crown_yellow_z_chasing():
    # the non-base edge of the pair (0, 1) carries the connector of
    # (1, 2) as a same-level label vertex
    cb = synthetic_cb(
        {10: ((0, 1), 0), 11: ((0, 2), 0), 12: ((1, 2), 1)},
        3,
        r=1,
        extra_eta={(10, 1): (12, 1)},
    )
    cc = uniform_level_crown(cb, 2)
    assert verify_controlled_crown(cb, cc)


def test_uniform_level_crown_yellow_based_at_the_larger_pivot():
    # the connector of the pivot pair (0, 1) is based at 1
    cb = synthetic_cb(
        {10: ((0, 1), 1), 11: ((0, 2), 2), 12: ((1, 2), 2)}, 3, r=1
    )
    cc = uniform_level_crown(cb, 2)
    assert cc.order == 2
    assert verify_controlled_crown(cb, cc)


def test_uniform_level_crown_single_vertex():
    cb = synthetic_cb({}, 2, r=0)
    cc = uniform_level_crown(cb, 1)
    assert cc.order == 1 and cc.principals == (0,)


def test_uniform_level_crown_requires_single_level():
    cb = synthetic_cb({10: ((0, 1), None)}, 2, r=1)
    cb.level[10] = 2
    cb2 = ControlledBipartite(
        [10, 11], [0, 1], {(10, 0), (10, 1), (11, 0), (11, 1)},
        {10: None, 11: None, 0: 0, 1: 1},
        {10: 1, 11: 2, 0: 0, 1: 0},
        {(10, 0): (0,), (10, 1): (1,), (11, 0): (0,), (11, 1): (1,)},
        1,
    )
    with pytest.raises(GraphError):
        uniform_level_crown(cb2, 2)


def test_uniform_level_crown_budget_failure():
    cb = synthetic_cb({10: ((0, 1), None)}, 2, r=0)
    with pytest.raises(BudgetExhausted):
        uniform_level_crown(cb, 3)


# --- trichotomy -----------------------------------------------------------------


def test_trichotomy_scattered_without_predecessors():
    cb = ControlledBipartite(
        [], list(range(5)), set(), {b: b for b in range(5)},
        {b: 0 for b in range(5)}, {}, 0,
    )
    got = bipartite_trichotomy(cb, p=3, q=2)
    assert isinstance(got, BipartiteScattered)
    assert got.members == (0, 1, 2)
    assert bipartite_one_scattered(cb, got.members)


def test_trichotomy_funnels_to_crown():
    cb = synthetic_cb(
        {
            10: ((0, 1), None), 11: ((0, 2), None), 12: ((0, 3), None),
            13: ((1, 2), None), 14: ((1, 3), None), 15: ((2, 3), None),
        },
        4,
        r=0,
    )
    got = bipartite_trichotomy(cb, p=10, q=2)
    assert isinstance(got, ControlledCrown)
    assert verify_controlled_crown(cb, got)


# --- peeling --------------------------------------------------------------------


def test_peeling_builds_crown_from_complete_structure():
    # both connectors cover everything; bases point at the sacrificial 2
    cb = ControlledBipartite(
        [10, 11], [0, 1, 2],
        {(a, b) for a in (10, 11) for b in (0, 1, 2)},
        {10: 2, 11: 2, 0: 0, 1: 1, 2: 2},
        {10: 1, 11: 1, 0: 0, 1: 0, 2: 0},
        {(a, b): (b,) for a in (10, 11) for b in (0, 1, 2)},
        0,
    )
    got = scattered_or_crown(cb, p=2, q=2)
    assert isinstance(got, ControlledCrown)
    assert verify_controlled_crown(cb, got)
    assert got.principals == (0, 1)


def test_peeling_empty_a_side_gives_scattered():
    cb = ControlledBipartite(
        [], list(range(4)), set(), {b: b for b in range(4)},
        {b: 0 for b in range(4)}, {}, 0,
    )
    got = scattered_or_crown(cb, p=3, q=2)
    assert isinstance(got, BipartiteScattered)
    assert got.deleted == () and len(got.members) == 3


def test_peeling_random_outcomes_verify():
    rng = random.Random(555)
    for _ in range(25):
        bl = rng.randint(3, 7)
        conns = {}
        label = 10
        for i in range(bl):
            for j in range(i + 1, bl):
                if rng.random() < 0.5:
                    bs = rng.choice([None, i, j, (i + j) % bl])
                    conns[label] = ((i, j), bs)
                    label += 1
        cb = synthetic_cb(conns, bl, r=1)
        try:
            got = scattered_or_crown(cb, p=2, q=2)
        except BudgetExhausted:
            continue
        if isinstance(got, BipartiteScattered):
            assert bipartite_one_scattered(cb, got.members, got.deleted)
            assert len(got.deleted) <= 1  # C(2,2)
        else:
            assert verify_controlled_crown(cb, got)


# --- the dichotomy on digraphs ---------------------------------------------------


def test_dichotomy_on_crown_finds_crown_model():
    S3, principals = crown(3)
    got = dichotomy_step(S3, principals, r=0, p=2, q=3)
    assert isinstance(got, DirectedModel)
    assert got.depth == 0
    ok, bad = verify_model(got)
    assert ok, bad


def test_dichotomy_on_isolated_vertices_scatters():
    G = Digraph(6, [])
    got = dichotomy_step(G, range(6), r=1, p=4, q=2)
    assert isinstance(got, ScatteredWitness)
    assert got.deleted == ()
    assert len(got.members) == 4
    assert got.verify()


def test_dichotomy_on_reversed_crown_scatters():
    S6r, principals = reversed_crown(6)
    got = dichotomy_step(S6r, principals, r=1, p=3, q=3)
    assert isinstance(got, ScatteredWitness)
    assert got.radius == 2
    assert len(got.deleted) <= math.comb(3, 2)
    assert got.verify()


def test_dichotomy_requires_scattered_input():
    S3, principals = crown(3)
    with pytest.raises(GraphError):
        dichotomy_step(S3, principals, r=1, p=2, q=2)


def test_dichotomy_random_outcomes_always_verify():
    rng = random.Random(808)
    produced = 0
    for _ in range(30):
        G = random_digraph(rng, rng.randint(8, 16), 0.15)
        r = rng.randint(0, 2)
        I = greedy_scattered(G, r)
        if len(I) < 3:
            continue
        try:
            got = dichotomy_step(G, I, r, p=3, q=2)
        except BudgetExhausted:
            continue
        produced += 1
        if isinstance(got, ScatteredWitness):
            assert got.verify()
            assert len(got.deleted) <= 1
        else:
            assert got.depth == r
            ok, bad = verify_model(got)
            assert ok, bad
    assert produced >= 15


def test_iterate_dichotomy_zero_rounds():
    G = Digraph(5, [(0, 1)])
    got = iterate_dichotomy(G, range(5), target_r=0, m=3, q=2)
    assert isinstance(got, ScatteredWitness)
    assert got.members == (0, 1, 2) and got.deleted == ()


@pytest.mark.parametrize("m", [0, -1])
def test_iterate_dichotomy_rejects_a_target_size_below_one(m):
    # with no rounds, m = -1 used to keep all but the last member and
    # m = 0 to return an empty witness
    G = oriented_grid(4, 4, seed=1)
    for target_r in (0, 1):
        with pytest.raises(GraphError, match="target size must be positive"):
            iterate_dichotomy(G, range(G.n), target_r, m, 2)


def test_iterate_dichotomy_reversed_crown():
    S6r, principals = reversed_crown(6)
    got = iterate_dichotomy(S6r, principals, target_r=2, m=4, q=3)
    assert isinstance(got, ScatteredWitness)
    assert got.radius == 2 and len(got.members) == 4
    assert got.verify()


def test_iterate_dichotomy_grid_orientation():
    G = oriented_grid(4, 3, seed=11)
    got = iterate_dichotomy(G, range(G.n), target_r=1, m=3, q=2)
    if isinstance(got, ScatteredWitness):
        assert got.verify()
    else:
        ok, bad = verify_model(got)
        assert ok, bad


def test_iterate_dichotomy_builds_one_control_structure_per_round(monkeypatch):
    # the benchmark's scatter/110 host: the first round backs off from
    # p = 6 to p = 4, and each try reads the one structure of its round
    calls = []

    def counting(*args):
        calls.append(args[2])
        return build(*args)

    build = quasiwide.build_controlled_bipartite
    monkeypatch.setattr(quasiwide, "build_controlled_bipartite", counting)
    G = oriented_grid(8, 8, seed=616060819)
    with pytest.raises(BudgetExhausted, match="trichotomy stalled: 3 scattered of 4, "
                                              "largest bucket 1"):
        iterate_dichotomy(G, range(64), 2, 4, 3)
    assert calls == [0]


def test_without_vertices_keeps_ids():
    S3, _ = crown(3)
    G = without_vertices(S3, {3})
    assert G.n == S3.n
    assert all(3 not in e for e in G.edges)


# --- the cross-validation checker -------------------------------------------------


def find_scatter_contradiction(G, r, q, model, witness):
    """Cross-validation: a verified depth-r crown model whose principal
    roots include two members of a claimed (2r+1)-scattered set, with
    branches avoiding the deleted set, yields a vertex reaching both
    members within 2r+1 steps. Returns (vertex, path1, path2) or None."""
    if witness.radius != 2 * r + 1:
        raise GraphError("witness radius must be 2r+1")
    S = set(witness.deleted)
    U = set(witness.members)
    q_pat = q
    principal_hits = {}
    for v in range(q_pat):
        bset = set(model.branch[v])
        if bset & S:
            continue
        hits = sorted(bset & U)
        if hits:
            principal_hits[v] = hits[0]
    if len(principal_hits) < 2:
        return None
    for pid, (i, j) in enumerate(itertools.combinations(range(q_pat), 2), q_pat):
        cbranch = set(model.branch[pid])
        if cbranch & S:
            continue
        if i not in principal_hits or j not in principal_hits:
            continue
        root = model.source.get(pid)
        if root is None:
            root = min(cbranch)
        paths = []
        ok = True
        for prin in (i, j):
            img = model.edge_image[(pid, prin)]
            # root -> img[0] inside the connector branch, then img[1] -> the
            # scattered member inside the principal branch, along BFS parents
            full = []
            for allowed, src, dst in (
                (cbranch, root, img[0]),
                (model.branch[prin], img[1], principal_hits[prin]),
            ):
                parent = bfs_dist(G, src, within=allowed, parents=True)
                if dst not in parent:
                    ok = False
                    break
                seg = []
                while dst is not None:
                    seg.append(dst)
                    dst = parent[dst]
                full += reversed(seg)
            if not ok or len(full) - 1 > 2 * r + 1 or set(full) & S:
                ok = False
                break
            paths.append(full)
        if ok:
            return root, paths[0], paths[1]
    return None


def test_contradiction_found_on_fabricated_witness():
    S4, principals = crown(4)
    model = dichotomy_step(S4, principals, r=0, p=2, q=4)
    assert isinstance(model, DirectedModel)
    fake = ScatteredWitness(S4, (), tuple(principals), 1)
    assert not fake.verify()
    got = find_scatter_contradiction(S4, 0, 4, model, fake)
    assert got is not None
    root, p1, p2 = got
    assert p1[0] == root and p2[0] == root
    assert len(p1) - 1 <= 1 and len(p2) - 1 <= 1
    assert p1[-1] != p2[-1]
    assert p1[-1] in principals and p2[-1] in principals


def test_contradiction_vacuous_when_members_miss_branches():
    S4, principals = crown(4)
    model = dichotomy_step(S4, principals, r=0, p=2, q=4)
    off_witness = ScatteredWitness(S4, (), (4, 5), 1)  # two sources
    assert find_scatter_contradiction(S4, 0, 4, model, off_witness) is None


def test_contradiction_blocked_by_deletions():
    S4, principals = crown(4)
    model = dichotomy_step(S4, principals, r=0, p=2, q=4)
    # deleting every connector branch removes all contradiction roots
    blockers = tuple(range(4, 10))
    w = ScatteredWitness(S4, blockers, tuple(principals), 1)
    assert w.verify()
    assert find_scatter_contradiction(S4, 0, 4, model, w) is None


# --- pinned outcomes ---------------------------------------------------------------


def _pinned_outcome(res):
    """The class of a dichotomy outcome with its whole witness."""
    if isinstance(res, ScatteredWitness):
        return ("scattered", res.deleted, res.members)
    assert isinstance(res, DirectedModel)
    branches = tuple(sorted((k, tuple(sorted(v))) for k, v in res.branch.items()))
    return ("crown", branches, tuple(sorted(res.edge_image.items())))


def _pinned_host(rng, i):
    kind = i % 4
    if kind == 0:
        n = rng.randint(6, 30)
        return random_digraph(rng, n, rng.uniform(0.8, 2.5) / n)
    if kind == 1:
        return oriented_grid(rng.randint(2, 4), rng.randint(2, 4), seed=rng.randrange(1 << 40))
    if kind == 2:
        n = rng.randint(3, 12)
        return random_bipartite_outregular(n, rng.randint(1, min(n, 3)), rng.randrange(1 << 40))
    return random_tournament(rng.randint(3, 7), rng.randrange(1 << 40))


def test_dichotomy_outcomes_are_pinned():
    # a fixed battery over four host families, r 0-2 and q 1-4, with the
    # iterated dichotomy on every tenth instance: the hash of every
    # outcome, witness and exhaustion message, as the list-based control
    # structure produced them
    rng = random.Random(0x5CA7)
    outcomes = []
    for i in range(1000):
        G = _pinned_host(rng, i)
        r, q = rng.randint(0, 2), rng.randint(1, 4)
        try:
            if i % 10 == 9:
                res = iterate_dichotomy(G, range(G.n), r, rng.randint(1, 3), q)
            else:
                I = []
                for v in rng.sample(range(G.n), G.n):
                    if is_scattered(G, I + [v], r):
                        I.append(v)
                res = dichotomy_step(G, I, r, rng.randint(1, len(I)), q)
            outcomes.append(_pinned_outcome(res))
        except BudgetExhausted as err:
            outcomes.append(("exhausted", str(err)))
    assert {o[0] for o in outcomes} == {"scattered", "crown", "exhausted"}
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "fc422f1ba73a275ecc1c17bd7c4f2d6c17ee35e12542722a311f3ef986f89a5a"


# --- budget exits -------------------------------------------------------------------


def test_every_budget_exit_has_an_input_that_reaches_it():
    # one input per BudgetExhausted exit of quasiwide; test_package pins
    # the exits' message texts to these ten
    two_ends = {2: None, 0: 0, 1: 1}
    one_level = {2: 1, 0: 0, 1: 0}

    def crown_edge_labelled(label):
        cb = ControlledBipartite([2], [0, 1], {(2, 0), (2, 1)}, two_ends, one_level,
                                 {(2, 0): label, (2, 1): (1,)}, 0)
        return crown_to_model(Digraph(3, [(2, 0), (2, 1)]), cb, ControlledCrown(2, (0, 1), (2,)), 0)

    # pivots 0 and 1 go yellow and 2 and 3 red; each pair's crown has a
    # label on a crown edge that meets its other principal
    both_colours = synthetic_cb(
        {10: ((0, 1), 0), 11: ((0, 2), 0), 12: ((0, 3), 0), 13: ((1, 2), 1), 14: ((1, 3), 1),
         15: ((2, 3), None)},
        4, extra_eta={(10, 0): (1, 0), (15, 2): (3, 2)},
    )
    # the peel keeps 10 and takes principals 0 and 1, and the label of
    # (10, 0) runs through 1
    peeled = ControlledBipartite(
        [10], [0, 1, 2], {(10, 0), (10, 1), (10, 2)}, {10: None, 0: 0, 1: 1, 2: 2},
        {10: 1, 0: 0, 1: 0, 2: 0}, {(10, 0): (1, 0), (10, 1): (1,), (10, 2): (2,)}, 1,
    )
    one_pair = synthetic_cb({10: ((0, 1), None)}, 2, r=0)
    cases = [
        (lambda: label_avoiding_clique([], {}, 1), "clique pool empty"),
        (lambda: label_avoiding_clique(range(2), {}, 3), "clique pool smaller than target"),
        (lambda: uniform_level_crown(
            ControlledBipartite([10], [], set(), {10: None}, {10: 1}, {}, 0), 1),
         "no principals available"),
        (lambda: uniform_level_crown(one_pair, 3), "yellow pivot pool too small"),
        (lambda: uniform_level_crown(both_colours, 2), "extracted crown failed the label check"),
        (lambda: bipartite_trichotomy(one_pair, 2, 3),
         "trichotomy stalled: 1 scattered of 2, largest bucket 2"),
        (lambda: dichotomy_step(crown(3)[0], [], 0, 1, 1),
         "peeled pool thinner than the crown order"),
        (lambda: scattered_or_crown(peeled, 2, 2), "peeled crown failed verification"),
        (lambda: crown_edge_labelled(()), "crown edge degenerates to its own principal"),
        (lambda: crown_edge_labelled((1, 0)),
         "crown model failed verification: branches 0 and 1 overlap"),
    ]
    for run, text in cases:
        with pytest.raises(BudgetExhausted) as info:
            run()
        assert str(info.value) == text
