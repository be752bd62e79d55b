"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. Sizes and tolerances are pinned here; the random instance
distributions are fixed-seed and documented inline.
"""

import itertools
import math
import random
from fractions import Fraction

from crownminor.digraph import (
    Digraph,
    UndirectedGraph,
    bidirect,
    count_alternations,
    is_dag,
    is_directed_bipartite,
    underlying_undirected,
)
from crownminor.generators import (
    crown,
    crown_pattern_probability,
    embed_acyclic_tournament,
    extract_grid_alternating_path,
    oriented_grid,
    random_bipartite_outregular,
    random_tournament,
    reversed_crown,
)
from crownminor.minors import (
    DirectedModel,
    IntervalPartition,
    butterfly_contract,
    dag_disjoint_paths,
    dag_disjoint_paths_bounded,
    dag_minor_check,
    general_minor_check,
    is_butterfly_minor,
    legal_butterfly_contractions,
    shallow_minor_check,
    subgraph_check,
    verify_model,
)
from crownminor.quasiwide import (
    BipartiteScattered,
    BudgetExhausted,
    ControlledBipartite,
    ControlledCrown,
    ScatteredWitness,
    bipartite_trichotomy,
    clique_threshold,
    dichotomy_step,
    is_scattered,
    iterate_dichotomy,
    label_avoiding_clique,
    ramsey_upper,
    scattered_or_crown,
    uniform_level_crown,
    uniform_level_threshold,
    verify_controlled_crown,
)
from crownminor.solvers import (
    DominationInstance,
    brute_force_solve,
    d_dominating_set,
    directed_steiner_outtree,
    dominating_outbranching,
    find_irrelevant_vertex,
    independent_dominating_set,
    independent_set,
)
from crownminor.verify import verify_outbranching

from oracles import (
    brute_directed_minor,
    brute_disjoint_paths,
    dominates,
    independent,
    oracle_solve,
    oracle_steiner,
    random_dag,
    random_digraph,
    undirected_minor_check,
)


def _report(num, text):
    print("\nACCEPTANCE %d PASS: %s" % (num, text))


# --------------------------------------------------------------------------
# criterion 1 (plus the positives it feeds to criterion 4)

_C1_CACHE = None


def _criterion1():
    """500 instances: 400 DAG hosts checked by both the DAG-host checker
    and the shallow checker, 100 cyclic hosts checked by the shallow
    checker; every verdict compared with the exhaustive branch-set
    oracle."""
    global _C1_CACHE
    if _C1_CACHE is not None:
        return _C1_CACHE
    rng = random.Random(0xC1)
    checked = 0
    positives = []
    for i in range(400):
        n = rng.randint(4, 8)
        h = rng.choice((1, 2, 2, 3, 3, 3, 4, 4))
        G = random_dag(rng, n, rng.uniform(0.2, 0.4))
        if rng.random() < 0.7:
            H = random_dag(rng, h, rng.uniform(0.25, 0.45))
        else:
            H = random_digraph(rng, h, 0.35)
        r = rng.choice((0, 1, 2))

        got = dag_minor_check(H, G)
        want = brute_directed_minor(H, G)
        assert (got is not None) == want, (H, G)
        if got is not None:
            ok, bad = verify_model(got)
            assert ok, bad
            positives.append(got)

        got_r = shallow_minor_check(H, G, r)
        want_r = brute_directed_minor(H, G, depth=r)
        assert (got_r is not None) == want_r, (H, G, r)
        if got_r is not None:
            ok, bad = verify_model(got_r)
            assert ok, bad
            positives.append(got_r)
        checked += 1
    for i in range(100):
        n = rng.randint(4, 7)
        h = rng.choice((1, 2, 2, 3, 3))
        G = random_digraph(rng, n, rng.uniform(0.2, 0.4))
        H = random_digraph(rng, h, 0.35)
        r = rng.choice((0, 1, 2))
        got_r = shallow_minor_check(H, G, r)
        want_r = brute_directed_minor(H, G, depth=r)
        assert (got_r is not None) == want_r, (H, G, r)
        if got_r is not None:
            ok, bad = verify_model(got_r)
            assert ok, bad
            positives.append(got_r)
        checked += 1
    _C1_CACHE = (checked, positives)
    return _C1_CACHE


def test_c01_minor_checker_oracle_equivalence():
    checked, positives = _criterion1()
    assert checked >= 500
    _report(1, "%d instances, 100%% oracle agreement, %d verified models"
            % (checked, len(positives)))


def test_c02_disjoint_paths_equivalence():
    rng = random.Random(0xC2)
    checked = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        G = random_dag(rng, n, rng.uniform(0.2, 0.35))
        k = rng.randint(1, 4)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1))) if k > 1 else []
        part = IntervalPartition([0] + cuts + [k])
        got = dag_disjoint_paths(G, pairs, part)
        want = brute_disjoint_paths(G, pairs, part.groups())
        assert (got is not None) == want, (G, pairs, part.breakpoints)
        r = rng.randint(0, n)
        got_b = dag_disjoint_paths_bounded(G, pairs, part, r)
        want_b = brute_disjoint_paths(G, pairs, part.groups(), max_len=r)
        assert (got_b is not None) == want_b, (G, pairs, part.breakpoints, r)
        if got_b is not None:
            for (s, t), p in zip(pairs, got_b):
                assert p[0] == s and p[-1] == t and len(p) - 1 <= r
        checked += 1
    assert checked >= 300
    _report(2, "%d instances (bounded and unbounded), 100%% oracle agreement" % checked)


def test_c03_butterfly_implies_directed():
    rng = random.Random(0xC3)
    confirmed = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        G = random_digraph(rng, n, rng.uniform(0.2, 0.4))
        H = G
        steps = rng.randint(1, 3)
        for _ in range(steps):
            ops = legal_butterfly_contractions(H)
            if not ops or H.n <= 2:
                break
            H = butterfly_contract(H, ops[rng.randrange(len(ops))])
        model = general_minor_check(H, G)
        assert model is not None, (H, G)
        ok, bad = verify_model(model)
        assert ok, bad
        tree = is_butterfly_minor(H, G)
        assert tree is not None, (H, G)
        assert tree.source == tree.sink and verify_model(tree)[0]
        confirmed += 1
    # stored counterexample: a hub split across a 2-cycle has a directed
    # model of the 2-in-2-out star, but no deletion/contraction sequence
    host = Digraph(6, [(2, 0), (3, 1), (0, 1), (1, 0), (0, 4), (1, 5)])
    star = Digraph(5, [(1, 0), (2, 0), (0, 3), (0, 4)])
    model = general_minor_check(star, host)
    assert model is not None and verify_model(model)[0]
    assert not is_butterfly_minor(star, host)
    _report(3, "%d contraction sequences confirmed as butterfly and directed minors; "
               "stored counterexample separates the relations" % confirmed)


def _undirected_reps(max_n):
    """Representatives of all undirected graphs with 1..max_n vertices,
    up to isomorphism (canonical form by permutation sweep)."""
    reps = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            best = min(
                tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
                for p in perms
            )
            if best not in seen:
                seen.add(best)
                reps.append(UndirectedGraph(n, edges))
    return reps


def test_c04_projection_and_bidirected_lifting():
    _, positives = _criterion1()
    assert positives, "criterion 1 must produce positive instances"
    for model in positives:
        assert undirected_minor_check(
            underlying_undirected(model.pattern), underlying_undirected(model.host)
        ), model
    reps = _undirected_reps(5)
    pairs_checked = 0
    for H in reps:
        for G in reps:
            und = undirected_minor_check(H, G)
            lifted = general_minor_check(bidirect(H), bidirect(G)) is not None
            assert und == lifted, (H, G)
            pairs_checked += 1
    _report(4, "%d positive models project to undirected minors; "
               "bidirected lifting exhaustive over %d graph pairs (|V| <= 5)"
            % (len(positives), pairs_checked))


def test_c05_tournament_embedding():
    rng = random.Random(0xC5)
    total = 0
    for n in (1, 2, 3):
        for _ in range(50):
            T = random_tournament(2 ** n, rng.randrange(1 << 48))
            img = embed_acyclic_tournament(T, n)
            assert img is not None, (n, T)
            assert len(set(img)) == n
            for a, b in itertools.combinations(range(n), 2):
                assert T.has_edge(img[a], img[b])
            total += 1
    _report(5, "transitive tournaments of orders 1..3 embedded in %d random "
               "tournaments of order 2^n, 100%% success" % total)


def test_c06_reversed_crowns_are_crown_free():
    S4, _ = crown(4)
    for q in (4, 5, 6):
        Sq_rev, _ = reversed_crown(q)
        # the host is directed bipartite, so its only directed minors are
        # its subgraphs; S4 asks for indegree 3 while the host caps at 2
        assert is_directed_bipartite(Sq_rev) is not None
        assert max(Sq_rev.in_degree(v) for v in Sq_rev.vertices()) <= 2
        assert subgraph_check(S4, Sq_rev) is None
    S4_rev, _ = reversed_crown(4)
    assert general_minor_check(S4, S4_rev) is None
    _report(6, "order-4 crown absent from reversed crowns of orders 4..6 "
               "(subgraph route plus full search at order 4)")


def test_c07_grid_alternating_paths():
    checked = 0
    for bits in range(128):
        choices = [(bits >> i) & 1 == 1 for i in range(7)]
        G = oriented_grid(2, 3, choices=choices)
        path = extract_grid_alternating_path(G)
        assert path[0] == 0
        assert path[-1] // 3 == 1
        assert count_alternations(G, path) >= 1
        checked += 1
    rng = random.Random(0xC7)
    for l in (2, 3, 4):
        for _ in range(70):
            G = oriented_grid(2 * l, 3, seed=rng.randrange(1 << 48))
            path = extract_grid_alternating_path(G)
            assert path[0] == 0
            assert path[-1] // 3 == 2 * l - 1
            assert count_alternations(G, path) >= l
            checked += 1
    _report(7, "%d orientations (all 128 at l=1, 70 random each at l=2,3,4), "
               "every extracted path verified" % checked)


def test_c08_density_formula():
    # Monte-Carlo agreement at three standard errors
    cases = [((8, 3, 2), 100000), ((10, 3, 3), 100000)]
    details = []
    for (n, d, q), samples in cases:
        exact, bound = crown_pattern_probability(n, d, q)
        assert exact <= bound
        b_set = list(range(n, n + q))
        a_seq = list(range(math.comb(q, 2)))
        needed = []
        for k, (i, j) in enumerate(itertools.combinations(range(q), 2)):
            needed.append((a_seq[k], b_set[i]))
            needed.append((a_seq[k], b_set[j]))
        hits = 0
        for seed in range(samples):
            G = random_bipartite_outregular(n, d, seed * 2 + 1)
            if all(G.has_edge(a, b) for a, b in needed):
                hits += 1
        freq = hits / samples
        p = float(exact)
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(freq - p) <= 3 * se, (n, d, q, freq, p, se)
        details.append("(%d,%d,%d): |%.5f-%.5f| <= 3SE" % (n, d, q, freq, p))
    # exact stays below the closed-form bound across the grid
    swept = 0
    for n in range(3, 21):
        for d in range(0, (n + 1) // 2):
            for q in (2, 3, 4):
                exact, bound = crown_pattern_probability(n, d, q)
                assert exact <= bound
                swept += 1
    _report(8, "Monte-Carlo %s; bound dominates on %d swept parameter points"
            % ("; ".join(details), swept))


def _greedy_scattered(G, d):
    out = []
    for v in sorted(G.vertices()):
        if is_scattered(G, out + [v], d):
            out.append(v)
    return out


def test_c09_dichotomy_soundness():
    runs = 0
    crowns = 0
    scattereds = 0
    failures = 0

    def consume(res, q, host, allowed_deletions=None):
        nonlocal crowns, scattereds
        cap = allowed_deletions if allowed_deletions is not None else math.comb(q, 2)
        if isinstance(res, ScatteredWitness):
            assert res.verify(), res
            assert len(res.deleted) <= cap
            scattereds += 1
        else:
            assert isinstance(res, DirectedModel)
            ok, bad = verify_model(res)
            assert ok, bad
            crowns += 1

    # crown hosts: the dichotomy must find the crown itself
    for q in (3, 4, 5):
        Sq, principals = crown(q)
        res = dichotomy_step(Sq, principals, 0, p=2, q=q)
        assert isinstance(res, DirectedModel) and res.depth == 0
        consume(res, q, Sq)
        runs += 1

    # reversed crowns scatter
    for q in (4, 5, 6, 7):
        Sr, principals = reversed_crown(q)
        for r in (0, 1):
            res = dichotomy_step(Sr, principals, r, p=3, q=3)
            consume(res, 3, Sr)
            runs += 1

    # grid orientations through the iterated dichotomy
    rng = random.Random(0xC9)
    for _ in range(40):
        l = rng.randint(2, 4)
        G = oriented_grid(l, 3, seed=rng.randrange(1 << 40))
        target = rng.randint(1, 2)
        q = rng.choice((2, 3))
        try:
            res = iterate_dichotomy(G, range(G.n), target, m=3, q=q)
        except BudgetExhausted:
            failures += 1
            continue
        consume(res, q, G, allowed_deletions=target * math.comb(q, 2))
        runs += 1

    # random sparse digraphs, n <= 40
    while runs < 200:
        n = rng.randint(10, 40)
        G = random_digraph(rng, n, rng.uniform(0.8, 2.2) / n)
        r = rng.randint(0, 2)
        q = rng.choice((2, 3))
        I = _greedy_scattered(G, r)
        if len(I) < 4:
            continue
        try:
            res = dichotomy_step(G, I, r, p=3, q=q)
        except BudgetExhausted:
            failures += 1
            continue
        consume(res, q, G)
        runs += 1

    assert runs >= 200
    assert crowns >= 5 and scattereds >= 20

    # extractor unit branches: both colors of the clique step, both
    # pivot classes, both trichotomy outcomes, both peeling ends
    assert label_avoiding_clique(range(4), {}, 2) == [0, 1]
    adv = {frozenset((0, 1)): 2, frozenset((0, 2)): 1, frozenset((1, 2)): 0}
    got = label_avoiding_clique(range(5), adv, 2)
    assert adv.get(frozenset(got)) not in got

    def cb_from(conns, b_count, r=1, extra=None):
        b_nodes = list(range(b_count))
        base = {b: b for b in b_nodes}
        level = {b: 0 for b in b_nodes}
        edges, eta = set(), {}
        for a, (pair, bs) in conns.items():
            base[a], level[a] = bs, 1
            for b in pair:
                edges.add((a, b))
                eta[(a, b)] = (b,)
        if extra:
            eta.update(extra)
        return ControlledBipartite(sorted(conns), b_nodes, edges, base, level, eta, r)

    red = cb_from({10: ((0, 1), None), 11: ((0, 2), None), 12: ((1, 2), None)}, 3, r=0)
    assert verify_controlled_crown(red, uniform_level_crown(red, 3))
    yellow = cb_from({10: ((0, 1), 0), 11: ((0, 2), 0), 12: ((1, 2), 1)}, 3)
    assert verify_controlled_crown(yellow, uniform_level_crown(yellow, 2))

    empty = ControlledBipartite([], range(4), set(), {b: b for b in range(4)},
                                {b: 0 for b in range(4)}, {}, 0)
    got = bipartite_trichotomy(empty, p=3, q=2)
    assert isinstance(got, BipartiteScattered)
    funneled = cb_from(
        {10 + k: (pair, None) for k, pair in
         enumerate(itertools.combinations(range(4), 2))}, 4, r=0)
    got = bipartite_trichotomy(funneled, p=9, q=2)
    assert isinstance(got, ControlledCrown)

    peel = ControlledBipartite(
        [10, 11], [0, 1, 2], {(a, b) for a in (10, 11) for b in (0, 1, 2)},
        {10: 2, 11: 2, 0: 0, 1: 1, 2: 2},
        {10: 1, 11: 1, 0: 0, 1: 0, 2: 0},
        {(a, b): (b,) for a in (10, 11) for b in (0, 1, 2)}, 0)
    assert isinstance(scattered_or_crown(peel, p=2, q=2), ControlledCrown)
    assert isinstance(scattered_or_crown(empty, p=3, q=2), BipartiteScattered)

    _report(9, "%d dichotomy runs: %d crown models, %d scattered witnesses, "
               "0 unverified outputs (%d best-effort failures); "
               "extractor unit branches all exercised"
            % (runs, crowns, scattereds, failures))


def test_c10_solver_exactness():
    rng = random.Random(0xC10)
    per_variant = 300
    counts = {}
    for variant in ("ds", "ids", "dds", "is", "dob"):
        agree = 0
        for _ in range(per_variant):
            n = rng.randint(2, 14)
            G = random_digraph(rng, n, rng.uniform(0.8, 2.5) / n)
            k = rng.randint(0, 4)
            d = rng.randint(1, 3) if variant == "dds" else 1
            if variant in ("ds", "dds"):
                got = d_dominating_set(G, k, d)
                want, _ = oracle_solve(G, "ds", k, d)
            elif variant == "ids":
                got = independent_dominating_set(G, k)
                want, _ = oracle_solve(G, "ids", k)
            elif variant == "is":
                got = independent_set(G, k)
                want, _ = oracle_solve(G, "is", k)
            else:
                got = dominating_outbranching(G, k)
                want, _ = oracle_solve(G, "dob", k)
            assert got.feasible == want, (variant, G, k, d)
            if got.feasible:
                if variant == "dob":
                    D, parent = got.witness
                    assert verify_outbranching(G, D, parent)
                    assert dominates(G, D, 1, G.vertices())
                    assert len(D) <= k
                elif variant == "is":
                    assert independent(G, got.witness)
                    assert len(got.witness) == k
                else:
                    assert dominates(G, got.witness, d, G.vertices())
                    assert len(got.witness) <= k
            agree += 1
        counts[variant] = agree
        assert agree == per_variant

    # irrelevant-vertex contract on hosts up to 12 vertices
    contract_checked = 0
    for _ in range(60):
        n = rng.randint(3, 12)
        G = random_digraph(rng, n, rng.uniform(0.15, 0.35))
        W = sorted(v for v in G.vertices() if rng.random() < 0.8)
        if not W:
            continue
        k = rng.randint(1, 3)
        d = rng.randint(1, 3)
        w = find_irrelevant_vertex(G, W, d)
        if w is None:
            continue
        rest = [x for x in W if x != w]
        for size in range(0, k + 1):
            for X in itertools.combinations(sorted(G.vertices()), size):
                assert dominates(G, X, d, W) == dominates(G, X, d, rest)
        contract_checked += 1
    assert contract_checked >= 10
    _report(10, "%s agreement with the exhaustive solver; "
                "%d irrelevant-vertex outputs pass the iff contract"
            % (", ".join("%s %d/300" % (v, c) for v, c in counts.items()),
               contract_checked))


def test_c11_steiner_dp_equals_exhaustive():
    rng = random.Random(0xC11)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 10)
        G = random_digraph(rng, n, rng.uniform(0.15, 0.4))
        tcount = rng.randint(1, 4)
        terms = sorted(rng.sample(range(n), min(tcount, n)))
        got = directed_steiner_outtree(G, terms)
        want = oracle_steiner(G, terms)
        if want is None:
            assert got is None, (G, terms)
        else:
            assert got is not None, (G, terms)
            verts, parent = got
            assert len(verts) == want, (G, terms, verts, want)
            assert verify_outbranching(G, verts, parent)
            assert set(terms) <= set(verts)
        checked += 1
    assert checked >= 200
    _report(11, "%d instances, DP minimum equals exhaustive minimum out-tree"
            % checked)


def test_c12_bounds_sanity():
    assert ramsey_upper(2) == 2
    assert clique_threshold(1) == 1
    assert clique_threshold(2) == 3
    assert uniform_level_threshold(2, 2) == 4096
    fs = [clique_threshold(n) for n in (1, 2, 3)]
    assert fs == sorted(fs) and len(set(fs)) == len(fs)
    gs = [uniform_level_threshold(2, n) for n in (1, 2, 3, 4)]
    assert gs == sorted(gs) and len(set(gs)) == len(gs)
    rs = [ramsey_upper(n) for n in range(1, 8)]
    assert rs == sorted(rs)
    _report(12, "f(1)=1, f(2)=3 with R(2)=2, g(2,2)=4096; "
                "monotone over the evaluable range")
