import hashlib
import itertools
import random
import sys
from collections import Counter

import pytest

from crownminor import solvers
from crownminor.digraph import (
    Digraph,
    GraphError,
    adjacency_masks,
    ball_masks,
    bfs_dist,
    bidirect,
    underlying_undirected,
)
from crownminor.generators import acyclic_tournament, crown, reversed_crown
from crownminor.solvers import (
    DominationInstance,
    brute_force_solve,
    d_dominating_set,
    directed_steiner_outtree,
    dominating_outbranching,
    find_irrelevant_vertex,
    independent_dominating_set,
    independent_set,
    spanning_outtree,
)
from crownminor.verify import verify_dominating, verify_independent, verify_outbranching

from oracles import (
    apex_grid,
    dominates,
    has_spanning_outtree,
    independent,
    irrelevant_vertex_by_scan,
    oracle_solve,
    oracle_steiner,
    random_digraph,
)


def dipath(n):
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def bidirected_star(leaves):
    es = []
    for i in range(1, leaves + 1):
        es.append((0, i))
        es.append((i, 0))
    return Digraph(leaves + 1, es)


# --- verifiers ---------------------------------------------------------------


def test_verify_dominating_basics():
    G = random_digraph(random.Random(1), 6, 0.3)
    assert verify_dominating(G, list(G.vertices()), 1)
    S3, _ = crown(3)
    assert verify_dominating(S3, (3, 4, 5), 1)
    assert not verify_dominating(S3, (0, 1, 2), 1)


def test_verify_independent_on_crown_sources():
    S3, _ = crown(3)
    assert verify_independent(S3, (3, 4, 5))
    assert not verify_independent(S3, (0, 3))


def test_verify_outbranching():
    G = dipath(4)
    assert verify_outbranching(G, (0, 1, 2, 3), {0: None, 1: 0, 2: 1, 3: 2})
    assert verify_outbranching(G, (2,), {2: None})
    assert not verify_outbranching(G, (0, 1), {0: None, 1: None})
    assert not verify_outbranching(G, (0, 2), {0: None, 2: 0})


def test_verify_outbranching_rejects_a_cycle_under_no_root():
    # every parent edge is present and there is one root, but 1 and 2
    # are each other's parent, so neither hangs under the root
    G = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    assert verify_outbranching(G, (0, 1, 2), {0: None, 1: 0, 2: 1})
    assert not verify_outbranching(G, (0, 1, 2), {0: None, 1: 2, 2: 1})


def test_verifiers_reject_a_repeated_vertex():
    G = dipath(3)
    assert verify_dominating(G, [0, 2], 1)
    assert not verify_dominating(G, [0, 0, 2], 1)
    assert verify_outbranching(G, [0, 1], {0: None, 1: 0})
    assert not verify_outbranching(G, [0, 1, 1], {0: None, 1: 0})
    assert not verify_independent(G, [0, 0])


def test_spanning_outtree():
    S3, _ = crown(3)
    assert spanning_outtree(S3, (3, 0, 1)) is not None
    assert spanning_outtree(S3, (0, 1)) is None


def test_spanning_outtree_runs_one_bfs(monkeypatch):
    # Work guard: on the path 29 -> 28 -> ... -> 0 the only root is 29,
    # the in-source; a BFS from each candidate root in turn makes 30
    calls = count_bfs_calls(monkeypatch)
    G = Digraph(30, [(v + 1, v) for v in range(29)])
    parent = spanning_outtree(G, range(30))
    assert parent == {v: None if v == 29 else v + 1 for v in range(30)}
    assert calls[0] == 1
    with pytest.raises(GraphError):
        spanning_outtree(G, (0, 30))


# --- brute force oracle -------------------------------------------------------


def test_brute_crown_min_dominating():
    S3, _ = crown(3)
    got = brute_force_solve(DominationInstance(S3, 3), "ds")
    assert got.feasible and got.witness == (3, 4, 5)
    assert not brute_force_solve(DominationInstance(S3, 2), "ds").feasible


def test_brute_path_distance_two():
    G = dipath(5)
    got = brute_force_solve(DominationInstance(G, 2, d=2), "ds")
    assert got.feasible and got.witness == (0, 2)
    assert not brute_force_solve(DominationInstance(G, 1, d=2), "ds").feasible


def test_brute_empty_graph():
    G = Digraph(0, [])
    assert brute_force_solve(DominationInstance(G, 0), "ds").feasible


def test_brute_independent_set_honours_distance():
    # the oracle keeps members d apart in both directions, as the solver does
    assert not brute_force_solve(DominationInstance(dipath(4), 2, d=3), "is").feasible
    rng = random.Random(19)
    for _ in range(40):
        G = random_digraph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.4))
        for d in (1, 2, 3):
            for k in range(4):
                want = independent_set(G, k, d)
                got = brute_force_solve(DominationInstance(G, k, d), "is")
                assert (got.feasible, got.witness) == (want.feasible, want.witness)


@pytest.mark.parametrize("variant", ["ds", "ids", "dob", "is"])
def test_brute_rejects_distance_below_one(variant):
    with pytest.raises(GraphError, match="need d >= 1"):
        brute_force_solve(DominationInstance(dipath(3), 1, d=0), variant)


# --- independent dominating set -------------------------------------------------


def test_ids_on_crown():
    S3, _ = crown(3)
    got = independent_dominating_set(S3, 3)
    assert got.feasible and got.witness == (3, 4, 5)
    assert not independent_dominating_set(S3, 2).feasible


def test_ids_single_vertex():
    G = Digraph(1, [])
    assert independent_dominating_set(G, 1).feasible


def test_ids_witness_is_held_to_the_budget(monkeypatch):
    # three isolated vertices dominate and are independent, but they are
    # one more than k = 2 allows: an internal error, not an answer
    oversized = solvers.SolveOutcome(True, (0, 1, 2))
    monkeypatch.setattr(solvers, "_scatter_branch", lambda *args: oversized)
    with pytest.raises(RuntimeError, match="internal"):
        independent_dominating_set(Digraph(3), 2)


def test_ids_agrees_with_oracle():
    rng = random.Random(9090)
    for _ in range(40):
        G = random_digraph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.4))
        k = rng.randint(0, 4)
        got = independent_dominating_set(G, k)
        want, _ = oracle_solve(G, "ids", k)
        assert got.feasible == want
        if got.feasible:
            assert independent(G, got.witness) and dominates(G, got.witness, 1, G.vertices())


def test_ids_branching_path_used_on_larger_graphs(monkeypatch):
    # bigger than the exhaustive base so the scattered branching engages
    monkeypatch.setattr(solvers, "BASE_CAP", 6)
    rng = random.Random(11)
    for _ in range(8):
        G = random_digraph(rng, 14, 0.12)
        k = 4
        got = independent_dominating_set(G, k)
        want, _ = oracle_solve(G, "ids", k)
        assert got.feasible == want


# --- irrelevant targets ---------------------------------------------------------


def test_twin_targets_are_irrelevant():
    # mutually adjacent targets with the same external in-ball: either
    # one's domination forces the other's
    G = Digraph(4, [(0, 2), (0, 3), (2, 3), (3, 2)])
    w = find_irrelevant_vertex(G, (2, 3), d=1)
    assert w == 2


def test_separate_sinks_are_not_irrelevant():
    # each sink dominates only itself, so neither is implied by the other
    G = Digraph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    assert find_irrelevant_vertex(G, (2, 3), d=1) is None


def test_nested_in_balls():
    G = Digraph(4, [(0, 2), (0, 3), (1, 3)])
    # ball(2) = {0, 2} is not nested in ball(3) = {0, 1, 3}; no containment
    assert find_irrelevant_vertex(G, (2, 3), 1) is None
    G2 = Digraph(4, [(0, 2), (0, 3), (2, 3)])
    # ball(3) = {0, 2, 3} contains ball(2) = {0, 2}: 3 is irrelevant
    assert find_irrelevant_vertex(G2, (2, 3), 1) == 3


def test_irrelevant_vertex_contract_by_bruteforce():
    rng = random.Random(77)
    for _ in range(25):
        G = random_digraph(rng, rng.randint(3, 8), 0.3)
        k = rng.randint(1, 3)
        d = rng.randint(1, 2)
        W = sorted(v for v in G.vertices() if rng.random() < 0.7)
        if not W:
            continue
        w = find_irrelevant_vertex(G, W, d)
        if w is None:
            continue
        Wrest = [x for x in W if x != w]
        for size in range(0, k + 1):
            for X in itertools.combinations(sorted(G.vertices()), size):
                assert dominates(G, X, d, W) == dominates(G, X, d, Wrest)


def test_reversed_crown_principals_have_no_irrelevant_vertex():
    S4r, principals = reversed_crown(4)
    assert find_irrelevant_vertex(S4r, principals, 1) is None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_irrelevant_vertex_matches_the_pairwise_scan(d):
    # the library tests only the targets inside w's in-ball; the oracle
    # compares every ordered pair of targets
    rng = random.Random(4400 + d)
    found = 0
    for _ in range(120):
        G = random_digraph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.4))
        W = [v for v in G.vertices() if rng.random() < 0.6]
        want = irrelevant_vertex_by_scan(G, W, d)
        assert find_irrelevant_vertex(G, W, d) == want, (G.edges, W, d)
        found += want is not None
    assert 0 < found < 120


def test_ds_sweep_tests_only_targets_inside_each_ball(monkeypatch):
    """Work guard: ds's target sweep reads the in-ball table once per
    target and once per other target inside that target's ball, so at
    most n times the largest in-ball reads. Scanning every target for
    every target made about n^2/2 = 2M reads on this apex grid."""
    reads = [0]

    class CountingBalls(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

    def counting(G, d, direction="out"):
        balls = ball_masks(G, d, direction)
        return CountingBalls(balls) if direction == "in" else balls

    monkeypatch.setattr(solvers, "ball_masks", counting)
    G = apex_grid(45, 3)
    assert G.n == 2028
    got = d_dominating_set(G, 3, 1)
    assert got.feasible and got.witness == (2025, 2026, 2027)
    largest = max(ball.bit_count() for ball in ball_masks(G, 1, "in"))
    assert G.n <= reads[0] <= G.n * largest


# --- d-dominating set ------------------------------------------------------------


def test_dds_universal_source():
    T = acyclic_tournament(5)
    got = d_dominating_set(T, 1, 1)
    assert got.feasible and got.witness == (0,)


def test_dds_path_examples():
    G = dipath(5)
    assert d_dominating_set(G, 2, 2).feasible
    assert not d_dominating_set(G, 1, 2).feasible


def test_dds_crown4_needs_all_sources():
    S4, _ = crown(4)
    assert d_dominating_set(S4, 6, 1).feasible
    assert not d_dominating_set(S4, 5, 1).feasible


def test_dds_agrees_with_oracle():
    rng = random.Random(31415)
    for _ in range(40):
        G = random_digraph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.4))
        k = rng.randint(0, 4)
        d = rng.randint(1, 3)
        got = d_dominating_set(G, k, d)
        want, _ = oracle_solve(G, "ds", k, d)
        assert got.feasible == want
        if got.feasible:
            assert dominates(G, got.witness, d, G.vertices())


# --- Steiner out-trees -------------------------------------------------------------


def test_steiner_star():
    G = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    got = directed_steiner_outtree(G, (1, 2, 3))
    assert got is not None
    verts, parent = got
    assert verts == (0, 1, 2, 3)
    assert verify_outbranching(G, verts, parent)


def test_steiner_path_endpoints():
    G = dipath(5)
    verts, parent = directed_steiner_outtree(G, (0, 4))
    assert verts == (0, 1, 2, 3, 4)
    assert verify_outbranching(G, verts, parent)


def test_steiner_disconnected_terminals():
    G = Digraph(4, [(0, 1), (2, 3)])
    assert directed_steiner_outtree(G, (1, 3)) is None


def test_steiner_deep_arm_is_rebuilt_without_recursion():
    # root 0 with a leaf arm 0->1 and a long arm 0->2->...->L+1 that
    # forks into two leaves; rebuilding the tree walks the whole arm,
    # deeper than Python's recursion limit
    L = 1200
    edges = [(0, 1), (0, 2), (L + 1, L + 2), (L + 1, L + 3)]
    edges += [(i, i + 1) for i in range(2, L + 1)]
    G = Digraph(L + 4, edges)
    verts, parent = directed_steiner_outtree(G, (1, L + 2, L + 3))
    assert verts == tuple(range(L + 4))
    assert verify_outbranching(G, verts, parent)


def test_steiner_matches_exhaustive_minimum():
    rng = random.Random(2718)
    for _ in range(30):
        G = random_digraph(rng, rng.randint(3, 8), 0.3)
        tcount = rng.randint(1, 3)
        terms = sorted(rng.sample(range(G.n), tcount))
        got = directed_steiner_outtree(G, terms)
        want = oracle_steiner(G, terms)
        if want is None:
            assert got is None
        else:
            assert got is not None and len(got[0]) == want


# --- dominating out-branching --------------------------------------------------------


def test_dob_bidirected_star():
    G = bidirected_star(4)
    got = dominating_outbranching(G, 1)
    assert got.feasible
    D, parent = got.witness
    assert D == (0,)


def test_dob_crown_infeasible():
    S3, _ = crown(3)
    for k in range(0, 7):
        assert not dominating_outbranching(S3, k).feasible


def test_dob_directed_path():
    G = dipath(5)
    assert dominating_outbranching(G, 4).feasible
    assert not dominating_outbranching(G, 3).feasible


def test_dob_base_case_on_small_star():
    # four targets: the exhaustive base case answers without branching
    got = dominating_outbranching(bidirected_star(3), 1)
    assert got.feasible and not got.exhausted
    D, parent = got.witness
    assert D == (0,)
    assert parent == {0: None}


def test_in_source_screen_accepts_exactly_the_spanned_sets():
    # _root against its definition: an out-tree spans the vertex set,
    # and the root found is its smallest member that reaches the rest.
    # The battery holds sets with no, one and several in-sources (members
    # with no in-neighbour in the set), and sets that are one cycle. The
    # in-neighbour masks are given open and closed.
    rng = random.Random(2118)
    kinds = Counter()
    for _ in range(150):
        n = rng.randint(1, 12)
        G = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        cycle = rng.sample(range(n), rng.randint(1, n))
        if len(cycle) > 1:
            ring = {(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
            G = Digraph(n, set(G.edges) | ring)
        closed, into, in_ball = ball_masks(G, 1), adjacency_masks(G, "in"), ball_masks(G, 1, "in")
        masks = [rng.getrandbits(n) for _ in range(12)]
        masks.append(sum(1 << v for v in cycle))
        for inside in masks:
            D = [v for v in G.vertices() if inside >> v & 1]
            sources = sum(1 for v in D if not any(G.has_edge(u, v) for u in D))
            want = has_spanning_outtree(G, D)
            root = next((v for v in D if len(bfs_dist(G, v, within=set(D))) == len(D)), None)
            assert (root is not None) == want, (G.edges, D)
            assert solvers._root(inside, closed, into) == root, (G.edges, D)
            assert solvers._root(inside, closed, in_ball) == root, (G.edges, D)
            kinds[min(sources, 2), want] += 1
        assert solvers._root(masks[-1], closed, into) is not None
    # every kind of set occurs, and only sets with two or more in-sources
    # are never spanned
    assert {key for key in kinds} == {(0, True), (0, False), (1, True), (1, False), (2, False)}


def test_dob_witness_is_the_brute_force_witness_when_the_base_case_runs_alone():
    # with n <= W_CAP the first call goes to the exhaustive search, which
    # must return the smallest set, then the first combination, with the
    # parent map spanning_outtree gives it
    rng = random.Random(808)
    feasible = 0
    for _ in range(60):
        n = rng.randint(1, solvers.W_CAP)
        G = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        for k in range(0, n + 2):
            got = dominating_outbranching(G, k)
            want = brute_force_solve(DominationInstance(G, k), "dob")
            assert got.feasible == want.feasible, (G.edges, k)
            assert got.witness == want.witness, (G.edges, k)
            feasible += got.feasible
    assert feasible > 0


def test_dob_agrees_with_oracle():
    rng = random.Random(646)
    for _ in range(30):
        G = random_digraph(rng, rng.randint(2, 10), rng.uniform(0.15, 0.4))
        k = rng.randint(0, 4)
        got = dominating_outbranching(G, k)
        want, _ = oracle_solve(G, "dob", k)
        assert got.feasible == want
        if got.feasible:
            D, parent = got.witness
            assert len(D) <= k
            assert verify_outbranching(G, D, parent)
            assert dominates(G, D, 1, G.vertices())


def test_dob_asks_the_lemma_for_one_member_more_than_its_budget():
    # the chosen vertices dominate no target left, so j + 1 scattered
    # targets force one of the j vertices still to come into the deletion
    # set; asking for chosen + j + 1 members found no scattered set here
    # and fell back to the exhaustive search
    rng = random.Random(45)
    n = rng.randint(8, 16)
    p = rng.choice([0.1, 0.15, 0.2])
    G = random_digraph(rng, n, p)
    got = dominating_outbranching(G, 4)
    assert not got.feasible and not got.exhausted
    assert not brute_force_solve(DominationInstance(G, 4), "dob").feasible


def test_dob_answers_a_budget_of_every_vertex_without_enumerating_partitions():
    # six sources: each must be chosen, as only it dominates itself, and
    # an out-tree holds at most one. A base case that split all 14
    # targets into up to 14 groups ran for over a minute here.
    G = Digraph(14, [(0, 3), (1, 10), (2, 1), (2, 12), (2, 13), (4, 1), (4, 5), (4, 12),
                     (5, 4), (5, 11), (5, 13), (8, 10), (10, 4), (11, 12), (12, 1)])
    for k in (12, 14, 20):
        assert not dominating_outbranching(G, k).feasible
        assert not oracle_solve(G, "dob", k)[0]


def test_dob_agrees_with_oracle_on_the_benchmark_family(monkeypatch):
    # n 12-16, p 0.15, k 3-7: most of these instances first find a
    # scattered set and branch on it, so the exhaustive base case runs
    # with chosen vertices fixed
    found = []
    deletion_set = solvers.deletion_set

    def counting(*args):
        got = deletion_set(*args)
        found.append(got is not None)
        return got

    monkeypatch.setattr(solvers, "deletion_set", counting)
    rng = random.Random(3)
    verdicts = []
    for n in (12, 14, 16):
        for _ in range(2):
            G = random_digraph(rng, n, 0.15)
            for k in range(3, 8):
                got = dominating_outbranching(G, k)
                want, _ = oracle_solve(G, "dob", k)
                assert got.feasible == want, (n, k)
                verdicts.append(want)
                if got.feasible:
                    D, parent = got.witness
                    assert len(D) <= k
                    assert verify_outbranching(G, D, parent)
                    assert verify_dominating(G, D, 1)
    assert 0 < sum(verdicts) < len(verdicts)
    assert any(found) and not all(found)


def test_dob_fallback_skips_sets_that_cannot_dominate(monkeypatch):
    """Work guard: the exhaustive fallback hands accept only the subsets
    that can still dominate. Without the cover cuts this instance makes
    31,180 accept calls."""
    calls = [0]
    first_subset = solvers._first_subset

    def counting(cand, sizes, clash, cover, want, accept):
        def counted(members):
            calls[0] += 1
            return accept(members)

        return first_subset(cand, sizes, clash, cover, want, counted)

    monkeypatch.setattr(solvers, "_first_subset", counting)
    got = dominating_outbranching(random_digraph(random.Random(5), 18, 0.2), 6)
    assert not got.feasible and got.exhausted
    assert 0 < calls[0] < 10_000


def _ids_with_base_cap(monkeypatch, G, k, cap):
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "BASE_CAP", cap)
        return independent_dominating_set(G, k)


def test_solver_outcomes_are_pinned(monkeypatch):
    # a fixed battery of random digraphs (n 8-22) and apex grids, most of
    # whose calls branch on a scattered set: the hash of every verdict
    # and witness of ids (BASE_CAP 10 and 3) and dob, as the
    # frozenset-based ids and the list-probing dob produced them
    rng = random.Random(0x1D5)
    hosts = []
    for _ in range(300):
        n = rng.randint(8, 22)
        hosts.append((random_digraph(rng, n, rng.uniform(0.05, 0.3)), rng.randint(1, 6)))
    hosts += [(apex_grid(side, 3), k) for side in (4, 5, 6, 8) for k in (2, 3, 4)]
    outcomes = []
    for G, k in hosts:
        for got in (independent_dominating_set(G, k), _ids_with_base_cap(monkeypatch, G, k, 3),
                    dominating_outbranching(G, k)):
            w = got.witness
            if w is not None and isinstance(w[1], dict):
                w = (w[0], sorted(w[1].items()))
            outcomes.append((got.feasible, w))
    assert 0 < sum(f for f, _ in outcomes) < len(outcomes)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "9e800f8898d400d7a8703127d6f696c20efec6e3f676905705572f506e646efb"


def test_branching_fallbacks_are_pinned():
    # a fixed battery of random digraphs (n 6-26) with budgets up to 14,
    # so that ids's exhaustive threshold max(BASE_CAP, k + 1) passes
    # BASE_CAP: the hash of every verdict, witness and exhausted flag of
    # ids and dob. The flag is what `solve` prints as fallback=; ids on
    # the threshold max(BASE_CAP, k) gives another hash.
    rng = random.Random(7)
    outcomes = []
    for _ in range(200):
        n = rng.randint(6, 26)
        G = random_digraph(rng, n, rng.uniform(0.05, 0.35))
        k = rng.randint(0, 14)
        for got in (independent_dominating_set(G, k), dominating_outbranching(G, k)):
            w = got.witness
            if w is not None and isinstance(w[-1], dict):
                w = (w[0], sorted(w[1].items()))
            outcomes.append((got.feasible, w, got.exhausted))
    assert 0 < sum(e for _, _, e in outcomes) < len(outcomes)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "400e493be8f339254f197badd3b67c1e59821e037ec2172829e2661cbd24e1e0"


def test_ds_and_is_outcomes_are_pinned():
    # a fixed battery of random digraphs (n 1-24) and apex grids (sides
    # 4-12): the hash of every verdict and witness of ds (d 1-3) and is
    # (d 1-2), as the per-vertex reach sweep's ball tables produced them
    rng = random.Random(0xD5)
    hosts = []
    for _ in range(200):
        n = rng.randint(1, 24)
        hosts.append((random_digraph(rng, n, rng.uniform(0.05, 0.4)), rng.randint(0, 6)))
    hosts += [(apex_grid(side, 3), k) for side in (4, 6, 9, 12) for k in (2, 3, 4)]
    outcomes = []
    for G, k in hosts:
        for d in (1, 2, 3):
            outcomes.append(tuple(d_dominating_set(G, k, d)))
        for d in (1, 2):
            outcomes.append(tuple(independent_set(G, k, d)))
    assert 0 < sum(f for f, _, _ in outcomes) < len(outcomes)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "43b3a56c4f73e608c0248d7b7da98c6bdad596bd7a5d74895925dba074efd742"


def test_branching_builds_no_digraph(monkeypatch):
    # ids and dob read every branch off ball tables built once per call;
    # building a graph per branching node, as a vertex deletion does,
    # would construct one Digraph per node
    hosts = [(apex_grid(6, 3), 3)]
    rng = random.Random(21)
    hosts += [(random_digraph(rng, rng.randint(14, 20), 0.15), rng.randint(2, 4)) for _ in range(10)]
    cuts = []
    deletion_set = solvers.deletion_set

    def counting(*args):
        got = deletion_set(*args)
        cuts.append(got is not None)
        return got

    monkeypatch.setattr(solvers, "deletion_set", counting)
    built = [0]
    init = Digraph.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Digraph, "__init__", counted)
    for G, k in hosts:
        independent_dominating_set(G, k)
        _ids_with_base_cap(monkeypatch, G, k, 3)
        dominating_outbranching(G, k)
    assert sum(cuts) > 20
    assert built[0] == 0


def test_branching_probe_checks_no_vertex_ids(monkeypatch):
    # Work guard: the probe rechecks its deletion set on masks. Listing
    # the dead vertices at every branching node and range-checking them,
    # as an id-based recheck does, makes 4,949 check_vertex calls here.
    G = apex_grid(70, 3)
    calls = [0]
    check = Digraph.check_vertex

    def counted(self, v):
        calls[0] += 1
        return check(self, v)

    monkeypatch.setattr(Digraph, "check_vertex", counted)
    got = independent_dominating_set(G, 3)
    assert got.feasible and not got.exhausted
    assert calls[0] <= 10


# --- independent set --------------------------------------------------------------


def test_is_crown_sources():
    S4, _ = crown(4)
    got = independent_set(S4, 6)
    assert got.feasible and len(got.witness) == 6
    assert verify_independent(S4, got.witness)


def test_is_bidirected_clique():
    K4 = bidirect(underlying_undirected(acyclic_tournament(4)))
    assert independent_set(K4, 1).feasible
    assert not independent_set(K4, 2).feasible


def test_is_agrees_with_oracle():
    rng = random.Random(8888)
    for _ in range(40):
        G = random_digraph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.5))
        k = rng.randint(0, 4)
        got = independent_set(G, k)
        want, _ = oracle_solve(G, "is", k)
        assert got.feasible == want
        if got.feasible and k:
            assert verify_independent(G, got.witness)


def test_is_witness_is_checked(monkeypatch):
    # the search's answer is checked against the graph: a set with two
    # members within distance d of each other is an internal error
    G = dipath(5)
    assert independent_set(G, 2, d=2).witness == (0, 3)
    monkeypatch.setattr(solvers, "_first_subset", lambda *args: (0, 2))
    with pytest.raises(RuntimeError, match="internal"):
        independent_set(G, 2, d=2)
    monkeypatch.setattr(solvers, "_first_subset", lambda *args: (2, 0))
    with pytest.raises(RuntimeError, match="internal"):
        independent_set(G, 2, d=2)


def test_is_distance_two():
    G = dipath(5)
    got = independent_set(G, 2, d=2)
    assert got.feasible
    u, w = sorted(got.witness)
    assert w - u > 2
    assert not independent_set(G, 3, d=2).feasible


# --- shared properties ---------------------------------------------------------------


def test_solvers_monotone_in_k():
    rng = random.Random(133)
    for _ in range(15):
        G = random_digraph(rng, rng.randint(3, 9), 0.3)
        for solver in (
            lambda k: d_dominating_set(G, k, 1),
            lambda k: independent_dominating_set(G, k),
            lambda k: dominating_outbranching(G, k),
        ):
            feas = [solver(k).feasible for k in range(0, 5)]
            assert all(b or not a for a, b in zip(feas, feas[1:]))


@pytest.mark.parametrize("d", [0, -3])
def test_independent_set_rejects_distance_below_one(d):
    # as d_dominating_set does; below 1 the radius has no meaning
    for G in (Digraph(0), acyclic_tournament(4)):
        for k in (0, 2):
            with pytest.raises(GraphError):
                independent_set(G, k, d)
    with pytest.raises(GraphError):
        d_dominating_set(acyclic_tournament(4), 2, d)


def test_scattered_branching_is_sound():
    # whenever a verified 1-scattered witness of size k+1 exists, no
    # dominating set of size <= k avoids its deletion set
    from crownminor.quasiwide import compute_scattered

    rng = random.Random(515)
    for _ in range(20):
        G = random_digraph(rng, rng.randint(4, 9), 0.25)
        k = rng.randint(1, 3)
        if G.n < k + 1:
            continue
        w = compute_scattered(G, sorted(G.vertices()), 1, k + 1, s_budget=3)
        if w is None:
            continue
        S = set(w.deleted)
        for size in range(0, k + 1):
            for D in itertools.combinations(sorted(G.vertices()), size):
                if dominates(G, D, 1, G.vertices()):
                    assert set(D) & S, (G, w, D)


def count_bfs_calls(monkeypatch):
    """A one-element list that counts every bfs_dist call made through
    the digraph, solvers, quasiwide and verify modules from now on."""
    import crownminor.digraph
    import crownminor.quasiwide
    import crownminor.solvers
    import crownminor.verify

    calls = [0]
    bfs = crownminor.digraph.bfs_dist

    def counted(*args, **kwargs):
        calls[0] += 1
        return bfs(*args, **kwargs)

    for mod in (crownminor.digraph, crownminor.solvers, crownminor.quasiwide, crownminor.verify):
        monkeypatch.setattr(mod, "bfs_dist", counted)
    return calls


def test_exhaustive_searches_do_not_run_a_bfs_per_subset(monkeypatch):
    # the balls are computed once per call as bitmasks; a search that
    # went back to one BFS per member per subset would make tens of
    # thousands of calls on these instances
    calls = count_bfs_calls(monkeypatch)

    G = random_digraph(random.Random(0), 18, 0.2)
    got = independent_set(G, 8)
    assert not got.feasible and not got.exhausted
    assert calls[0] <= 4 * G.n

    calls[0] = 0
    G = random_digraph(random.Random(5), 18, 0.2)
    got = dominating_outbranching(G, 6)
    assert not got.feasible and got.exhausted
    assert calls[0] <= 4 * G.n


def test_steiner_table_runs_no_bfs_of_its_own(monkeypatch):
    # the Steiner table steps back along in-edges and records every
    # step, so it runs no BFS to seed rows or to rebuild the tree; a
    # found tree makes the one in spanning_outtree, a miss makes none
    calls = count_bfs_calls(monkeypatch)
    G = random_digraph(random.Random(3), 18, 0.15)
    # vertex 18 is isolated, so no tree holds it and another terminal
    H = Digraph(G.n + 1, G.edges)
    rng = random.Random(7)
    cases = [rng.sample(range(G.n), size) for size in (1, 2, 3, 4, 5) for _ in range(3)]
    cases += [rng.sample(range(G.n), size) + [18] for size in (1, 2, 4)]
    found = missed = 0
    for terminals in cases:
        calls[0] = 0
        got = directed_steiner_outtree(H, terminals)
        if got is None:
            missed += 1
            assert calls[0] == 0, terminals
        else:
            found += 1
            assert calls[0] <= 1, terminals
    assert found == 15 and missed == 3


def count_solver_frames(name, run):
    """run(), and the number of calls it made to functions named name in
    solvers.py, counted by a profile hook on every call."""
    calls = [0]
    here = solvers.__file__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == name and frame.f_code.co_filename == here:
            calls[0] += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        got = run()
    finally:
        sys.setprofile(before)
    return got, calls[0]


def test_dob_settles_the_last_member_without_a_call_per_candidate():
    """Work guard: the subset search tries each candidate for the last
    open place in one scan. A recursive call per candidate makes 4,281
    rec frames on this host, the solve workload's 16-vertex random
    digraph (p 0.15) whose optimum is 7."""
    G = Digraph(16, [(0, 5), (0, 9), (0, 15), (1, 3), (1, 9), (1, 10), (2, 1), (2, 3), (2, 4),
                     (3, 4), (3, 15), (4, 5), (5, 7), (5, 10), (6, 7), (7, 6), (7, 12), (8, 12),
                     (8, 13), (9, 2), (9, 3), (9, 6), (9, 14), (10, 1), (10, 2), (10, 3),
                     (11, 3), (11, 4), (11, 7), (12, 6), (12, 9), (12, 10), (12, 15), (13, 2),
                     (13, 4), (13, 8), (13, 12), (14, 11), (14, 15), (15, 13), (15, 14)])
    got, calls = count_solver_frames("rec", lambda: dominating_outbranching(G, 7))
    assert got.feasible and len(got.witness[0]) == 7
    assert not dominating_outbranching(G, 6).feasible
    assert calls <= 2_000


def test_ds_settles_the_last_choice_without_a_call_per_holder():
    """Work guard: the cover tries each holder for its last choice in
    one scan. On the 36-vertex directed path each open target has two
    holders at most and 18 vertices are needed, so at k = 16 the search
    is a binary tree: a recursive call per last choice makes 2^16 =
    65,536 cover calls here."""
    got, calls = count_solver_frames("cover", lambda: d_dominating_set(dipath(36), 16))
    assert not got.feasible
    assert calls <= 32_768
