import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import crownminor.generators as generators
from crownminor.digraph import (
    Digraph,
    GraphError,
    is_dag,
    is_directed_bipartite,
    count_alternations,
    underlying_undirected,
)
from crownminor.generators import (
    acyclic_tournament,
    alternating_path,
    crown,
    crown_pattern_probability,
    embed_acyclic_tournament,
    extract_grid_alternating_path,
    grid_undirected_edges,
    grid_vertex,
    oriented_grid,
    random_bipartite_outregular,
    random_tournament,
    reversed_crown,
)
from crownminor.graphio import emit_graph
from crownminor.rng import SplitMix64

from oracles import crown_source_id, randrange_sample, split, split_sample


def test_crown_counts():
    S3, principals = crown(3)
    assert S3.n == 6 and S3.num_edges() == 6
    assert principals == (0, 1, 2)
    S1, p1 = crown(1)
    assert S1.n == 1 and S1.num_edges() == 0
    S4, _ = crown(4)
    assert S4.n == 10 and S4.num_edges() == 12
    assert all(S4.out_degree(u) == 2 and S4.in_degree(u) == 0 for u in range(4, 10))
    assert all(S4.in_degree(v) == 3 and S4.out_degree(v) == 0 for v in range(4))


def test_crown_structure_invariants():
    for q in range(1, 6):
        Sq, principals = crown(q)
        assert is_dag(Sq)
        assert is_directed_bipartite(Sq) is not None
        for i, j in itertools.combinations(range(q), 2):
            u = crown_source_id(q, i, j)
            assert Sq.has_edge(u, i) and Sq.has_edge(u, j)


def test_crown_rejects_nonpositive_order():
    with pytest.raises(GraphError):
        crown(0)


def test_reversed_crown():
    S3r, _ = reversed_crown(3)
    assert S3r.num_edges() == 6
    assert all(S3r.in_degree(v) <= 2 for v in S3r.vertices())
    assert underlying_undirected(S3r) == underlying_undirected(crown(3)[0])


def test_alternating_path_edges():
    ap1 = alternating_path(1, "odd")
    assert set(ap1.edges) == {(1, 0), (1, 2)}
    ap2 = alternating_path(2, "even")
    assert set(ap2.edges) == {(0, 1), (2, 1), (2, 3)}
    for k in range(1, 5):
        ap = alternating_path(k)
        assert ap.n == k + 2 and ap.num_edges() == k + 1
        assert count_alternations(ap, list(range(ap.n))) == k
    with pytest.raises(GraphError):
        alternating_path(0)


def test_tournaments():
    T = acyclic_tournament(3)
    assert set(T.edges) == {(0, 1), (0, 2), (1, 2)}
    assert is_dag(acyclic_tournament(6))
    for seed in range(5):
        R = random_tournament(7, seed)
        assert R.num_edges() == 21
        assert underlying_undirected(R).num_edges() == 21
    assert random_tournament(7, 3) == random_tournament(7, 3)


def test_embed_acyclic_tournament_in_random():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(10):
            T = random_tournament(2 ** n, rng.randrange(1 << 30))
            img = embed_acyclic_tournament(T, n)
            assert img is not None
            for a, b in itertools.combinations(range(n), 2):
                assert T.has_edge(img[a], img[b])


def test_oriented_grid_shape():
    G = oriented_grid(2, 3, seed=4)
    assert G.n == 6 and G.num_edges() == 7
    und = underlying_undirected(G)
    assert und.num_edges() == 7
    assert {tuple(sorted(e)) for e in und.edges} == set(grid_undirected_edges(2, 3))
    right_down = oriented_grid(2, 3, choices=[True] * 7)
    assert is_dag(right_down)
    with pytest.raises(GraphError):
        oriented_grid(2, 3)
    with pytest.raises(GraphError):
        oriented_grid(2, 3, seed=1, choices=[True] * 7)


@pytest.mark.parametrize("l1,l2", [(0, 3), (3, 0), (-1, -3), (-2, 4)])
def test_oriented_grid_rejects_sides_below_one(l1, l2):
    with pytest.raises(GraphError):
        oriented_grid(l1, l2, seed=1)
    with pytest.raises(GraphError):
        oriented_grid(l1, l2, choices=[])


def test_grid_vertex_bounds():
    assert grid_vertex(2, 3, 1, 1) == 0
    assert grid_vertex(2, 3, 2, 3) == 5
    with pytest.raises(GraphError):
        grid_vertex(2, 3, 3, 1)


def test_grid_extraction_exhaustive_l1():
    # all 2^7 orientations of the 2x3 grid
    for bits in range(128):
        choices = [(bits >> i) & 1 == 1 for i in range(7)]
        G = oriented_grid(2, 3, choices=choices)
        path = extract_grid_alternating_path(G)
        assert path[0] == grid_vertex(2, 3, 1, 1)
        assert path[-1] in (grid_vertex(2, 3, 2, 1), grid_vertex(2, 3, 2, 3))
        assert count_alternations(G, path) >= 1


def test_grid_extraction_fully_forward_snake_forces_hook():
    # orient so the top snake is a directed path; the hook must alternate
    l1, l2 = 2, 3
    snake = [(1, 1), (1, 2), (1, 3), (2, 3), (2, 2), (2, 1)]
    ids = [grid_vertex(l1, l2, i, j) for i, j in snake]
    choices = []
    for a, b in grid_undirected_edges(l1, l2):
        if (a, b) in zip(ids, ids[1:]):
            choices.append(True)
        elif (b, a) in zip(ids, ids[1:]):
            choices.append(False)
        else:
            choices.append(True)
    G = oriented_grid(l1, l2, choices=choices)
    assert count_alternations(G, ids) == 0
    path = extract_grid_alternating_path(G)
    assert path[-1] == grid_vertex(l1, l2, 2, 3)  # the hook endpoint
    assert count_alternations(G, path) >= 1


def test_grid_extraction_random_larger():
    rng = random.Random(5150)
    for l in (2, 3):
        for _ in range(25):
            G = oriented_grid(2 * l, 3, seed=rng.randrange(1 << 40))
            path = extract_grid_alternating_path(G)
            assert path[0] == 0
            assert count_alternations(G, path) >= l
            assert path[-1] // 3 == 2 * l - 1


def test_grid_extraction_rejects_non_grid():
    with pytest.raises(GraphError):
        extract_grid_alternating_path(crown(3)[0])
    # a 2 x 3 grid plus an isolated vertex is no grid
    padded = Digraph(7, oriented_grid(2, 3, seed=3).edges)
    with pytest.raises(GraphError, match="^host is not a 2l x 3 grid orientation$"):
        extract_grid_alternating_path(padded)


def assert_grid_spine(G, l, path):
    """The extraction contract: a path of distinct grid neighbours from
    cell (1,1) into row 2l with at least l alternations."""
    assert path[0] == grid_vertex(2 * l, 3, 1, 1)
    assert path[-1] // 3 == 2 * l - 1
    assert len(set(path)) == len(path)
    grid = set(grid_undirected_edges(2 * l, 3))
    assert all((min(a, b), max(a, b)) in grid for a, b in zip(path, path[1:]))
    assert count_alternations(G, path) >= l


def test_grid_extraction_walks_once(monkeypatch):
    # every snake, mirrored or not, is a directed path: top rows run
    # left to right, bottom rows right to left, column 1 upwards and
    # column 3 downwards inside each pair of rows. The walk takes the
    # hook at every pair, with one snake test per pair plus the final
    # check; a search over candidate spines makes many more calls.
    l = 12
    choices = [
        (a // 3) % 2 == 0 if b == a + 1 else not ((a // 3) % 2 == 0 and a % 3 == 0)
        for a, b in grid_undirected_edges(2 * l, 3)
    ]
    G = oriented_grid(2 * l, 3, choices=choices)
    calls = []

    def counted(G, path):
        calls.append(len(path))
        return count_alternations(G, path)

    monkeypatch.setattr(generators, "count_alternations", counted)
    path = extract_grid_alternating_path(G)
    assert len(calls) <= l + 1
    assert len(path) == 4 * l  # hooks only
    assert_grid_spine(G, l, path)


def test_grid_extraction_scales_to_a_thousand_row_pairs():
    l = 1000
    G = oriented_grid(2 * l, 3, seed=1000)
    assert_grid_spine(G, l, extract_grid_alternating_path(G))


def test_grid_extraction_contract_sweep():
    rng = random.Random(0x5913)
    for l in range(1, 41):
        for _ in range(5):
            G = oriented_grid(2 * l, 3, seed=rng.randrange(1 << 48))
            assert_grid_spine(G, l, extract_grid_alternating_path(G))


def test_random_bipartite_outregular():
    G = random_bipartite_outregular(4, 4, seed=0)
    assert G.num_edges() == 16  # complete orientation
    for n, d, seed in ((6, 2, 1), (8, 3, 2), (5, 0, 3)):
        G = random_bipartite_outregular(n, d, seed)
        assert G.num_edges() == n * d
        assert all(G.out_degree(a) == d for a in range(n))
        assert all(G.out_degree(b) == 0 for b in range(n, 2 * n))
        assert G == random_bipartite_outregular(n, d, seed)
    with pytest.raises(GraphError):
        random_bipartite_outregular(3, 4, seed=0)


# SHA-1 of emit_graph's text for fixed (generator, arguments), recorded
# with the full-copy sampler; any drift in a seeded generator shows here.
PINNED_HOSTS = [
    (random_bipartite_outregular, (5, 2, 0), "1561ae7e3673d1a253dcf2f33d1c80f3a6c050c3"),
    (random_bipartite_outregular, (20, 3, 1), "75f55d29c609f7ca7b12a797b6472c5d8661d0a5"),
    (random_bipartite_outregular, (50, 5, 7), "0db53fa05763ca4422345f1560030cc6eb32ef4e"),
    (random_bipartite_outregular, (1000, 3, 1), "fa6660d864fbb1a597551898bc80649bd33d3402"),
    (random_bipartite_outregular, (1000, 3, 2), "fd5ec617edcc3fa0c1d16c080718d063749e7787"),
    (oriented_grid, (3, 4, 0), "8e06c5038df060bf27f78785b560939a59602627"),
    (oriented_grid, (5, 5, 1), "2258c0b2012ca3e5cb34259f9ceb843df4eb34cb"),
    (oriented_grid, (8, 6, 42), "0d9836566cb461d7b74e8ba4e0458934c9c73314"),
    (random_tournament, (4, 0), "0d45ec782deb8ca9b008924340603de382233918"),
    (random_tournament, (9, 3), "283750684ef76a43ee2ff5082d0d14ead6738e2d"),
    (random_tournament, (20, 11), "bd175520d7bfc67d6a0d6ab7497321e6098442d7"),
    # the shapes where a side is 1 or a draw is empty
    (oriented_grid, (1, 7, 3), "fc1598ee6833f9620adcab9271cccd72043e1085"),
    (oriented_grid, (7, 1, 3), "fc1598ee6833f9620adcab9271cccd72043e1085"),
    (oriented_grid, (1, 1, 0), "e5fa44f2b31c1fb553b6021e7360d07d5d91ff5e"),
    (oriented_grid, (2, 9, 5), "df047c28049f034ff304cda3cce1cacc716f27a8"),
    (random_tournament, (1, 0), "e5fa44f2b31c1fb553b6021e7360d07d5d91ff5e"),
    (random_bipartite_outregular, (6, 6, 2), "6f5aa91bab93a60f3a684482aa355f7a4e60c967"),
    (random_bipartite_outregular, (6, 0, 2), "ad552e6dc057d1d825bf49df79d6b98eba846ebe"),
]


@pytest.mark.parametrize("gen,args,digest", PINNED_HOSTS,
                         ids=["%s%s" % (g.__name__, a) for g, a, _ in PINNED_HOSTS])
def test_seeded_generators_are_pinned(gen, args, digest):
    G = gen(*args)
    assert hashlib.sha1(emit_graph(G).encode()).hexdigest() == digest


def test_sample_rejects_a_negative_size():
    with pytest.raises(ValueError):
        SplitMix64(1).samples([0], range(5), -1)


def test_sample_never_copies_the_population():
    [got] = SplitMix64(1).samples([0], range(10**18), 3)
    assert len(set(got)) == 3 and all(0 <= x < 10**18 for x in got)


class CountingMix(SplitMix64):
    """A SplitMix64 that counts its next_u64 draws."""

    __slots__ = ("draws",)

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


# len() caps a population below 2^63, so this one has the largest share
# of refused draws a sequence can have: 2^64 mod n is n - 2, and about a
# third of the draws below n, each sample's first, are refused
MOST_REFUSED = range(2**64 // 3 + 1)


def test_sample_matches_randrange_draws_through_rejections():
    refused = 0
    for seed in range(50):
        rows = SplitMix64(seed).samples(range(3), MOST_REFUSED, 8)
        for key, row in enumerate(rows):
            want = CountingMix(split(SplitMix64(seed), key)._state)
            assert row == randrange_sample(want, MOST_REFUSED, 8)
            refused += want.draws - 8
    assert refused > 0


@pytest.mark.parametrize("n,d", [(1, 0), (1, 1), (5, 0), (5, 5), (6, 2), (40, 3), (200, 7),
                                 (len(MOST_REFUSED), 6)])
def test_host_sampler_matches_the_per_vertex_draws(n, d):
    side = range(n, 2 * n)
    keys = list(range(min(n, 60))) + [-1, 2**64 + 5]
    for seed in (0, 1, 7, 2**64 - 1, -3):
        rng = SplitMix64(seed)
        assert rng.samples(keys, side, d) == [split_sample(rng, a, side, d) for a in keys]
        # drawing for the children leaves the parent where it was
        assert rng.next_u64() == SplitMix64(seed).next_u64()


def test_crown_pattern_probability_values():
    exact, bound = crown_pattern_probability(4, 1, 2)
    assert exact == 0  # one out-edge cannot cover a pair
    exact, bound = crown_pattern_probability(4, 2, 2)
    assert exact == Fraction(math.comb(2, 0), math.comb(4, 2)) == Fraction(1, 6)
    # closed form d(d-1)/(n(n-1)) per source
    for n in range(3, 12):
        for d in range(2, n + 1):
            exact, _ = crown_pattern_probability(n, d, 2)
            assert exact == Fraction(d * (d - 1), n * (n - 1))


@pytest.mark.parametrize("n,d,q", [(3, 5, 2), (2, 3, 1), (1, 2, 2)])
def test_crown_pattern_probability_rejects_a_degree_above_n(n, d, q):
    # the random model draws d of n targets, so a d above n has no
    # probability: both reject it alike, before any arithmetic
    with pytest.raises(GraphError, match=r"need 0 <= d <= n"):
        crown_pattern_probability(n, d, q)
    with pytest.raises(GraphError, match=r"need 0 <= d <= n"):
        random_bipartite_outregular(n, d, 0)


def test_crown_pattern_probability_bound_dominates():
    for n in range(3, 21):
        for d in range(0, (n - 1) // 2 + 1):
            for q in (2, 3):
                exact, bound = crown_pattern_probability(n, d, q)
                assert exact <= bound


def test_crown_pattern_probability_monte_carlo_smoke():
    # small-sample sanity; the acceptance suite runs the full version
    n, d, q = 8, 3, 2
    exact, _ = crown_pattern_probability(n, d, q)
    a_vertices = [0]
    b_pair = [n, n + 1]
    hits = 0
    trials = 4000
    for seed in range(trials):
        G = random_bipartite_outregular(n, d, seed)
        if all(G.has_edge(a_vertices[0], b) for b in b_pair):
            hits += 1
    freq = hits / trials
    se = math.sqrt(float(exact) * (1 - float(exact)) / trials)
    assert abs(freq - float(exact)) <= 4 * se
