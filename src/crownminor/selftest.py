"""Built-in check battery behind the `selftest` CLI command.

Each check is a named pass/fail with a short detail string. The small
scale keeps everything under a few seconds; full raises the instance
counts. These are smoke-level cross-validations; the full acceptance
suite lives in the test directory.
"""

import random

from .digraph import BudgetExhausted, Digraph, count_alternations, is_dag, underlying_undirected
from .generators import (
    acyclic_tournament,
    crown,
    crown_pattern_probability,
    extract_grid_alternating_path,
    oriented_grid,
    random_bipartite_outregular,
    random_dag,
    random_digraph,
    random_tournament,
    reversed_crown,
)
from .graphio import emit_graph, parse_graph
from .minors import (
    IntervalPartition,
    dag_disjoint_paths,
    dag_disjoint_paths_bounded,
    general_minor_check,
    is_butterfly_minor,
    legal_butterfly_contractions,
    butterfly_contract,
    shallow_minor_check,
    subgraph_check,
    topological_minor_check,
)
from .quasiwide import clique_threshold, dichotomy_step, ramsey_upper, uniform_level_threshold
from .solvers import (
    DominationInstance,
    brute_force_solve,
    d_dominating_set,
    dominating_outbranching,
    independent_dominating_set,
    independent_set,
)
from .verify import ScatteredWitness, is_scattered, verify_model, verify_outbranching
from .witnessdoc import WitnessFormatError, emit_model, parse_witness


def run_selftest(scale="small"):
    """Run every check; returns a list of (name, ok, detail)."""
    reps = 6 if scale == "small" else 30
    results = []

    def record(name, fn):
        try:
            detail = fn()
            results.append((name, True, detail or "ok"))
        except Exception as err:  # noqa: BLE001 - report, never crash
            results.append((name, False, "%s: %s" % (type(err).__name__, err)))

    def graph_roundtrip():
        rng = random.Random(10)
        for _ in range(reps):
            G = random_digraph(rng, rng.randint(1, 9), 0.3)
            if parse_graph(emit_graph(G)) != G:
                raise AssertionError("round-trip changed the graph")
        return "%d graphs" % reps

    record("graph-roundtrip", graph_roundtrip)

    def crown_shapes():
        for q in range(1, 6):
            Sq, principals = crown(q)
            assert Sq.n == q + q * (q - 1) // 2
            assert Sq.num_edges() == q * (q - 1)
            assert is_dag(Sq)
            Sr, _ = reversed_crown(q)
            assert underlying_undirected(Sr) == underlying_undirected(Sq)
        return "orders 1..5"

    record("crown-shapes", crown_shapes)

    def grid_alternations():
        count = 0
        for bits in range(0, 128, 1 if scale == "full" else 5):
            choices = [(bits >> i) & 1 == 1 for i in range(7)]
            G = oriented_grid(2, 3, choices=choices)
            path = extract_grid_alternating_path(G, l=1)
            assert count_alternations(G, path) >= 1
            count += 1
        rng = random.Random(77)
        for _ in range(reps):
            l = rng.randint(2, 3)
            G = oriented_grid(2 * l, 3, seed=rng.randrange(1 << 40))
            path = extract_grid_alternating_path(G)
            assert count_alternations(G, path) >= l
            count += 1
        return "%d orientations" % count

    record("grid-alternations", grid_alternations)

    def disjoint_path_shapes():
        rng = random.Random(5)
        for _ in range(reps):
            G = random_dag(rng, rng.randint(4, 8), 0.35)
            k = rng.randint(1, 3)
            pairs = [(rng.randrange(G.n), rng.randrange(G.n)) for _ in range(k)]
            part = IntervalPartition.from_sizes([1] * k)
            got = dag_disjoint_paths(G, pairs, part)
            bounded = dag_disjoint_paths_bounded(G, pairs, part, G.n)
            assert (got is None) == (bounded is None)
            if got is not None:
                used = [set(p) for p in got]
                for i in range(k):
                    for j in range(i + 1, k):
                        assert not used[i] & used[j]
                    assert got[i][0] == pairs[i][0] and got[i][-1] == pairs[i][1]
        return "%d instances" % reps

    record("disjoint-paths", disjoint_path_shapes)

    def minor_checkers_agree():
        rng = random.Random(21)
        for _ in range(reps):
            G = random_dag(rng, rng.randint(3, 6), 0.4)
            H = random_digraph(rng, rng.randint(1, 3), 0.4)
            # a subdivision is a model whose branches are paths
            if topological_minor_check(H, G) is not None:
                assert general_minor_check(H, G) is not None
            s = shallow_minor_check(H, G, 0)
            assert (s is None) == (subgraph_check(H, G) is None)
        return "%d instances" % reps

    record("minor-checkers", minor_checkers_agree)

    def butterfly_implies_minor():
        rng = random.Random(33)
        for _ in range(reps):
            G = random_digraph(rng, rng.randint(3, 6), 0.4)
            H = G
            for _ in range(2):
                ops = legal_butterfly_contractions(H)
                if not ops or H.n <= 1:
                    break
                H = butterfly_contract(H, ops[rng.randrange(len(ops))])
            assert general_minor_check(H, G) is not None
            assert is_butterfly_minor(H, G) is not None
        star = Digraph(5, [(1, 0), (2, 0), (0, 3), (0, 4)])
        host = Digraph(6, [(2, 0), (3, 1), (0, 1), (1, 0), (0, 4), (1, 5)])
        assert general_minor_check(star, host) is not None
        assert is_butterfly_minor(star, host) is None
        return "sequences plus the stored counterexample"

    record("butterfly-vs-minor", butterfly_implies_minor)

    def dichotomy_outcomes():
        S3, principals = crown(3)
        got = dichotomy_step(S3, principals, 0, p=2, q=3)
        assert verify_model(got)[0]
        S6r, principals = reversed_crown(6)
        w = dichotomy_step(S6r, principals, 1, p=3, q=3)
        assert isinstance(w, ScatteredWitness) and w.verify()
        rng = random.Random(55)
        produced = 0
        for _ in range(reps):
            G = random_digraph(rng, rng.randint(6, 12), 0.15)
            I = []
            for v in range(G.n):
                if is_scattered(G, I + [v], 1):
                    I.append(v)
            if len(I) < 3:
                continue
            try:
                res = dichotomy_step(G, I, 1, p=3, q=2)
            except BudgetExhausted:
                continue
            produced += 1
            if isinstance(res, ScatteredWitness):
                assert res.verify()
            else:
                assert verify_model(res)[0]
        return "%d random outcomes" % produced

    record("dichotomy", dichotomy_outcomes)

    def solver_agreement():
        rng = random.Random(99)
        for _ in range(reps):
            G = random_digraph(rng, rng.randint(2, 9), 0.3)
            k = rng.randint(0, 3)
            inst = DominationInstance(G, k)
            assert (
                d_dominating_set(G, k, 1).feasible
                == brute_force_solve(inst, "ds").feasible
            )
            assert (
                independent_dominating_set(G, k).feasible
                == brute_force_solve(inst, "ids").feasible
            )
            assert (
                independent_set(G, k).feasible
                == brute_force_solve(inst, "is").feasible
            )
            got = dominating_outbranching(G, k)
            assert got.feasible == brute_force_solve(inst, "dob").feasible
            if got.feasible:
                D, parent = got.witness
                assert verify_outbranching(G, D, parent)
        return "%d instances x 4 variants" % reps

    record("solver-oracle", solver_agreement)

    def embedding_and_density():
        rng = random.Random(111)
        for n in (1, 2, 3):
            T = random_tournament(2 ** n, rng.randrange(1 << 30))
            from .generators import embed_acyclic_tournament

            assert embed_acyclic_tournament(T, n) is not None
        exact, bound = crown_pattern_probability(8, 3, 2)
        assert 0 < exact <= bound
        G = random_bipartite_outregular(6, 2, seed=3)
        assert G == random_bipartite_outregular(6, 2, seed=3)
        return "orders 1..3"

    record("tournament-embedding", embedding_and_density)

    def bound_values():
        assert ramsey_upper(2) == 2
        assert clique_threshold(1) == 1
        assert clique_threshold(2) == 3
        assert uniform_level_threshold(2, 2) == 4096
        return "reference values"

    record("bound-values", bound_values)

    def witness_tamper():
        S3, principals = crown(3)
        model = dichotomy_step(S3, principals, 0, p=2, q=3)
        doc = emit_model(model, kind="crown", params=[("order", 3)])
        parse_witness(doc, host=S3)
        bad = doc.replace("branch 0: 0", "branch 0: 0 3")
        try:
            parse_witness(bad, host=S3)
        except WitnessFormatError:
            return "tampered document rejected"
        raise AssertionError("tampered document was accepted")

    record("witness-tamper", witness_tamper)

    def determinism():
        one = emit_graph(random_tournament(7, 99))
        two = emit_graph(random_tournament(7, 99))
        assert one == two
        a = dichotomy_step(*_det_instance())
        b = dichotomy_step(*_det_instance())
        assert type(a) is type(b)
        if isinstance(a, ScatteredWitness):
            assert (a.deleted, a.members) == (b.deleted, b.members)
        else:
            assert a.branch == b.branch and a.edge_image == b.edge_image
        return "seed-pinned reruns identical"

    record("determinism", determinism)

    return results


def _det_instance():
    S4r, principals = reversed_crown(4)
    return S4r, principals, 1, 3, 2


def format_results(results):
    lines = []
    for name, ok, detail in results:
        lines.append("%s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    good = sum(1 for _, ok, _ in results if ok)
    lines.append("%d/%d checks passed" % (good, len(results)))
    return "\n".join(lines)
