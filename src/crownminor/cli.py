"""Command-line interface.

Commands: generate, minor, scatter, dichotomy, solve, grad, selftest.
Exit codes: 0 found/feasible, 1 not found/infeasible, 2 budget
exhausted, 3 usage error, 4 input/format error, 5 internal error (a
bug: a failed self-check or any other unexpected exception, reported
in one line on stderr). Structured output mode
emits only the witness document and demands an explicit seed from every
randomized command; selftest, which has no document, runs in human mode
only.

Each command imports the library layers it runs in its handler, and
the witness-document emitters only once it has a document to write, so
a process compiles and loads only those.
"""

import argparse
import sys

from .digraph import BudgetExhausted, GraphError
from .graphio import GraphFormatError, emit_graph, load_graph

EXIT_FOUND = 0
EXIT_NOT_FOUND = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def build_parser():
    top = _Parser(prog="crownminor", description=__doc__)
    top.add_argument(
        "--format", choices=("human", "structured"), default="human",
        help="structured mode prints witness documents only",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a named graph family")
    gen.add_argument("family", choices=(
        "crown", "reversed-crown", "alternating-path", "acyclic-tournament",
        "tournament", "grid", "bipartite-outregular",
    ))
    gen.add_argument("params", nargs="*", type=int, help="family size parameters")
    gen.add_argument("--phase", choices=("odd", "even"),
                     help="edge orientation for alternating-path (default odd)")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", help="write the graph text here instead of stdout")

    minor = sub.add_parser("minor", help="minor containment checks")
    minor.add_argument("--mode", choices=("directed", "shallow", "butterfly", "topological"),
                       default="directed")
    minor.add_argument("--depth", type=int, default=None, help="path bound for --mode shallow")
    minor.add_argument("pattern")
    minor.add_argument("host")
    minor.add_argument("--witness",
                       help="write the witness document here (not with --mode butterfly)")

    sc = sub.add_parser("scatter", help="scattered set extraction")
    sc.add_argument("graph")
    sc.add_argument("--d", type=int, required=True)
    sc.add_argument("--m", type=int, required=True)
    sc.add_argument("--s-budget", type=int, required=True)
    sc.add_argument("--witness")

    dich = sub.add_parser("dichotomy", help="crown minor or scattered set")
    dich.add_argument("graph")
    dich.add_argument("--r", type=int, required=True)
    dich.add_argument("--q", type=int, required=True)
    dich.add_argument("--p", type=int, required=True)
    dich.add_argument("--i-set", help="space-separated start set (defaults to all vertices at r=0)")
    dich.add_argument("--witness")

    solve = sub.add_parser("solve", help="domination-type solvers")
    solve.add_argument("variant", choices=("ds", "ids", "dds", "dob", "is"))
    solve.add_argument("graph")
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--d", type=int, default=1,
                       help="distance for dds and is; ds, ids and dob take only 1")
    solve.add_argument("--oracle", action="store_true", help="force the exhaustive solver")
    solve.add_argument("--witness")

    gr = sub.add_parser("grad", help="greatest density over shallow minors")
    gr.add_argument("graph")
    gr.add_argument("--r", type=int, required=True)

    st = sub.add_parser("selftest", help="built-in cross-validation battery")
    st.add_argument("--scale", choices=("small", "full"), default="small")

    return top


def _say(args, text):
    if args.format == "human":
        print(text)


def _document(args, doc, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(doc)
    if args.format == "structured" or not path:
        sys.stdout.write(doc)


def _need_seed(args):
    if args.seed is None:
        if args.format == "structured":
            raise UsageError("structured mode requires an explicit --seed")
        return 0
    return args.seed


def cmd_generate(args):
    if args.phase is not None and args.family != "alternating-path":
        raise UsageError("--phase applies to alternating-path only")
    from .generators import (
        acyclic_tournament,
        alternating_path,
        crown,
        oriented_grid,
        random_bipartite_outregular,
        random_tournament,
        reversed_crown,
    )

    fam = args.family
    p = args.params
    comments = []

    def arity(n):
        if len(p) != n:
            raise UsageError("%s expects %d size parameter(s)" % (fam, n))

    if fam == "crown":
        arity(1)
        G, principals = crown(p[0])
        comments.append("principal: %s" % " ".join(str(v) for v in principals))
    elif fam == "reversed-crown":
        arity(1)
        G, principals = reversed_crown(p[0])
        comments.append("principal: %s" % " ".join(str(v) for v in principals))
    elif fam == "alternating-path":
        arity(1)
        G = alternating_path(p[0], args.phase or "odd")
    elif fam == "acyclic-tournament":
        arity(1)
        G = acyclic_tournament(p[0])
    elif fam == "tournament":
        arity(1)
        G = random_tournament(p[0], _need_seed(args))
    elif fam == "grid":
        arity(2)
        G = oriented_grid(p[0], p[1], seed=_need_seed(args))
    else:
        arity(2)
        G = random_bipartite_outregular(p[0], p[1], _need_seed(args))

    _document(args, emit_graph(G, comments), args.out)
    if args.out:
        _say(args, "wrote %d vertices, %d edges to %s" % (G.n, G.num_edges(), args.out))
    return EXIT_FOUND


def cmd_minor(args):
    mode = args.mode
    if args.depth is not None and mode != "shallow":
        raise UsageError("--depth applies to --mode shallow only")
    if args.witness is not None and mode == "butterfly":
        # is_butterfly_minor's tree-like model has no witness document yet
        raise UsageError("--witness does not apply to --mode butterfly")
    from .minors import (
        general_minor_check,
        is_butterfly_minor,
        shallow_minor_check,
        subdivision_to_model,
        topological_minor_check,
    )

    H = load_graph(args.pattern)
    G = load_graph(args.host)
    if mode == "shallow":
        depth = args.depth if args.depth is not None else 0
        model = shallow_minor_check(H, G, depth)
    elif mode == "directed":
        model = general_minor_check(H, G)
    elif mode == "topological":
        w = topological_minor_check(H, G)
        model = subdivision_to_model(w) if w is not None else None
    else:
        found = is_butterfly_minor(H, G) is not None
        _say(args, "butterfly minor: %s" % ("yes" if found else "no"))
        return EXIT_FOUND if found else EXIT_NOT_FOUND

    if model is None:
        _say(args, "no %s minor model" % mode)
        return EXIT_NOT_FOUND
    from .witnessdoc import emit_model

    # every checker returns a model that already passed verify_model
    _say(args, "%s minor model found (verified=True)" % mode)
    doc = emit_model(model, params=[("mode", mode)])
    _document(args, doc, args.witness)
    return EXIT_FOUND


def cmd_scatter(args):
    from .scattered import compute_scattered

    G = load_graph(args.graph)
    w = compute_scattered(G, sorted(G.vertices()), args.d, args.m, args.s_budget)
    if w is None:
        raise BudgetExhausted("no scattered witness within budget")
    from .witnessdoc import emit_scattered

    _say(args, "scattered witness: |S|=%d |U|=%d d=%d" % (len(w.deleted), len(w.members), w.radius))
    _document(args, emit_scattered(w), args.witness)
    return EXIT_FOUND


def cmd_dichotomy(args):
    from .quasiwide import dichotomy_step
    from .verify import ScatteredWitness, is_scattered

    if args.r < 0:
        raise GraphError("radius must be nonnegative")
    G = load_graph(args.graph)
    if args.i_set is not None:
        try:
            I = sorted(int(x) for x in args.i_set.split())
        except ValueError:
            raise UsageError("--i-set takes vertex ids, got %r" % args.i_set)
    elif args.r == 0:
        I = sorted(G.vertices())
    else:
        raise UsageError("--i-set is required when --r > 0")
    if not is_scattered(G, I, args.r):
        raise UsageError("the start set is not %d-scattered" % args.r)
    res = dichotomy_step(G, I, args.r, args.p, args.q)
    from .witnessdoc import emit_model, emit_scattered

    if isinstance(res, ScatteredWitness):
        _say(args, "scattered outcome: |S|=%d |U|=%d d=%d"
             % (len(res.deleted), len(res.members), res.radius))
        _document(args, emit_scattered(res), args.witness)
    else:
        _say(args, "crown outcome: order %d at depth %d" % (args.q, args.r))
        doc = emit_model(res, kind="crown", params=[("order", args.q)])
        _document(args, doc, args.witness)
    return EXIT_FOUND


def cmd_solve(args):
    from .solvers import (
        DominationInstance,
        brute_force_solve,
        d_dominating_set,
        dominating_outbranching,
        independent_dominating_set,
        independent_set,
    )

    G = load_graph(args.graph)
    variant = args.variant
    d = args.d
    if variant in ("ds", "ids", "dob") and d != 1:
        raise UsageError("solve %s solves d = 1 only; --d applies to dds and is" % variant)
    if args.oracle:
        inst = DominationInstance(G, args.k, d=d)
        oracle_variant = {"dds": "ds"}.get(variant, variant)
        out = brute_force_solve(inst, oracle_variant)
    elif variant in ("ds", "dds"):
        out = d_dominating_set(G, args.k, d)
    elif variant == "ids":
        out = independent_dominating_set(G, args.k)
    elif variant == "dob":
        out = dominating_outbranching(G, args.k)
    else:
        out = independent_set(G, args.k, d=d)

    _say(args, "verdict: %s (fallback=%s)" % (
        "feasible" if out.feasible else "infeasible", out.exhausted))
    if not out.feasible:
        return EXIT_NOT_FOUND
    from .witnessdoc import emit_outbranching, emit_vertex_set

    if variant == "dob":
        D, parent = out.witness
        doc = emit_outbranching(G, D, parent)
    elif variant == "is":
        doc = emit_vertex_set("independent", G, out.witness, d=d)
    else:
        doc = emit_vertex_set("dominating", G, out.witness, d=d, independent=variant == "ids")
    _document(args, doc, args.witness)
    return EXIT_FOUND


def cmd_grad(args):
    from .minors import grad

    G = load_graph(args.graph)
    val = grad(G, args.r)
    print("%s" % val)
    return EXIT_FOUND


def cmd_selftest(args):
    if args.format == "structured":
        raise UsageError("selftest prints a report, not a witness document; run it in human mode")
    from .selftest import format_results, run_selftest

    results = run_selftest(args.scale)
    print(format_results(results))
    return EXIT_FOUND if all(ok for _, ok, _ in results) else EXIT_NOT_FOUND


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "generate": cmd_generate,
            "minor": cmd_minor,
            "scatter": cmd_scatter,
            "dichotomy": cmd_dichotomy,
            "solve": cmd_solve,
            "grad": cmd_grad,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as err:
        print("budget exhausted: %s" % err, file=sys.stderr)
        return EXIT_BUDGET
    except (GraphFormatError, GraphError, OSError) as err:
        print("input error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        # anything else is a bug, such as an "internal: ..." self-check
        # that failed; it must not pass for "not found" (exit 1)
        print("internal error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
