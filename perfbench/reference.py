"""Builds reference.json: every workload's query list and the outcome
recorded once for each query.

Run from the repository root (takes several minutes):

    python3 perfbench/reference.py

The query lists come from fixed definition seeds below. Each query's
expected outcome is recorded with the source that vouches for it
(``ref_by``):

- ``oracle``: the exhaustive brute-force oracles of ``tests/oracles.py``
  (assignment-function minor search, subset-enumeration solvers), which
  are written separately from the library's search code;
- ``witness``: the library found a witness and ``checks.py`` accepted
  it, so the positive verdict is proven;
- ``general_minor_check``: a negative DAG or shallow verdict confirmed
  by the library's branch-set backtracking, a different algorithm from
  the guess-and-route search under test;
- ``checker``: ``checks.py`` decides the question itself
  (``is_scattered``);
- ``self``: no independent exhaustive method finishes at this size
  (grad values, butterfly verdicts, best-effort dichotomy outcomes,
  negative verdicts beyond oracle reach); the library's own answer is
  recorded so that any later change of answer is caught.

When an oracle disagrees with the library, the oracle's verdict is
recorded, so the query counts as an error on every run.
"""

import json
import multiprocessing
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

DEFINITION_SEED = {"minor-search": 11, "solve": 22, "scatter": 33, "cli": 44}
ORACLE_SECONDS = 20
JOBS = 2  # worker processes; the reference machine has two CPUs


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def limited(seconds, fn, *args):
    """fn(*args), or _Timeout after `seconds` of wall time."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)


# ---------------------------------------------------------------------------
# query lists


def define_minor_search(rng):
    specs = []
    seed = lambda: rng.randrange(1 << 30)  # noqa: E731
    for pattern in ("crown(2)", "crown(3)", "alt(2)", "alt(3)"):
        for n in (10, 12, 14, 16):
            p = 0.15 if pattern == "crown(3)" and n >= 14 else 0.2
            for _ in range(4):
                specs.append({"entry": "dag_minor_check", "pattern": pattern,
                              "host": {"family": "dag", "n": n, "p": p, "seed": seed()}})
    for pattern in ("crown(2)", "crown(3)", "alt(2)", "alt(3)"):
        for depth in (1, 2):
            for n in (10, 12, 14) if pattern == "crown(3)" else (10, 13, 16):
                p = 0.15 if pattern == "crown(3)" else 0.2
                for _ in range(2):
                    specs.append({"entry": "shallow_minor_check", "pattern": pattern,
                                  "params": {"depth": depth},
                                  "host": {"family": "dag", "n": n, "p": p, "seed": seed()}})
    for pattern in ("crown(2)", "crown(3)", "alt(2)"):
        for n in (6, 7) if pattern == "crown(3)" else (6, 7, 8, 9):
            for _ in range(2):
                specs.append({"entry": "general_minor_check", "pattern": pattern,
                              "host": {"family": "digraph", "n": n, "p": 0.3, "seed": seed()}})
    for n in (5, 6):
        for r in (0, 1):
            for _ in range(3):
                specs.append({"entry": "grad", "params": {"r": r},
                              "host": {"family": "digraph", "n": n, "p": 0.3, "seed": seed()}})
    for pattern in ("crown(2)", "alt(2)"):
        for n in (6, 7, 8):
            for p in (0.15, 0.2, 0.3):
                specs.append({"entry": "is_butterfly_minor", "pattern": pattern,
                              "host": {"family": "digraph", "n": n, "p": p, "seed": seed()}})
    # Cheap queries that bring the list to 165: with an odd length and
    # 0.9 * length ending in .5, the median and p90 fall in the middle of
    # one query's repeated samples instead of between two queries.
    for _ in range(3):
        specs.append({"entry": "dag_minor_check", "pattern": "crown(2)",
                      "host": {"family": "dag", "n": 12, "p": 0.2, "seed": seed()}})
    return specs


SOLVE_FAMILIES = (
    # entry, oracle variant, vertex counts, edge probability, d
    ("d_dominating_set", "ds", (14, 18, 20, 24), 0.12, 1),
    ("d_dominating_set", "ds", (14, 18, 20, 24), 0.08, 2),
    ("independent_dominating_set", "ids", (12, 14, 16), 0.15, 1),
    ("dominating_outbranching", "dob", (12, 14, 16), 0.15, 1),
    ("independent_set", "is", (12, 14, 16, 18), 0.15, 1),
)


def define_solve(rng):
    """Instances only; k is fixed on both sides of the oracle's optimum
    when the reference is built."""
    specs = []
    for entry, variant, sizes, p, d in SOLVE_FAMILIES:
        for n in sizes:
            for _ in range(4):
                specs.append({"entry": entry, "oracle": variant,
                              "params": {"d": d},
                              "host": {"family": "digraph", "n": n, "p": p,
                                       "seed": rng.randrange(1 << 30)}})
    return specs


def define_scatter(rng):
    specs = []
    seed = lambda: rng.randrange(1 << 30)  # noqa: E731

    def bip(n, d):
        return {"family": "bipartite", "n": n, "d": d, "seed": seed()}

    def grid(l1, l2):
        return {"family": "grid", "l1": l1, "l2": l2, "seed": seed()}

    for n in (100, 200, 400, 700, 1000):
        for d in (2, 3, 4):
            B = range(n, 2 * n)
            specs.append({"entry": "is_scattered", "host": bip(n, d),
                          "params": {"U": sorted(rng.sample(B, 6)), "d": 1}})
            specs.append({"entry": "compute_scattered", "host": bip(n, d),
                          "params": {"W": "B", "d": 1, "m": rng.choice((3, 4, 5)),
                                     "s_budget": rng.choice((1, 2, 3))}})
    for n in (100, 150, 200, 250):
        for d in (2, 3):
            specs.append({"entry": "is_scattered", "host": bip(n, d),
                          "params": {"U": sorted(rng.sample(range(n, 2 * n), 6)), "d": 1}})
            specs.append({"entry": "compute_scattered", "host": bip(n, d),
                          "params": {"W": "B", "d": 1, "m": rng.choice((3, 4, 5)),
                                     "s_budget": rng.choice((1, 2, 3))}})
    for l1, l2 in ((10, 10), (20, 10), (30, 15), (40, 20)):
        for _ in range(3):
            G = grid(l1, l2)
            cells = range(l1 * l2)
            specs.append({"entry": "is_scattered", "host": G,
                          "params": {"U": sorted(rng.sample(cells, 5)), "d": rng.choice((1, 2))}})
            specs.append({"entry": "compute_scattered", "host": grid(l1, l2),
                          "params": {"W": "all", "d": rng.choice((1, 2)), "m": 4,
                                     "s_budget": 3}})
    for n in (8, 10, 12):
        for _ in range(2):
            specs.append({"entry": "compute_scattered",
                          "host": {"family": "tournament", "n": n, "seed": seed()},
                          "params": {"W": "all", "d": 1, "m": 2, "s_budget": 3}})
    for n, d in [(n, d) for n in (100, 200, 300) for d in (2, 3, 5) for _ in range(2)] + [
            (500, 2), (500, 3), (500, 5), (1000, 3)]:
        q, p = rng.choice(((2, 4), (3, 3), (2, 6)))
        specs.append({"entry": "dichotomy_step", "host": bip(n, d),
                      "params": {"I": "B", "r": 0, "p": p, "q": q}})
    for l1, l2 in ((10, 10), (20, 10), (30, 15)):
        for _ in range(2):
            specs.append({"entry": "dichotomy_step", "host": grid(l1, l2),
                          "params": {"I": "all", "r": 0, "p": 5, "q": 3}})
    for n in (12, 20, 30):
        for _ in range(2):
            specs.append({"entry": "dichotomy_step",
                          "host": {"family": "tournament", "n": n, "seed": seed()},
                          "params": {"I": "all", "r": 0, "p": 3, "q": 3}})
    for l1, l2 in ((8, 8), (12, 10), (20, 10)):
        for _ in range(2):
            specs.append({"entry": "iterate_dichotomy", "host": grid(l1, l2),
                          "params": {"W": "all", "target_r": 2, "m": 4, "q": 3}})
    for n in (100, 200, 400):
        for _ in range(2):
            specs.append({"entry": "iterate_dichotomy", "host": bip(n, 2),
                          "params": {"W": "B", "target_r": 1, "m": 4, "q": 2}})
    # three cheap queries bring the list to 125 (see define_minor_search)
    for _ in range(3):
        specs.append({"entry": "is_scattered", "host": bip(100, 3),
                      "params": {"U": sorted(rng.sample(range(100, 200), 6)), "d": 1}})
    return specs


def define_cli(rng):
    """About 100 structured-mode commands over a handful of small graph
    files written at set-up."""
    seed = lambda: rng.randrange(1 << 30)  # noqa: E731
    hosts = {
        "dag9": {"family": "dag", "n": 9, "p": 0.25, "seed": seed()},
        "dag11": {"family": "dag", "n": 11, "p": 0.2, "seed": seed()},
        "cyc5": {"family": "digraph", "n": 5, "p": 0.3, "seed": seed()},
        "cyc6": {"family": "digraph", "n": 6, "p": 0.3, "seed": seed()},
        "cyc7": {"family": "digraph", "n": 7, "p": 0.3, "seed": seed()},
        "sparse12": {"family": "digraph", "n": 12, "p": 0.15, "seed": seed()},
        "sparse14": {"family": "digraph", "n": 14, "p": 0.12, "seed": seed()},
    }
    specs = []

    def add(argv, files=None, params=None, times=1):
        for _ in range(times):
            spec = {"argv": argv, "files": files or {}, "params": params or {}}
            spec["hosts"] = {name: hosts[name] for name in spec["files"].values()
                             if name in hosts}
            specs.append(spec)

    for fam, args in (("crown", ["3"]), ("crown", ["4"]), ("reversed-crown", ["3"]),
                      ("alternating-path", ["3"]), ("alternating-path", ["5"]),
                      ("acyclic-tournament", ["6"])):
        add(["generate", fam] + args, times=3)
    for fam, args in (("tournament", ["8"]), ("grid", ["5", "4"]),
                      ("bipartite-outregular", ["20", "3"])):
        for _ in range(4):
            add(["generate", fam] + args + ["--seed", str(seed())])
    # search stays small here: this workload measures start-up and documents
    for pat in ("crown(2)", "alt(2)"):
        for host in ("dag9", "dag11"):
            files = {"pattern": "pattern-" + pat, "host": host}
            add(["minor", "--mode", "directed", "{pattern}", "{host}"], files, times=3)
            for depth in (1, 2):
                add(["minor", "--mode", "shallow", "--depth", str(depth), "{pattern}", "{host}"],
                    files, {"depth": depth})
        for host in ("cyc6", "cyc7"):
            files = {"pattern": "pattern-" + pat, "host": host}
            add(["minor", "--mode", "directed", "{pattern}", "{host}"], files)
            add(["minor", "--mode", "butterfly", "{pattern}", "{host}"], files)
    add(["minor", "--mode", "directed", "{pattern}", "{host}"],
        {"pattern": "pattern-crown(3)", "host": "dag9"}, times=2)
    add(["minor", "--mode", "directed", "{pattern}", "{host}"],
        {"pattern": "pattern-crown(3)", "host": "cyc6"})
    for host in ("sparse12", "sparse14", "dag11"):
        for d, m, s in ((1, 3, 2), (1, 4, 3), (2, 3, 3), (2, 4, 2)):
            add(["scatter", "{host}", "--d", str(d), "--m", str(m), "--s-budget", str(s)],
                {"host": host}, {"radius": d, "size": m})
        for q, p in ((2, 3), (3, 3), (2, 4)):
            add(["dichotomy", "{host}", "--r", "0", "--q", str(q), "--p", str(p)],
                {"host": host}, {"r": 0, "q": q, "radius": 1, "size": p})
    for host, ks in (("sparse12", (3, 4, 5, 6)), ("sparse14", (3, 4, 5, 6)),
                     ("dag9", (2, 3)), ("dag11", (2, 3))):
        for k in ks:
            add(["solve", "ids", "{host}", "--k", str(k)], {"host": host},
                {"k": k, "independent": True})
            add(["solve", "dds", "{host}", "--k", str(k), "--d", "2"], {"host": host},
                {"k": k, "d": 2})
            add(["solve", "dob", "{host}", "--k", str(k + 2)], {"host": host}, {"k": k + 2})
            add(["solve", "is", "{host}", "--k", str(k + 1)], {"host": host}, {"k": k + 1})
    for r in (0, 1):
        add(["grad", "{host}", "--r", str(r)], {"host": "cyc5"}, times=3)
    return specs


DEFINE = {"minor-search": define_minor_search, "solve": define_solve,
          "scatter": define_scatter, "cli": define_cli}


# ---------------------------------------------------------------------------
# reference outcomes (run in worker processes)


def _lib():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import crownminor
    import crownminor.witnessdoc  # noqa: F401
    import oracles
    return crownminor, oracles


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, round((time.perf_counter() - t0) * 1000, 3)


def ref_minor(lib, oracles, spec):
    inp = workloads.prepare(lib, "minor-search", spec, None)
    raw, ms = _timed(workloads.execute, lib, "minor-search", spec, inp)
    got = workloads.outcome_class("minor-search", spec, raw)
    expect = {"class": got, "ref_ms": ms, "ref_by": "self"}
    entry = spec["entry"]
    if entry == "grad":
        expect["value"] = str(raw)
        return expect
    if entry == "is_butterfly_minor":
        if raw:
            # a butterfly minor is a directed minor (acceptance c03)
            try:
                model = limited(ORACLE_SECONDS, lib.minors.general_minor_check,
                                inp["H"], inp["G"])
            except _Timeout:
                return expect
            if model is None:
                expect["class"] = "none"
                expect["ref_by"] = "general_minor_check"
        return expect
    depth = spec.get("params", {}).get("depth")
    if raw is not None:
        if checks.check_model(inp["H"], inp["G"], raw.branch, raw.edge_image, depth):
            raise RuntimeError("reference witness fails the check: %s" % spec)
        expect["ref_by"] = "witness"
        return expect
    for name, fn in (("oracle", oracles.brute_directed_minor),
                     ("general_minor_check", lib.minors.general_minor_check)):
        if name == "general_minor_check" and entry == "general_minor_check":
            continue
        try:
            verdict = limited(ORACLE_SECONDS, fn, inp["H"], inp["G"], depth)
        except _Timeout:
            continue
        expect["ref_by"] = name
        expect["class"] = "found" if verdict else "none"
        break
    return expect


def ref_solve(lib, oracles, spec):
    """Fixes k on both sides of the oracle optimum; returns the two
    resulting query specs."""
    G = workloads.prepare(lib, "solve", spec, None)["G"]
    variant, d = spec["oracle"], spec["params"]["d"]
    if variant == "is":
        opt = 0
        while opt < G.n and limited(60, oracles.oracle_solve, G, "is", opt + 1)[0]:
            opt += 1
        ks = [(opt, True), (opt + 1, False)]
    else:
        ok, wit = limited(60, oracles.oracle_solve, G, variant, G.n, d)
        opt = len(wit) if ok else None
        ks = [(opt - 1, False), (opt, True)] if ok else [(3, False), (5, False)]
    out = []
    for k, feasible in ks:
        q = {key: val for key, val in spec.items() if key != "oracle"}
        q["params"] = {"k": k, "d": d} if q["entry"] == "d_dominating_set" else {"k": k}
        raw, ms = _timed(workloads.execute, lib, "solve", q, {"G": G})
        q["expect"] = {"class": "feasible" if feasible else "infeasible", "ref_ms": ms,
                       "ref_by": "oracle", "optimum": opt}
        if workloads.outcome_class("solve", q, raw) != q["expect"]["class"]:
            print("oracle disagrees with the library: %s" % q, file=sys.stderr)
        out.append(q)
    return out


def ref_scatter(lib, oracles, spec):
    raw, ms = _timed(workloads.execute, lib, "scatter", spec, None)
    G, res = raw
    expect = {"class": workloads.outcome_class("scatter", spec, raw), "ref_ms": ms,
              "ref_by": "self", "n": G.n, "edges": workloads.edge_hash(G.edges)}
    if spec["entry"] == "is_scattered":
        truth = not checks.check_scattered(G, workloads.scatter_set(G, spec["host"],
                                           spec["params"]["U"]), spec["params"]["d"])
        expect["class"] = "true" if truth else "false"
        expect["ref_by"] = "checker"
    elif expect["class"] in ("scattered", "crown"):
        problems = workloads.check_scatter(G, spec, res)
        if problems:
            raise RuntimeError("reference witness fails the check: %s %s" % (spec, problems))
        expect["ref_by"] = "witness"
    return expect


def ref_cli(lib, oracles, spec, workdir):
    inp = workloads.prepare(lib, "cli", spec, workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc, ms = _timed(workloads.execute, lib, "cli", spec, inp, env)
    argv = spec["argv"]
    expect = {"exit": proc.returncode, "ref_ms": ms, "ref_by": "self"}
    cmd = argv[0]
    if cmd == "generate":
        n, edges = checks.parse_graph_text(proc.stdout)
        expect.update(kind="graph", n=n, edges=workloads.edge_hash(edges))
    elif cmd == "grad":
        expect.update(kind="value", value=proc.stdout.strip())
    elif not proc.stdout.strip():
        expect["kind"] = "empty"
    elif cmd == "minor":
        expect["kind"] = "model"
    elif cmd == "dichotomy":
        expect["kind"] = "crown" if proc.stdout.startswith("kind crown") else "scattered"
    elif cmd == "scatter":
        expect["kind"] = "scattered"
    else:
        expect["kind"] = {"ids": "dominating", "dds": "dominating", "dob": "outbranching",
                          "is": "independent"}[argv[1]]
    G = inp["graphs"].get("host")
    if cmd == "solve":
        variant = {"ids": "ids", "dds": "ds", "dob": "dob", "is": "is"}[argv[1]]
        k = spec["params"]["k"]
        ok, _ = limited(60, oracles.oracle_solve, G, variant, k, spec["params"].get("d", 1))
        expect["ref_by"] = "oracle"
        expect["exit"] = 0 if ok else 1
        if not ok:
            expect["kind"] = "empty"
    elif cmd == "minor" and argv[2] in ("directed", "shallow"):
        H = inp["graphs"]["pattern"]
        try:
            ok = limited(ORACLE_SECONDS, oracles.brute_directed_minor, H, G,
                         spec["params"].get("depth"))
            expect["ref_by"] = "oracle"
            expect["exit"] = 0 if ok else 1
            expect["kind"] = "model" if ok else "empty"
        except _Timeout:
            pass
    if expect["exit"] != proc.returncode:
        print("oracle disagrees with the CLI: %s" % spec, file=sys.stderr)
    if expect["kind"] not in ("graph", "value", "empty") and proc.returncode == 0:
        problems = workloads.check(lib, "cli", dict(spec, expect=expect), inp, proc)
        if problems:
            raise RuntimeError("reference witness fails the check: %s %s" % (spec, problems))
        if expect["ref_by"] == "self":
            expect["ref_by"] = "witness"
    return expect


def _task(args):
    workload, index, spec, workdir = args
    lib, oracles = _lib()
    if workload == "minor-search":
        spec["expect"] = ref_minor(lib, oracles, spec)
        return index, [spec]
    if workload == "solve":
        return index, ref_solve(lib, oracles, spec)
    if workload == "scatter":
        spec["expect"] = ref_scatter(lib, oracles, spec)
        return index, [spec]
    spec["expect"] = ref_cli(lib, oracles, spec, workdir)
    return index, [spec]


def build(workdir):
    data = {"definition_seed": DEFINITION_SEED, "workloads": {}}
    ctx = multiprocessing.get_context("spawn")
    for name in DEFINE:
        specs = DEFINE[name](random.Random(DEFINITION_SEED[name]))
        tasks = [(name, i, s, workdir) for i, s in enumerate(specs)]
        with ctx.Pool(JOBS) as pool:
            done = sorted(pool.imap_unordered(_task, tasks))
        out = [q for _, qs in done for q in qs]
        for i, q in enumerate(out):
            q["id"] = "%s/%03d" % (name, i)
        data["workloads"][name] = out
        total = sum(q["expect"]["ref_ms"] for q in out)
        print("%s: %d queries, %.1f s of library time at reference" % (
            name, len(out), total / 1000), flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    workdir = os.path.join(ROOT, ".bench_out", "reference-files")
    os.makedirs(workdir, exist_ok=True)
    build(workdir)


if __name__ == "__main__":
    main()
