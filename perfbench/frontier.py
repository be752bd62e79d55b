"""One-second frontier: for each checker and solver, the largest n at
which every instance of the workload's own generator family finishes
within one second. Report only; it is not a gated metric.

    python3 perfbench/frontier.py     # writes perfbench/frontier.json

For each entry point, n grows from a start value by a fixed step. At
each n three instances (seeds 1, 2, 3) run, each cut off by a one-second
timer; the frontier is the last n before the first instance that did
not finish. Entries that never hit the cut-off stop at a size cap and
are reported as at least that n.
"""

import argparse
import json
import os
import signal
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import instances  # noqa: E402
import run  # noqa: E402

LIMIT_S = 1.0
SEEDS = (1, 2, 3)


class _Cut(Exception):
    pass


def _on_timer(signum, frame):
    raise _Cut()


def _dag(lib, n, p, seed):
    return lib.Digraph(n, instances.random_dag_edges(n, p, seed))


def _dig(lib, n, p, seed):
    return lib.Digraph(n, instances.random_digraph_edges(n, p, seed))


def _pattern(lib, name):
    return lib.Digraph(*instances.pattern_edges(name))


# entry: (family description, first n, step, cap, call(lib, n, seed))
ENTRIES = {
    "dag_minor_check": ("crown(3) in random DAGs, p=0.2", 8, 1, 40,
                        lambda lib, n, s: lib.dag_minor_check(
                            _pattern(lib, "crown(3)"), _dag(lib, n, 0.2, s))),
    "shallow_minor_check": ("crown(3) at depth 2 in random DAGs, p=0.15", 8, 1, 40,
                            lambda lib, n, s: lib.shallow_minor_check(
                                _pattern(lib, "crown(3)"), _dag(lib, n, 0.15, s), 2)),
    "general_minor_check": ("crown(3) in random digraphs, p=0.3", 5, 1, 20,
                            lambda lib, n, s: lib.general_minor_check(
                                _pattern(lib, "crown(3)"), _dig(lib, n, 0.3, s))),
    "grad": ("r=1 on random digraphs, p=0.3", 3, 1, 14,
             lambda lib, n, s: lib.grad(_dig(lib, n, 0.3, s), 1)),
    "is_butterfly_minor": ("alt(2) in random digraphs, p=0.2", 5, 1, 20,
                           lambda lib, n, s: lib.is_butterfly_minor(
                               _pattern(lib, "alt(2)"), _dig(lib, n, 0.2, s))),
    "independent_dominating_set": ("k=n/4 on random digraphs, p=0.15", 8, 2, 80,
                                   lambda lib, n, s: lib.independent_dominating_set(
                                       _dig(lib, n, 0.15, s), n // 4)),
    "d_dominating_set": ("d=1, k=n/4 on random digraphs, p=0.12", 8, 4, 200,
                         lambda lib, n, s: lib.d_dominating_set(
                             _dig(lib, n, 0.12, s), n // 4, 1)),
    "dominating_outbranching": ("k=n/3 on random digraphs, p=0.15", 8, 2, 80,
                                lambda lib, n, s: lib.dominating_outbranching(
                                    _dig(lib, n, 0.15, s), n // 3)),
    "independent_set": ("k=n/3 on random digraphs, p=0.15", 8, 2, 80,
                        lambda lib, n, s: lib.independent_set(
                            _dig(lib, n, 0.15, s), n // 3)),
    "dichotomy_step": ("r=0, p=4, q=2 on random_bipartite_outregular(n, 3), n per side",
                       100, 100, 3000,
                       lambda lib, n, s: lib.dichotomy_step(
                           lib.random_bipartite_outregular(n, 3, s),
                           list(range(n, 2 * n)), 0, 4, 2)),
}


def frontier(lib, call, first, step, cap):
    """(largest n within the limit, slowest seconds seen at that n,
    whether the cap was reached)."""
    signal.signal(signal.SIGALRM, _on_timer)
    best, best_s = None, None
    n = first
    while n <= cap:
        slowest = 0.0
        for seed in SEEDS:
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            try:
                call(lib, n, seed)
            except _Cut:
                return best, best_s, False
            except lib.BudgetExhausted:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            slowest = max(slowest, perf_counter() - t0)
        best, best_s = n, slowest
        n += step
    return best, best_s, True


def main():
    lib = run.import_library()
    env = run.environment(argparse.Namespace(workload=None, seed=None, seconds=None,
                                             trace=None))
    rows = {}
    for name, (family, first, step, cap, call) in ENTRIES.items():
        n, slowest, capped = frontier(lib, call, first, step, cap)
        rows[name] = {"family": family, "largest_n": n, "slowest_s_at_n": slowest,
                      "reached_cap": capped, "step": step}
        print("frontier %-28s n=%s%s (slowest %.3f s) on %s" % (
            name, n, "+" if capped else "", slowest or 0.0, family), flush=True)
    with open(os.path.join(HERE, "frontier.json"), "w") as fh:
        json.dump({"limit_s": LIMIT_S, "seeds": SEEDS, "environment": env,
                   "entries": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
