"""crownminor benchmark: fixed query lists, checked answers, per-layer
timings traced from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: minor-search, solve, scatter, cli (see workloads.py for why
each exists). One process, one thread, pinned to one CPU with the
children it spawns, in a closed loop with one client:
each query is issued when the previous one has returned and been
checked. The query list of a workload is fixed in reference.json with
the outcome recorded for every query; --seed fixes the order in which
the list is issued. The run repeats whole passes over the list while
the next one is expected to end within --seconds (at least one pass),
so every run measures the same mix. A query's latency is its median
over the passes; latency_p50_ms and latency_p90_ms are taken over the
queries, throughput_qps over every answer.

Latency is the CPU time of the query (this process and its children),
scaled to reference milliseconds by a calibration kernel run before
every query (see calib.py; for cli the kernel is a bare interpreter
start): the shared machine's speed drifts too much for raw times to
compare across runs.

With --trace 0 the passes are untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced passes alternate; the
per-layer metrics are totals per traced pass, and trace.overhead_ratio
compares the two kinds of pass.

Every metric is printed as "metric NAME VALUE UNIT"; the last line of
standard output is one JSON object with the gated metrics. Per-query
records (and, when traced, all spans) are written under .bench_out/.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, perf_counter_ns, process_time_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)  # environment of every spawned interpreter
sys.path.insert(0, HERE)

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WARMUP_QUERIES = 3
PROBE_SPAWNS = 15


def cpu_ns():
    """CPU time used so far by this process (all threads) and by its
    waited-for children. The queries are CPU-bound; wall time would also
    count the time the hypervisor gives the CPU to other guests (steal),
    which made identical runs differ by a third at p90."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((ch.ru_utime + ch.ru_stime) * 1e9)


def spawn_ms(argv, env):
    t0 = cpu_ns()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    return (cpu_ns() - t0) / 1e6


def in_process_kernel_ms():
    c0 = cpu_ns()
    calib.kernel()
    return (cpu_ns() - c0) / 1e6


def kernel_ms(workload):
    """CPU ms of one run of the workload's calibration kernel: a bare
    interpreter start for cli, calib.kernel otherwise (see calib.py)."""
    if workload == "cli":
        return spawn_ms([sys.executable, "-c", "pass"], CHILD_ENV)
    return in_process_kernel_ms()


def reference_ms(workload):
    return calib.SPAWN_REFERENCE_MS if workload == "cli" else calib.REFERENCE_MS


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


# ---------------------------------------------------------------------------
# set-up


def import_library():
    """Imports crownminor from this checkout's src/, afresh."""
    if not os.path.isfile(os.path.join(SRC, "crownminor", "__init__.py")):
        raise BenchError("no crownminor sources under %s" % SRC)
    for name in [k for k in sys.modules if k == "crownminor" or k.startswith("crownminor.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    lib = importlib.import_module("crownminor")
    importlib.import_module("crownminor.witnessdoc")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise BenchError("crownminor imported from %s, not from %s" % (lib.__file__, SRC))
    return lib


class State:
    """Everything a pass needs: the library, the query specs and their
    prepared inputs."""

    def __init__(self, workload):
        self.workload = workload
        self.lib = import_library()
        path = os.path.join(HERE, "reference.json")
        if not os.path.isfile(path):
            raise BenchError("missing %s" % path)
        with open(path) as fh:
            self.specs = json.load(fh)["workloads"][workload]
        self.workdir = os.path.join(OUT, "cli-files")
        if workload == "cli":
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
        self.inputs = [workloads.prepare(self.lib, workload, s, self.workdir)
                       for s in self.specs]
        self.child_summary, self.child_hits = {}, {}
        for i in range(min(WARMUP_QUERIES, len(self.specs))):
            workloads.execute(self.lib, workload, self.specs[i], self.inputs[i],
                              CHILD_ENV)


def set_up(workload):
    """State built SETUP_REPEATS times; returns the last one and the
    median set-up time in reference seconds."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # one State alive at a time, so set-up does not raise peak_rss_mb
        gc.collect()
        ks = [kernel_ms(workload) for _ in range(3)]
        t0 = cpu_ns()
        state = State(workload)
        secs = (cpu_ns() - t0) / 1e9
        ks += [kernel_ms(workload) for _ in range(3)]
        times.append(secs * reference_ms(workload) / statistics.median(ks))
    return state, statistics.median(times)


# ---------------------------------------------------------------------------
# passes


def run_pass(state, order, pass_no, trace=None):
    """Issues every query once in `order`, each after one run of the
    calibration kernel; returns (latencies in reference ms, outcome
    tally, median speed factor, per-query records). With a tracer the
    library calls are traced."""
    lib, wl = state.lib, state.workload
    lats, kms, mine = [], [], []
    tally = {"errors": 0, "exhausted": 0, "fallback": 0, "solves": 0}
    child_dir = tempfile.mkdtemp(dir=OUT) if trace is not None and wl == "cli" else None
    for i in order:
        spec, inp = state.specs[i], state.inputs[i]
        trace_out = None
        if trace is not None:
            trace.query_id = i
            if child_dir:
                trace_out = os.path.join(child_dir, "%d.json" % i)
        kms.append(kernel_ms(wl))
        w0, c0 = perf_counter_ns(), cpu_ns()
        try:
            raw = workloads.execute(lib, wl, spec, inp, CHILD_ENV, trace_out)
            failure = None
        except Exception as err:  # a library failure is a result to record
            raw, failure = None, "%s: %s" % (type(err).__name__, err)
        lat, wall = (cpu_ns() - c0) / 1e6, (perf_counter_ns() - w0) / 1e6
        if failure is None:
            try:
                outcome = workloads.outcome_class(wl, spec, raw)
                problems = workloads.check(lib, wl, spec, inp, raw)
            except Exception as err:  # an answer the checker cannot read is wrong
                outcome, problems = "unreadable", ["check raised %s: %s" % (
                    type(err).__name__, err)]
        else:
            outcome, problems = "raised", [failure]
        if trace_out:
            with open(trace_out) as fh:
                child = json.load(fh)
            tracer.merge_summaries(state.child_summary, child["summary"])
            for name, count in child["hits"].items():
                state.child_hits[name] = state.child_hits.get(name, 0) + count
        lats.append(lat)
        tally["errors"] += bool(problems)
        tally["exhausted"] += outcome == "exhausted"
        if wl == "solve" and failure is None:
            tally["solves"] += 1
            tally["fallback"] += bool(getattr(raw, "exhausted", False))
        mine.append(query_record(state, i, raw, outcome, lat, wall, problems, pass_no,
                                 trace is not None))
    if child_dir:
        shutil.rmtree(child_dir, ignore_errors=True)
    speed = calib.factors(kms, reference_ms(wl))
    for rec, f in zip(mine, speed):
        rec["speed"] = round(f, 4)
        rec["latency_ms"] = round(rec["cpu_ms"] * f, 4)
    return [x * f for x, f in zip(lats, speed)], tally, statistics.median(speed), mine


def query_record(state, i, raw, outcome, lat, wall, problems, pass_no, traced):
    spec, inp = state.specs[i], state.inputs[i]
    G = None
    if state.workload == "scatter":
        G = raw[0] if isinstance(raw, tuple) else None
    elif state.workload == "cli":
        G = inp["graphs"].get("host")
    else:
        G = inp.get("G")
    rec = {
        "workload": state.workload, "id": spec["id"],
        "entry": spec.get("entry") or " ".join(spec["argv"][:2]),
        "n": G.n if G is not None else None,
        "m": G.num_edges() if G is not None else None,
        "pattern": spec.get("pattern") or spec.get("files", {}).get("pattern"),
        "params": spec.get("params", {}), "host": spec.get("host"),
        "outcome": outcome, "reference": spec["expect"].get("class",
                                                            spec["expect"].get("exit")),
        "cpu_ms": round(lat, 4), "wall_ms": round(wall, 4),
        "pass": pass_no, "traced": traced,
    }
    if problems:
        rec["problems"] = problems
    return rec


def p90(values):
    """The 90th percentile (nearest rank); with at least 100 values at
    least ten lie beyond it."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def per_query_medians(passes, order):
    """Each query's median latency over the passes of a run."""
    return [statistics.median(lats[k] for lats in passes) for k in range(len(order))]


def settle():
    """Collects garbage and freezes everything alive, so that a later
    collection inside a query does not scan the benchmark's own data."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(summary, hits, passes, speed, tally, untraced_ms, traced_ms, workload,
                  cli_probe):
    """Per-layer metrics per traced pass; span times are scaled to
    reference ms by the traced passes' median speed factor."""
    def total(name, key="ns"):
        return summary.get(name, {}).get(key, 0)

    def ms(*names, key="ns"):
        return sum(total(n, key) for n in names) / 1e6 / passes * speed

    def calls(name):
        return total(name, "calls") / passes

    def hit_ratio(name):
        c = total(name, "calls")
        return hits.get(name, 0) / c if c else 0.0

    layer_self = {layer: sum(rec["self_ns"] for name, rec in summary.items()
                             if name.split(".", 1)[0] == layer)
                  for layer in tracer.LAYERS}
    all_self = sum(layer_self.values())
    home = sum(layer_self[lay] for lay in workloads.HOME_LAYERS[workload])
    m = {
        "minors.dag_disjoint_paths.calls": (calls("minors.dag_disjoint_paths"), "count"),
        "minors.dag_disjoint_paths.ms": (ms("minors.dag_disjoint_paths"), "ms"),
        "minors.dag_disjoint_paths.hit_ratio": (hit_ratio("minors.dag_disjoint_paths"), "ratio"),
        "minors.guess_ms": (ms("minors.dag_minor_check", "minors.shallow_minor_check",
                               "minors._enumerate_guesses", key="self_ns"), "ms"),
        "minors.general_minor_check.ms": (ms("minors.general_minor_check"), "ms"),
        "minors.grad.ms": (ms("minors.grad"), "ms"),
        "minors.is_butterfly_minor.ms": (ms("minors.is_butterfly_minor"), "ms"),
        "minors.verify_model.calls": (calls("minors.verify_model"), "count"),
        "minors.verify_model.ms": (ms("minors.verify_model"), "ms"),
    }
    for entry in ("independent_dominating_set", "d_dominating_set",
                  "dominating_outbranching", "independent_set"):
        m["solvers.%s.ms" % entry] = (ms("solvers." + entry), "ms")
    m["solvers.directed_steiner_outtree.calls"] = (calls("solvers.directed_steiner_outtree"),
                                                   "count")
    m["solvers.directed_steiner_outtree.ms"] = (ms("solvers.directed_steiner_outtree"), "ms")
    m["solvers.fallback_ratio"] = (
        tally["fallback"] / tally["solves"] if tally["solves"] else 0.0, "ratio")
    m["quasiwide.compute_scattered.calls"] = (calls("quasiwide.compute_scattered"), "count")
    m["quasiwide.compute_scattered.ms"] = (ms("quasiwide.compute_scattered"), "ms")
    m["quasiwide.compute_scattered.hit_ratio"] = (
        hit_ratio("quasiwide.compute_scattered"), "ratio")
    for fn in ("is_scattered", "build_controlled_bipartite", "scattered_or_crown",
               "crown_to_model", "without_vertices"):
        m["quasiwide.%s.ms" % fn] = (ms("quasiwide." + fn), "ms")
    m["digraph.construct.calls"] = (calls("digraph.construct"), "count")
    m["digraph.construct.ms"] = (ms("digraph.construct"), "ms")
    m["digraph.bfs_dist.calls"] = (calls("digraph.bfs_dist"), "count")
    m["digraph.bfs_dist.ms"] = (ms("digraph.bfs_dist"), "ms")
    m["digraph.topological_order.ms"] = (ms("digraph.topological_order"), "ms")
    m["graphio.parse_graph.ms"] = (ms("graphio.parse_graph"), "ms")
    m["graphio.emit_graph.ms"] = (ms("graphio.emit_graph"), "ms")
    m["witnessdoc.emit.ms"] = (ms("witnessdoc.emit_model", "witnessdoc.emit_scattered",
                                  "witnessdoc.emit_vertex_set",
                                  "witnessdoc.emit_outbranching"), "ms")
    m["witnessdoc.parse.ms"] = (ms("witnessdoc.parse_witness"), "ms")
    for layer in tracer.LAYERS:
        m["%s.self_ms" % layer] = (layer_self[layer] / 1e6 / passes * speed, "ms")
    m["home.self_share"] = (home / all_self if all_self else 0.0, "ratio")
    m["cli.interpreter_ms"] = (cli_probe.get("interpreter_ms", 0.0), "ms")
    m["cli.import_ms"] = (cli_probe.get("import_ms", 0.0), "ms")
    m["cli.command_ms"] = (cli_probe.get("command_ms", 0.0), "ms")
    m["trace.overhead_ratio"] = (traced_ms / untraced_ms, "ratio")
    return m


def cli_probe(command_lats):
    """Splits a command's time (cli units, see calib.py) into a bare
    interpreter, the import of crownminor.cli on top of it, and the
    rest. Bare and importing starts alternate, and the import is scaled
    by the bare starts around it, so the split does not depend on how
    fast the machine was while the commands ran. The bare start is the
    cli unit itself, so interpreter_ms is scaled by the in-process
    kernel instead."""
    py = sys.executable
    bare, imp, ks = [], [], []
    for _ in range(PROBE_SPAWNS):
        bare.append(spawn_ms([py, "-c", "pass"], CHILD_ENV))
        imp.append(spawn_ms([py, "-c", "import crownminor.cli"], CHILD_ENV))
        ks.append(in_process_kernel_ms())
    bare_ms = statistics.median(bare)
    imported = statistics.median(imp) * calib.SPAWN_REFERENCE_MS / bare_ms
    return {"interpreter_ms": bare_ms * calib.REFERENCE_MS / statistics.median(ks),
            "import_ms": imported - calib.SPAWN_REFERENCE_MS,
            "command_ms": statistics.median(command_lats) - imported}


# ---------------------------------------------------------------------------
# main


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu():
    """Keeps this process, and the children it spawns, on one CPU, so
    that the calibration kernel and every query (in-process or in a
    child) run on the same core and see the same speed."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1]


def run(args):
    os.makedirs(OUT, exist_ok=True)
    cpu = pin_to_one_cpu()
    env_rec = environment(args)
    env_rec["pinned_cpu"] = cpu
    state, setup_s = set_up(args.workload)
    order = list(range(len(state.specs)))
    random.Random(args.seed).shuffle(order)
    untraced, traced, traced_speeds, walls, failures = [], [], [], [], []
    tally_all = {"errors": 0, "exhausted": 0, "fallback": 0, "solves": 0}
    traced_tally = dict(tally_all)
    trace = tracer.Tracer() if args.trace else None
    path = os.path.join(OUT, "%s-seed%d-trace%d.jsonl" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        fh.write(json.dumps(dict(env_rec, record="environment")) + "\n")

        def keep(records):
            """Writes a pass's records out, so that the benchmark's own
            memory does not grow with the number of passes."""
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
                if not rec["traced"]:
                    walls.append(rec["wall_ms"])
                if "problems" in rec:
                    failures.append("failed %s pass %d: %s" % (
                        rec["id"], rec["pass"], "; ".join(rec["problems"])))

        start = perf_counter()
        pass_no = 0
        while True:
            settle()
            lats, tally, speed, records = run_pass(state, order, pass_no)
            keep(records)
            untraced.append(lats)
            for key in tally:
                tally_all[key] += tally[key]
            pass_no += 1
            if trace is not None:
                settle()
                trace.install(state.lib)
                try:
                    lats, tally, speed, records = run_pass(state, order, pass_no, trace)
                finally:
                    trace.uninstall()
                keep(records)
                traced.append(lats)
                traced_speeds.append(speed)
                for key in tally:
                    traced_tally[key] += tally[key]
                    tally_all[key] += tally[key]
                pass_no += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / pass_no * (2 if trace else 1) > args.seconds:
                break

        all_lats = [x for lats in untraced for x in lats]
        attempted = len(all_lats) + sum(len(t) for t in traced)
        if not args.trace:
            typical = per_query_medians(untraced, order)
            metrics = {
                "latency_p50_ms": (statistics.median(typical), "ms"),
                "latency_p90_ms": (p90(typical), "ms"),
                "throughput_qps": (len(all_lats) / (sum(all_lats) / 1000.0), "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
            }
        else:
            probe = cli_probe(all_lats) if args.workload == "cli" else {}
            summary = tracer.merge_summaries(trace.summary(), state.child_summary)
            hits = {name: trace.hits.get(name, 0) + state.child_hits.get(name, 0)
                    for name in tracer.HIT_COUNTED}
            metrics = layer_metrics(summary, hits, len(traced),
                                    statistics.median(traced_speeds), traced_tally,
                                    sum(all_lats), sum(x for t in traced for x in t),
                                    args.workload, probe)
            trace.write(os.path.join(OUT, "%s-seed%d-spans.tsv.gz" % (args.workload,
                                                                       args.seed)))
            env_rec["spans"] = len(trace)
        report = {
            "queries": len(state.specs), "passes": pass_no,
            "samples": len(all_lats), "error_rate": tally_all["errors"] / attempted,
            "exhausted_rate": tally_all["exhausted"] / attempted,
            "wall_p50_ms": statistics.median(walls), "wall_p90_ms": p90(walls),
        }
        fh.write(json.dumps(dict(env_rec, record="summary", **report)) + "\n")

    print("environment %s" % json.dumps(env_rec, sort_keys=True))
    print("run queries=%d passes=%d untraced_samples=%d records=%s" % (
        report["queries"], report["passes"], report["samples"], os.path.relpath(path, ROOT)))
    print("metric error_rate %.6f ratio" % report["error_rate"])
    print("metric exhausted_rate %.6f ratio" % report["exhausted_rate"])
    print("metric wall_p50_ms %.6f ms" % report["wall_p50_ms"])
    print("metric wall_p90_ms %.6f ms" % report["wall_p90_ms"])
    for name, (value, unit) in metrics.items():
        print("metric %s %r %s" % (name, value, unit))
    for line in failures:
        print(line)
    return {
        "correct": tally_all["errors"] == 0,
        "attempted": attempted,
        "failed": tally_all["errors"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print("benchmark cannot run: %s" % err, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
