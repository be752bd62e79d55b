"""Outside-in span tracer for the crownminor modules.

The tracer wraps module-level functions from outside the library: the
wrapper is installed in every crownminor module namespace that holds the
original function object (the defining module and every module that
imported the name), so intra-module and cross-module calls both go
through it. ``Digraph.__init__`` is wrapped on the class. Generator
functions are timed per ``next()``, so the consumer's work between two
yields is not charged to the generator.

Spans live in memory as parallel arrays (name id, start, end, parent,
query id) and are written when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

import gzip
import inspect
import sys
from array import array
from time import perf_counter_ns

# (module, attribute) pairs wrapped as spans. The span is named
# "<module>.<attribute>". Besides the entry points the per-layer metrics
# name, every function another layer imports is listed, so that time
# spent behind a layer boundary is never charged to the caller's layer.
WRAPPED = {
    "digraph": (
        "bfs_dist", "topological_order", "find_cycle", "is_dag",
        "is_directed_bipartite", "out_neighborhood", "in_neighborhood",
        "set_neighborhood", "count_alternations", "underlying_undirected",
        "bidirect",
    ),
    "generators": (
        "crown", "reversed_crown", "alternating_path", "acyclic_tournament",
        "random_tournament", "oriented_grid", "random_bipartite_outregular",
        "embed_acyclic_tournament", "extract_grid_alternating_path",
        "crown_pattern_probability",
    ),
    "graphio": ("parse_graph", "emit_graph", "load_graph", "save_graph"),
    "minors": (
        "verify_model", "dag_disjoint_paths", "dag_disjoint_paths_bounded",
        "dag_minor_check", "shallow_minor_check", "general_minor_check",
        "grad", "is_butterfly_minor", "topological_minor_check",
        "subdivision_to_model", "_enumerate_guesses",
    ),
    "quasiwide": (
        "is_scattered", "compute_scattered", "build_controlled_bipartite",
        "scattered_or_crown", "crown_to_model", "without_vertices",
        "dichotomy_step", "iterate_dichotomy", "bipartite_trichotomy",
    ),
    "solvers": (
        "independent_dominating_set", "d_dominating_set",
        "dominating_outbranching", "independent_set",
        "directed_steiner_outtree", "brute_force_solve",
    ),
    "witnessdoc": (
        "emit_model", "emit_scattered", "emit_vertex_set",
        "emit_outbranching", "parse_witness",
    ),
    "cli": ("main",),
}

# Span names that also count how many calls returned something other
# than None (the hit ratio of a search that may come back empty).
HIT_COUNTED = ("minors.dag_disjoint_paths", "quasiwide.compute_scattered")

LAYERS = ("digraph", "generators", "graphio", "minors", "quasiwide",
          "solvers", "witnessdoc", "cli")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.hits = {}
        self.query_id = -1
        self._stack = []
        self._installed = []

    def _intern(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name):
        """Opens a span around code that is not a wrapped function."""
        return self._open(self._intern(name))

    def close_span(self, idx):
        self._close(idx)

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        nid = self._intern(name)
        opened, closed = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = opened(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            closed(idx)
                        yield item
                finally:
                    gen.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        if name in HIT_COUNTED:
            hits = self.hits
            hits.setdefault(name, 0)

            def traced_hit(*args, **kwargs):
                idx = opened(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    closed(idx)
                if out is not None:
                    hits[name] += 1
                return out

            traced_hit.__wrapped__ = fn
            return traced_hit

        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every WRAPPED function of `package` (the imported
        crownminor package) in all crownminor namespaces holding it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for modname, attrs in WRAPPED.items():
            mod = sys.modules.get("%s.%s" % (prefix, modname))
            if mod is None:
                continue
            for attr in attrs:
                orig = getattr(mod, attr)
                wrapper = self.span("%s.%s" % (modname, attr), orig)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapper)
                            self._installed.append((ns, key, orig))
        digraph = sys.modules["%s.digraph" % prefix].Digraph
        orig_init = digraph.__init__
        digraph.__init__ = self.span("digraph.construct", orig_init)
        self._installed.append((digraph, "__init__", orig_init))

    def uninstall(self):
        for ns, key, orig in reversed(self._installed):
            setattr(ns, key, orig)
        self._installed = []

    def __len__(self):
        return len(self.start)

    def summary(self):
        """Per span name: calls, inclusive ns and self ns. Self time is a
        span's duration minus the durations of its direct children."""
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = array("q", bytes(8 * len(start)))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, nid in enumerate(name_of):
            dur = end[i] - start[i]
            calls[nid] += 1
            p = parent[i]
            if p < 0 or name_of[p] != nid:
                # a directly recursive call's time is already in its caller's
                incl[nid] += dur
            own[nid] += dur - child[i]
        return {name: {"calls": calls[nid], "ns": incl[nid], "self_ns": own[nid]}
                for nid, name in enumerate(self.names) if calls[nid]}

    def write(self, path):
        """All spans as gzipped tab-separated lines:
        index, name, start_ns, end_ns, parent index, query id."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (
                    i, self.names[self.name_of[i]], self.start[i], self.end[i],
                    self.parent[i], self.query[i]))


def merge_summaries(total, part):
    """Add per-name summary `part` into `total` in place."""
    for name, rec in part.items():
        acc = total.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
        for key in acc:
            acc[key] += rec[key]
    return total
