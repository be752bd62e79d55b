"""Speed calibration for a shared machine.

On the virtual machines this benchmark runs on, the speed of the CPU
seen by one process drifts by up to a factor of two over seconds, as
other guests load the host. The drift hits the library's queries and a
fixed interpreter-bound kernel alike, so the benchmark runs the kernel
next to every query and scales each query's CPU time by
``REFERENCE_MS / (kernel time measured around the query)``. Latencies
are therefore reported in reference milliseconds: the time the query
would take on a machine that runs the kernel in REFERENCE_MS.

The kernel uses no library code: BFS over a fixed random out-regular
digraph with dicts and a deque, and frozenset intersections over
4-subsets, the operations the library's searches are made of.

The cli workload's queries are interpreter start-ups, which track this
kernel poorly: over five passes of its list on a 2-vCPU shared VM,
kernel-scaled medians varied by 9% and spawn-scaled ones by 2%. Its
kernel is therefore a bare ``python -c pass`` started with the same
environment as the commands, and its latencies are in units where that
start takes SPAWN_REFERENCE_MS.
"""

import itertools
import random
import statistics
from collections import deque

REFERENCE_MS = 1.4
# a bare interpreter start on a machine that runs kernel() in REFERENCE_MS
SPAWN_REFERENCE_MS = 72.0
WINDOW = 4  # kernel samples on each side of a query that set its speed

_rng = random.Random(7)
_N = 40
_ADJ = [sorted(_rng.sample(range(_N), 4)) for _ in range(_N)]
_PAIR = frozenset((1, 2))


def kernel():
    total = 0
    for src in range(_N):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += len(dist)
    for combo in itertools.combinations(range(14), 4):
        if frozenset(combo) & _PAIR:
            total += 1
    return total


def factors(kernel_ms, reference_ms):
    """Per position, `reference_ms` over the median kernel time in the
    window of WINDOW samples on either side."""
    out = []
    for i in range(len(kernel_ms)):
        window = kernel_ms[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(reference_ms / statistics.median(window))
    return out
