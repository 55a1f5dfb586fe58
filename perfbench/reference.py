"""A fixed reference kernel that times the host instead of the program.

The reference host is a shared VM whose speed steps by up to ≈40% for
minutes at a time, so a run of 30 s sits inside one speed and two runs
of the same code can differ by more than a regression bound.  Each run
therefore also times this kernel, which calls nothing in ``repro``, and
expresses its timed metrics in *reference-host seconds*: the measured
wall time divided by ``slowdown``, the kernel's time now relative to its
time on the reference host (``NOMINAL_SECONDS``).  A change to the
program moves the measured wall time and leaves the kernel alone, so it
shows in full; a change in host speed moves both, and cancels out.

The kernel is pure Python in the style of the round-by-round engine and
the service's bookkeeping: dict and list building, a sort, and
union-find over a fixed random graph (Kruskal's rule on 500 nodes and
3000 edges, eight times per sample).  The graph is small so that the
kernel adds little to the benchmark process's peak memory.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Sequence, Tuple

#: median seconds of one ``sample()`` on the reference host when the
#: benchmark was defined (it ranged from 0.022 to 0.040 s over a minute)
NOMINAL_SECONDS = 0.030

_NODES = 500
_EDGES = 3000
_REPEATS = 8


def _graph() -> List[Tuple[int, int, float]]:
    rng = random.Random(20070609)
    return [(rng.randrange(_NODES), rng.randrange(_NODES), rng.random())
            for _ in range(_EDGES)]


_GRAPH = _graph()


def _kernel(edges: Sequence[Tuple[int, int, float]]) -> float:
    adjacency = {}
    for u, v, w in edges:
        adjacency.setdefault(u, []).append((w, v))
        adjacency.setdefault(v, []).append((w, u))
    parent = list(range(_NODES))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for u, v, w in sorted(edges, key=lambda edge: edge[2]):
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            total += w
    lightest = {u: sorted(near)[:3] for u, near in adjacency.items()}
    return total + len(lightest)


def sample() -> float:
    """Seconds one run of the kernel takes on this host, now.

    The kernel makes no reference cycles, so the collector is held off:
    a collection would land on some samples and not on others.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_REPEATS):
            _kernel(_GRAPH)
        return time.perf_counter() - start
    finally:
        gc.enable()


def slowdown(samples: Sequence[float]) -> float:
    """How much slower this host ran than the reference host (1.0 = as fast)."""
    return statistics.median(samples) / NOMINAL_SECONDS if samples else 1.0


def correction(samples: Sequence[float], python_share: float) -> float:
    """Factor from this host's seconds to reference-host seconds for one workload.

    Only the ``python_share`` of a workload's time follows the host's
    speed at interpreted Python; the rest (NumPy kernels, fixed waits)
    is taken to run at the same speed on any host.
    """
    return python_share * slowdown(samples) + (1.0 - python_share)
