"""Workload definitions: every input is generated from the workload seed.

Each iteration ``i`` of a run with workload seed ``s`` uses its own
instance seeds, ``s * SEED_STRIDE + i * per_iteration + j``, so no
instance repeats within a run: the 16-instance ``GraphSpec.build`` memo,
the per-graph memos and the service queue's content-key dedup never
turn an iteration into cache reads.

Rows are checked two ways: every row must report ``correct``, and the
sha256 of an iteration's canonical rows must agree between the untraced
and traced passes and, for ``DEFAULT_SEED``, with the digest recorded
in ``GOLDEN_DIGESTS``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

#: the four MST schemes of the paper, in registry order
SCHEMES = ("trivial", "theorem2", "theorem3", "theorem3-level")

#: instance seeds of one run never leave ``[s * SEED_STRIDE, (s + 1) * SEED_STRIDE)``
SEED_STRIDE = 1 << 20

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: instances (graph seeds) generated per iteration
    instances: int
    family: str
    n: int
    density: float
    #: (kind, target, backend) treatments run on every instance
    treatments: Tuple[Tuple[str, str, str], ...]
    #: share of the timed work that slows with the host's interpreted-Python
    #: speed, fitted from runs against the reference kernel (reference.py)
    python_share: float = 1.0
    #: runs through ``repro serve`` instead of ``run_tasks`` in-process
    service: bool = False

    @property
    def tasks_per_iteration(self) -> int:
        return self.instances * len(self.treatments)


def _schemes(backend: str) -> Tuple[Tuple[str, str, str], ...]:
    return tuple(("scheme", scheme, backend) for scheme in SCHEMES)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("sweep-random", 16, "random", 1024, 0.04, _schemes("analytic"),
                 python_share=0.6),
        Workload("engine-ghs", 4, "random", 256, 0.04,
                 _schemes("engine") + (("baseline", "ghs", "engine"),)),
        Workload("service-small", 128, "random", 64, 0.1, _schemes("analytic"),
                 python_share=0.2, service=True),
    )
}

#: sha256 of the canonical rows of iteration 0 at ``DEFAULT_SEED``
GOLDEN_DIGESTS = {
    "sweep-random": "b2c7369cd0c3797695b7a484a5cdad43df8ebbe70e2b6b44766fe8ffdd9c4c1e",
    "engine-ghs": "d96d7ccdca3e38b3fd6039635b0e27628f945d1d7bd39619ab880fe3458cbb02",
    "service-small": "a517b358b75fdc3b2de3afb1cf724a658acbb3a4246796cd150b0cec199d9f77",
}


def iteration_seeds(workload: Workload, seed: int, iteration: int) -> List[int]:
    """The instance seeds of one iteration; disjoint across iterations and runs."""
    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    first = iteration * workload.instances
    if first + workload.instances > SEED_STRIDE:
        raise ValueError(f"iteration {iteration} exceeds the seed range of one run")
    base = seed * SEED_STRIDE + first
    return list(range(base, base + workload.instances))


def make_tasks(workload: Workload, seeds: Sequence[int]) -> List[Any]:
    """The ``SweepTask`` list of one iteration, in ``repro sweep`` order.

    Target-major, then seed: the order ``compile_tasks`` gives a sweep
    experiment, so the service job and the local runs see the same list.
    """
    from repro.runner.tasks import GraphSpec, SweepTask

    graph = GraphSpec(workload.family, workload.density)
    return [
        SweepTask(kind, target, graph, n=workload.n, seed=seed, backend=backend)
        for kind, target, backend in workload.treatments
        for seed in seeds
    ]


def make_spec(workload: Workload, seeds: Sequence[int]) -> str:
    """The JSON report spec a ``service-small`` client POSTs for one iteration."""
    backends = {backend for _, _, backend in workload.treatments}
    if len(backends) != 1 or any(kind != "scheme" for kind, _, _ in workload.treatments):
        raise ValueError(f"workload {workload.name} has no single-sweep spec form")
    return json.dumps(
        {
            "title": f"perfbench {workload.name}",
            "defaults": {"backend": backends.pop()},
            "experiment": [
                {
                    "name": "sweep",
                    "kind": "sweep",
                    "schemes": [target for _, target, _ in workload.treatments],
                    "graph": {"family": workload.family, "density": workload.density},
                    "sizes": [workload.n],
                    "seeds": list(seeds),
                }
            ],
        },
        sort_keys=True,
    )


def canonical(rows: Sequence[Dict[str, Any]]) -> bytes:
    return json.dumps(list(rows), sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(rows: Sequence[Dict[str, Any]]) -> str:
    return hashlib.sha256(canonical(rows)).hexdigest()


def check_rows(rows: Sequence[Dict[str, Any]], expected: int) -> List[str]:
    """Problems with one iteration's rows: a wrong count or an incorrect row."""
    problems = []
    if len(rows) != expected:
        problems.append(f"expected {expected} rows, got {len(rows)}")
    for row in rows:
        if not (isinstance(row, dict) and row.get("correct") is True):
            problems.append(f"row not correct: {row!r:.200}")
    return problems


def compare_rows(
    reference: Sequence[Dict[str, Any]], other: Sequence[Dict[str, Any]]
) -> int:
    """How many rows differ between two passes over the same tasks."""
    differing = sum(1 for a, b in zip(reference, other) if canonical([a]) != canonical([b]))
    return differing + abs(len(reference) - len(other))
