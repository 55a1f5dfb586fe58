"""Process-parallel experiment runner.

Reproducing the paper's trade-off curves takes thousands of simulated
runs across sizes, seeds, schemes and graph families.  This subpackage
amortises that workload:

* :mod:`~repro.runner.registry` — names for every scheme, baseline and
  graph family, so a unit of work can be described declaratively;
* :mod:`~repro.runner.tasks` — :class:`GraphSpec` (a picklable,
  hashable graph factory) and :class:`SweepTask` (one ``(target, graph,
  n, seed)`` work unit with a stable content hash);
* :mod:`~repro.runner.cache` — the ``json`` cache backend: one result
  file per task hash;
* :mod:`~repro.runner.store` — the default ``sqlite`` backend: a
  sharded, WAL-mode SQLite store with batched transactional upserts,
  plus ``stats`` / ``gc`` / JSON-cache migration maintenance;
* :mod:`~repro.runner.manifest` — run manifests, the per-group
  checkpoint ledger behind ``--resume``;
* :mod:`~repro.runner.progress` — live done/total + ETA reporting on
  stderr;
* :mod:`~repro.runner.plan` — the execution planner: cache misses are
  grouped by shared graph instance (:func:`plan_groups`), and each
  group runs against one :class:`InstanceContext` that builds the
  graph, Borůvka trace, rooted tree and per-scheme advice exactly once;
* :mod:`~repro.runner.runner` — :func:`run_tasks`, which executes a
  task list serially or over a ``multiprocessing`` pool (``jobs=N``),
  shipping whole instance groups to workers, with deterministic,
  task-order result merging.

``analysis/sweep.py``, the ``repro.report`` pipeline, the ``sweep
--jobs`` / ``bench`` CLI commands and the ``benchmarks/`` suite all
route through :func:`run_tasks`, so serial and parallel runs produce
byte-identical aggregated results.
"""

from repro.runner.cache import ResultCache
from repro.runner.manifest import RunManifest
from repro.runner.plan import ExecutionStats, InstanceContext, TaskGroup, plan_groups
from repro.runner.progress import ProgressReporter
from repro.runner.registry import (
    BACKENDS,
    BASELINES,
    GRAPH_FAMILIES,
    SCHEMES,
    build_graph,
    problem_names,
    qualified_names,
    resolve_baseline,
    resolve_scheme,
    resolve_target,
)
from repro.runner.runner import execute_task, run_tasks
from repro.runner.store import (
    CACHE_BACKENDS,
    DEFAULT_CACHE_BACKEND,
    DEFAULT_SHARDS,
    STORE_SCHEMA_VERSION,
    SQLiteResultStore,
    open_result_store,
)
from repro.runner.tasks import GraphSpec, SweepTask

__all__ = [
    "BACKENDS",
    "BASELINES",
    "CACHE_BACKENDS",
    "DEFAULT_CACHE_BACKEND",
    "DEFAULT_SHARDS",
    "GRAPH_FAMILIES",
    "SCHEMES",
    "STORE_SCHEMA_VERSION",
    "ExecutionStats",
    "GraphSpec",
    "InstanceContext",
    "ProgressReporter",
    "ResultCache",
    "RunManifest",
    "SQLiteResultStore",
    "SweepTask",
    "TaskGroup",
    "build_graph",
    "execute_task",
    "open_result_store",
    "plan_groups",
    "problem_names",
    "qualified_names",
    "resolve_baseline",
    "resolve_scheme",
    "resolve_target",
    "run_tasks",
]
