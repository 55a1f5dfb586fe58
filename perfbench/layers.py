"""The traced pass: the same tasks, one span around each layer's public call.

The calls follow the sharing pattern of ``repro.runner.plan.InstanceContext``:
the graph once per instance, the Borůvka trace once per (instance,
root), the advice once per scheme, and verification once per distinct
output map.  The decoder runs separately from ``check_outputs`` so that
verification gets its own span instead of hiding inside ``run_scheme``.
The rows built here must equal the rows ``run_tasks`` returns for the
same tasks; the caller compares their digests.

Span names are the per-layer metric stems of ``BENCHMARK.json``:
``graphs.build``, ``mst.trace``, ``core.advice``, ``simulator.analytic``,
``simulator.engine``, ``distributed.ghs``, ``problems.verify`` and
``runner.plan``; ``runner.group`` wraps one instance group.
"""

from __future__ import annotations

import inspect
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.oracle import run_sync
from repro.core.problem import OutputCheck, get_problem
from repro.mst.boruvka import boruvka_trace
from repro.runner.plan import plan_groups
from repro.runner.registry import build_graph, resolve_baseline, resolve_scheme
from repro.simulator.analytic import run_scheme_analytic

from perfbench.spans import Tracer

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def current_rss_mb() -> float:
    """Resident set size of this process now (not its peak)."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


def _verify(tracer: Tracer, memo: List[Tuple[Any, Any]], graph, problem: str,
            outputs: Dict[int, Any], root: Optional[int]) -> OutputCheck:
    """``check_outputs`` once per distinct ``(problem, root, outputs)``."""
    for key, check in memo:
        if key == (problem, root, outputs):
            return check
    with tracer.span("problems.verify"):
        check = get_problem(problem).check_outputs(graph, outputs, expected_root=root)
    memo.append(((problem, root, outputs), check))
    return check


def traced_rows(tasks: Sequence[Any], tracer: Tracer) -> List[Dict[str, Any]]:
    """Execute ``tasks`` layer by layer under ``tracer``; rows in task order."""
    with tracer.span("runner.plan"):
        groups = plan_groups(tasks)
    rows: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    for group in groups:
        with tracer.span("runner.group"):
            first = group.tasks[0]
            before = current_rss_mb()
            with tracer.span("graphs.build") as attrs:
                graph = build_graph(first.graph.family, first.n, first.seed, first.graph.density)
            attrs.update(edges=graph.m, rss_growth_mb=current_rss_mb() - before)
            traces: Dict[int, Any] = {}
            advice: Dict[Tuple[str, str, int], Tuple[Any, Any]] = {}
            verified: List[Tuple[Any, Any]] = []
            for index, task in zip(group.indices, group.tasks):
                if task.kind == "scheme":
                    rows[index] = _scheme_row(tracer, task, graph, traces, advice, verified)
                else:
                    rows[index] = _baseline_row(tracer, task, graph, verified)
    return rows  # type: ignore[return-value]


def _scheme_row(tracer: Tracer, task, graph, traces, advice_memo, verified) -> Dict[str, Any]:
    root = task.root % graph.n
    memo_key = (task.problem, task.target, root)
    if memo_key not in advice_memo:
        scheme = resolve_scheme(task.target, problem=task.problem)
        if "trace" in inspect.signature(scheme.compute_advice).parameters:
            if root not in traces:
                before = current_rss_mb()
                with tracer.span("mst.trace") as attrs:
                    traces[root] = boruvka_trace(graph, root=root)
                attrs.update(phases=len(traces[root].phases),
                             rss_growth_mb=current_rss_mb() - before)
            with tracer.span("core.advice") as attrs:
                advice = scheme.compute_advice(graph, root=root, trace=traces[root])
        else:
            with tracer.span("core.advice") as attrs:
                advice = scheme.compute_advice(graph, root=root)
        attrs["advice_bits"] = advice.stats().total_bits
        advice_memo[memo_key] = (scheme, advice)
    scheme, advice = advice_memo[memo_key]
    if task.backend == "analytic":
        with tracer.span("simulator.analytic"):
            _, result = run_scheme_analytic(scheme, graph, root=root, advice=advice)
    else:
        with tracer.span("simulator.engine") as attrs:
            result = run_sync(graph, scheme.program_factory(), advice=advice.as_payloads())
        attrs.update(messages=result.metrics.total_messages, rounds=result.metrics.rounds)
    if result.completed:
        check = _verify(tracer, verified, graph, scheme.problem, result.outputs, root)
    else:
        check = OutputCheck(False, "the decoder did not terminate within the round limit")
    stats = advice.stats()
    metrics = result.metrics
    return {
        "kind": "scheme",
        "problem": scheme.problem,
        "scheme": scheme.name,
        "n": task.n,
        "seed": task.seed,
        "max_advice_bits": stats.max_bits,
        "avg_advice_bits": stats.average_bits,
        "total_advice_bits": stats.total_bits,
        "rounds": metrics.rounds,
        "max_edge_bits": metrics.max_edge_bits_per_round,
        "total_messages": metrics.total_messages,
        "total_message_bits": metrics.total_message_bits,
        "correct": check.ok,
    }


def _baseline_row(tracer: Tracer, task, graph, verified) -> Dict[str, Any]:
    baseline = resolve_baseline(task.target, problem=task.problem)
    bound = baseline.round_bound(graph)
    with tracer.span("distributed.ghs") as attrs:
        result = run_sync(graph, baseline.program_factory(graph), advice=None,
                          max_rounds=None if bound is None else int(bound) + 50)
    attrs.update(messages=result.metrics.total_messages, rounds=result.metrics.rounds)
    if result.completed:
        check = _verify(tracer, verified, graph, baseline.problem, result.outputs, None)
    else:
        check = OutputCheck(False, "the baseline did not terminate within the round limit")
    metrics = result.metrics
    return {
        "kind": "baseline",
        "problem": baseline.problem,
        "scheme": baseline.name,
        "n": task.n,
        "seed": task.seed,
        "rounds": metrics.rounds,
        "max_edge_bits": metrics.max_edge_bits_per_round,
        "total_messages": metrics.total_messages,
        "total_message_bits": metrics.total_message_bits,
        "correct": check.ok,
        "round_bound": bound,
    }
