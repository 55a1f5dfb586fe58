"""Self-tests of the benchmark harness (inputs, span arithmetic, output checks)."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402
from perfbench.layers import traced_rows  # noqa: E402
from perfbench.spans import Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    canonical,
    check_rows,
    compare_rows,
    digest,
    iteration_seeds,
    make_spec,
    make_tasks,
)
from repro.runner import run_tasks  # noqa: E402
from repro.runner.tasks import clear_graph_memo  # noqa: E402


def _inputs(name: str, seed: int, iteration: int) -> bytes:
    workload = WORKLOADS[name]
    seeds = iteration_seeds(workload, seed, iteration)
    tasks = make_tasks(workload, seeds)
    spec = make_spec(workload, seeds) if workload.service else ""
    return canonical([task.key_dict() for task in tasks]) + spec.encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    assert _inputs(name, 7, 3) == _inputs(name, 7, 3)
    assert _inputs(name, 7, 3) != _inputs(name, 8, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_iteration_seeds_never_repeat_within_or_across_runs(name):
    workload = WORKLOADS[name]
    seen = set()
    for seed in (0, 1):
        for iteration in range(50):
            seeds = iteration_seeds(workload, seed, iteration)
            assert len(seeds) == workload.instances
            assert seen.isdisjoint(seeds)
            seen.update(seeds)


def test_service_spec_compiles_to_the_local_task_list():
    from repro.report.pipeline import compile_tasks
    from repro.report.spec import parse_spec_text

    workload = WORKLOADS["service-small"]
    seeds = iteration_seeds(workload, 3, 2)
    spec = parse_spec_text(make_spec(workload, seeds), fmt="json")
    compiled = [task for _, tasks in compile_tasks(spec) for task in tasks]
    assert [t.task_hash() for t in compiled] == [
        t.task_hash() for t in make_tasks(workload, seeds)
    ]


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, ("w", 0))


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        _span(0, 0.0, 10.0, name="group"),
        _span(1, 1.0, 3.0, parent=0, name="build"),
        _span(2, 2.0, 5.0, parent=0, name="trace"),  # overlaps span 1
        _span(3, 9.0, 12.0, parent=0, name="verify"),  # overhangs the parent
        _span(4, 1.5, 2.5, parent=1, name="inner"),
        _span(5, 20.0, 21.0, name="group"),
    ]
    own = self_times(spans)
    # children cover [1, 5] and [9, 10] of the parent's [0, 10]
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def test_tracer_nests_spans_and_records_run_ids():
    tracer = Tracer("w")
    tracer.iteration = 4
    with tracer.span("outer"):
        with tracer.span("inner") as attrs:
            attrs["edges"] = 3
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.span_id)
    assert inner.run == ("w", 4) and inner.attrs == {"edges": 3}
    assert outer.start <= inner.start <= inner.end <= outer.end


#: small stand-ins of the workloads: the same treatments at toy sizes
_SMALL = [
    dataclasses.replace(WORKLOADS["sweep-random"], instances=2, n=48, density=0.1),
    dataclasses.replace(WORKLOADS["engine-ghs"], instances=2, n=24, density=0.2),
    Workload("hypercube", 2, "hypercube", 32, 0.0, (("scheme", "theorem3", "analytic"),)),
]


@pytest.mark.parametrize("workload", _SMALL, ids=lambda w: w.name)
def test_traced_pass_reproduces_the_untraced_rows(workload):
    tasks = make_tasks(workload, iteration_seeds(workload, 5, 1))
    rows = run_tasks(tasks, jobs=1)
    clear_graph_memo()
    tracer = Tracer(workload.name)
    traced = traced_rows(tasks, tracer)
    assert check_rows(rows, len(tasks)) == []
    assert digest(traced) == digest(rows)
    names = {span.name for span in tracer.spans}
    assert {"runner.plan", "graphs.build", "problems.verify"} <= names


def test_a_corrupted_row_fails_the_output_checks():
    workload = _SMALL[0]
    tasks = make_tasks(workload, iteration_seeds(workload, 0, 0))
    rows = run_tasks(tasks, jobs=1)
    assert check_rows(rows, len(tasks)) == []
    wrong = [dict(row) for row in rows]
    wrong[3]["correct"] = False
    assert check_rows(wrong, len(tasks))
    skewed = [dict(row) for row in rows]
    skewed[1]["rounds"] += 1
    assert compare_rows(rows, skewed) == 1
    assert digest(skewed) != digest(rows)
    assert check_rows(rows[:-1], len(tasks))
    assert compare_rows(rows, rows[:-1]) == 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep-random",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_correction_scales_only_the_python_share():
    samples = [reference.NOMINAL_SECONDS * 2] * 3  # a host twice as slow
    assert reference.slowdown(samples) == pytest.approx(2.0)
    assert reference.correction(samples, 1.0) == pytest.approx(2.0)
    assert reference.correction(samples, 0.25) == pytest.approx(1.25)
    assert reference.correction(samples, 0.0) == 1.0
    assert reference.correction([], 1.0) == 1.0
    assert reference.sample() > 0
