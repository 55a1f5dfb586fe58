#!/usr/bin/env python3
"""Benchmark of the ``repro`` package: three workloads, two passes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-random --seed 0 --seconds 30 --trace 0

``--trace 0`` is the untraced pass: it prints every end-to-end metric
(``runs_per_s``, ``setup_s``, ``peak_rss_mb``, ``ok_ratio``), with times
in reference-host seconds (see ``perfbench/reference.py``).  ``--trace 1``
follows every untraced iteration with a traced pass over the same
inputs and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when an
output check failed, 2 when the checkout holds no ``src/repro``.
A result file with the host fingerprint, the seeds used and (traced)
the spans lands under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import reference  # noqa: E402
from perfbench.spans import Tracer, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    GOLDEN_DIGESTS,
    WORKLOADS,
    Workload,
    check_rows,
    compare_rows,
    digest,
    iteration_seeds,
    make_spec,
    make_tasks,
)

#: set-up is measured this many times per run, in fresh processes
SETUP_PROBES = 9

#: iterations every run makes, however long they take; with fewer, one
#: slow service job would decide a run's figures on its own
MIN_ITERATIONS = 3

#: seconds a service job may run before the iteration counts as failed
JOB_TIMEOUT = 150.0

#: after each iteration, the reference kernel runs for this share of the
#: iteration's time, so every workload gets a similar number of samples
REFERENCE_SHARE = 0.15

END_TO_END_UNITS = {"runs_per_s": "tasks/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}

PER_LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.edges": "count", "graphs.rss_growth_mb": "MB",
    "mst.trace_s": "s", "mst.phases": "count", "mst.rss_growth_mb": "MB",
    "core.advice_s": "s", "core.advice_bits": "bits",
    "simulator.analytic_s": "s", "simulator.engine_s": "s", "simulator.messages": "count",
    "simulator.rounds": "count", "simulator.messages_per_s": "1/s",
    "distributed.ghs_s": "s",
    "problems.verify_s": "s", "problems.verify_calls": "count",
    "runner.plan_s": "s", "runner.store_get_s": "s", "runner.store_rows": "count",
    "service.submit_ms": "ms", "service.item_ms_p50": "ms", "service.item_ms_p90": "ms",
    "service.lease_gap_ms_p50": "ms", "service.compute_ms_p50": "ms",
    "service.overhead_ms_p50": "ms", "service.tail_ms": "ms",
    "service.leases": "count", "service.completes": "count", "service.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio", "fail_ratio": "ratio",
}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


# ---------------------------------------------------------------------- #
# set-up

def prepare_inputs(workload: Workload, seed: int) -> None:
    """Import the package and generate iteration 0's inputs (the set-up work)."""
    import repro  # noqa: F401 - the import is part of what set-up measures

    seeds = iteration_seeds(workload, seed, 0)
    if workload.service:
        service_tasks(make_spec(workload, seeds))
    else:
        make_tasks(workload, seeds)


def service_tasks(spec: str) -> List[Any]:
    from repro.report.pipeline import compile_tasks
    from repro.report.spec import parse_spec_text

    parsed = parse_spec_text(spec, fmt="json", source="perfbench.json")
    return [task for _, tasks in compile_tasks(parsed) for task in tasks]


def probe_setup(root: Path, workload: Workload, seed: int) -> int:
    """Child side of one set-up measurement: set up, say ``ready``, tear down."""
    prepare_inputs(workload, seed)
    if not workload.service:
        print("ready", flush=True)
        return 0
    from perfbench.service import ServiceDaemon

    with ServiceDaemon(root, work_dir(root)) as daemon:
        print("ready", flush=True)
        daemon.kill()  # no job ran, so there is nothing to drain
    return 0


def measure_setup(root: Path, args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh process to its inputs (and daemon) being ready."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--probe-setup"]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            # SIGTERM first: a service probe stops its own daemon on the way out
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def work_dir(root: Path) -> Path:
    return root / "perfbench" / "out" / "work"


# ---------------------------------------------------------------------- #
# host

def host_fingerprint(root: Path) -> Dict[str, Any]:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    # a fixed-seed NumPy kernel: its time says how fast this host is today,
    # so a snapshot from another host is not read as a regression
    rng = np.random.default_rng(20070609)
    data = rng.random(1 << 18)
    matrix = rng.random((160, 160))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        matrix @ matrix
        times.append(time.perf_counter() - start)
    # the interpreter's own speed drifts apart from NumPy's on shared hosts
    values = [random.Random(20070609).random() for _ in range(1 << 17)]
    python_times = []
    for _ in range(5):
        start = time.perf_counter()
        sorted(values)
        sum(value * value for value in values)
        python_times.append(time.perf_counter() - start)
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "calibration_s": statistics.median(times),
        "calibration_python_s": statistics.median(python_times),
    }


# ---------------------------------------------------------------------- #
# the passes

class RunState:
    """What one run measured: per-iteration walls, failures and spans."""

    def __init__(self, workload: Workload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer: Optional[Tracer] = Tracer(workload.name) if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.walls: List[float] = []
        #: an iteration's whole cost: untraced call, checks, traced pass
        #: and the reference samples after it
        self.iteration_times: List[float] = []
        #: times of the reference kernel, taken between iterations
        self.reference: List[float] = []
        self.setup: List[float] = []
        self.traced_walls: List[float] = []
        #: tasks completed inside the timed calls (``walls``)
        self.timed_tasks = 0
        self.seeds: List[List[int]] = []
        self.peak_rss_mb = 0.0
        self.service: Dict[str, List[float]] = {}

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, iteration: int, rows: Sequence[Dict[str, Any]], expected: int) -> None:
        problems = check_rows(rows, expected)
        if problems:
            self.fail(len(problems), f"iteration {iteration}: {problems[0]}")
        if iteration == 0 and self.seed == DEFAULT_SEED:
            golden = GOLDEN_DIGESTS[self.workload.name]
            if digest(rows) != golden:
                self.fail(len(rows), f"iteration 0 digest {digest(rows)} != recorded {golden}")

    def compare(self, iteration: int, rows, traced) -> None:
        differing = compare_rows(rows, traced)
        if differing:
            self.fail(differing, f"iteration {iteration}: {differing} rows differ "
                                 "between the untraced and traced passes")

    def record(self, key: str, *values: float) -> None:
        self.service.setdefault(key, []).extend(values)


def measure(state: RunState, seconds: float, iterate: Callable[[int], bool],
            probe: Callable[[], float]) -> None:
    """Run iterations until the window is full, with the set-up probes spread over it.

    After ``MIN_ITERATIONS``, an iteration starts only while the window
    has room for one more of median length.  Spreading the probes keeps a
    short burst of load on the host from landing on all of them.  Each
    iteration is followed by reference samples, which count in the window.
    """
    times = state.iteration_times
    iteration = 0
    while True:
        attempted = state.attempted
        try:
            if not iterate(iteration):
                break
        except Exception as exc:  # noqa: BLE001 - a raising task is a failed task
            state.attempted = attempted + state.workload.tasks_per_iteration
            state.fail(state.workload.tasks_per_iteration,
                       f"iteration {iteration} raised {type(exc).__name__}: {exc}")
            break
        iteration += 1
        sample_reference(state)
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * sum(times) / seconds))
        while len(state.setup) < due:
            state.setup.append(probe())
        if len(times) >= MIN_ITERATIONS and sum(times) + statistics.median(times) > seconds:
            break
    while len(state.setup) < SETUP_PROBES:
        state.setup.append(probe())


def sample_reference(state: RunState) -> None:
    """Time the reference kernel for ``REFERENCE_SHARE`` of the last iteration."""
    start = time.perf_counter()
    budget = REFERENCE_SHARE * state.iteration_times[-1]
    while True:
        state.reference.append(reference.sample())
        if time.perf_counter() - start >= budget:
            break
    state.iteration_times[-1] += time.perf_counter() - start


def local_iteration(state: RunState, iteration: int) -> bool:
    """One untraced ``run_tasks`` call and, traced, the layer pass over the same tasks."""
    from perfbench.layers import traced_rows
    from repro.runner import ExecutionStats, run_tasks
    from repro.runner.tasks import clear_graph_memo

    seeds = iteration_seeds(state.workload, state.seed, iteration)
    state.seeds.append(seeds)
    tasks = make_tasks(state.workload, seeds)
    state.attempted += len(tasks)
    stats = ExecutionStats()
    start = time.perf_counter()
    rows = run_tasks(tasks, jobs=1, stats=stats)
    wall = time.perf_counter() - start
    state.walls.append(wall)
    state.timed_tasks += len(tasks)
    if stats.cache_hits:
        state.fail(stats.cache_hits, f"iteration {iteration}: {stats.cache_hits} cache hits")
    state.check(iteration, rows, len(tasks))
    # the instance memo would otherwise carry graphs across iterations,
    # and peak RSS would grow with the number of iterations that fit;
    # collecting here keeps one iteration's garbage out of the next
    clear_graph_memo()
    gc.collect()
    traced_wall = 0.0
    if state.tracer is not None:
        state.tracer.iteration = iteration
        traced_start = time.perf_counter()
        traced = traced_rows(tasks, state.tracer)
        traced_wall = time.perf_counter() - traced_start
        state.traced_walls.append(traced_wall)
        state.compare(iteration, rows, traced)
        del traced
        gc.collect()
    state.iteration_times.append(wall + traced_wall)
    state.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return True


def service_iteration(state: RunState, daemon: Any, store: Any, iteration: int) -> bool:
    """One job through ``repro serve``: POST, poll until it ends, read the rows back.

    Returns ``False`` when the service failed in a way that makes
    further iterations meaningless.
    """
    from perfbench.layers import traced_rows
    from perfbench.service import POLL_SECONDS, item_timings

    seeds = iteration_seeds(state.workload, state.seed, iteration)
    state.seeds.append(seeds)
    spec = make_spec(state.workload, seeds)
    tasks = service_tasks(spec)
    state.attempted += len(tasks)
    before = daemon.counters()
    rows_before = store.stats()["rows"]
    start = time.perf_counter()
    status, body = daemon.request("POST", "/jobs", spec.encode("utf-8"))
    submitted = time.perf_counter()
    if status not in (200, 202):
        state.fail(len(tasks), f"POST /jobs returned {status}: {body[:200]!r}")
        return False
    reply = json.loads(body)
    job_id = reply["job_id"]
    if not reply["created"]:
        state.fail(len(tasks), f"POST /jobs collapsed onto the existing job {job_id}")
        return False
    job_state = "running"
    while job_state == "running":
        time.sleep(POLL_SECONDS)
        state.peak_rss_mb = max(state.peak_rss_mb, daemon.pss_mb())
        status, body = daemon.request("GET", f"/jobs/{job_id}")
        if time.perf_counter() - start > JOB_TIMEOUT:
            job_state = f"running after {JOB_TIMEOUT} s"
        elif status != 200:
            state.fail(1, f"GET /jobs/<id> returned {status}")
        else:
            job_state = json.loads(body)["state"]
    wall = time.perf_counter() - start
    done_at = time.time()
    state.walls.append(wall)
    if job_state != "done":
        state.fail(len(tasks), f"job ended {job_state}")
        return False
    state.timed_tasks += len(tasks)
    after = daemon.counters()

    tracer = state.tracer
    traced_start = time.perf_counter()
    if tracer is not None:
        tracer.iteration = iteration
        with tracer.span("runner.store_get"):
            rows = [store.get(task.task_hash()) for task in tasks]
    else:
        rows = [store.get(task.task_hash()) for task in tasks]
    state.check(iteration, [row or {} for row in rows], len(tasks))
    events = daemon.events()
    keys = {event["key"] for event in events
            if event["kind"] == "enqueue" and event.get("job") == job_id}
    timings = item_timings(events, keys)
    if timings["failures"]:
        state.fail(timings["failures"], f"{timings['failures']} failed or expired leases")
    if tracer is not None:
        first_span = len(tracer.spans)
        traced = traced_rows(tasks, tracer)
        state.traced_walls.append(wall + time.perf_counter() - traced_start)
        state.compare(iteration, rows, traced)
        state.record("compute_ms", *(1000 * span.duration for span in tracer.spans[first_span:]
                                     if span.name == "runner.group"))
        state.record("item_ms", *(1000 * s for s in timings["item_seconds"]))
        state.record("lease_gap_ms", *(1000 * s for s in timings["lease_gaps"]))
        state.record("submit_ms", 1000 * (submitted - start))
        state.record("tail_ms", 1000 * (done_at - (timings["last_complete"] or done_at)))
        state.record("store_rows", store.stats()["rows"] - rows_before)
        for name in ("leases", "completes"):
            counter = f"repro_queue_{name}_total"
            state.record(name, after.get(counter, 0) - before.get(counter, 0))
    state.iteration_times.append(wall + time.perf_counter() - traced_start)
    return True


def run(state: RunState, seconds: float, root: Path, args: argparse.Namespace) -> None:
    def probe() -> float:
        return measure_setup(root, args)

    if not state.workload.service:
        measure(state, seconds, lambda i: local_iteration(state, i), probe)
        return
    from perfbench.service import ServiceDaemon
    from repro.runner.store import open_result_store

    with ServiceDaemon(root, work_dir(root)) as daemon:
        store = open_result_store(daemon.queue_dir)
        try:
            measure(state, seconds, lambda i: service_iteration(state, daemon, store, i), probe)
        finally:
            store.close()


# ---------------------------------------------------------------------- #
# metrics

def wall_metrics(state: RunState) -> Dict[str, float]:
    """The timed end-to-end metrics in this host's own seconds."""
    return {
        "runs_per_s": state.timed_tasks / sum(state.walls) if state.walls else 0.0,
        "setup_s": _median(state.setup),
    }


def end_to_end(state: RunState) -> Dict[str, float]:
    """The end-to-end metrics, times in reference-host seconds (see reference.py)."""
    wall = wall_metrics(state)
    factor = reference.correction(state.reference, state.workload.python_share)
    return {
        "runs_per_s": wall["runs_per_s"] * factor,
        "setup_s": wall["setup_s"] / factor,
        "peak_rss_mb": state.peak_rss_mb,
        # HTTP errors count on top of tasks, so failures can outnumber attempts
        "ok_ratio": max(0.0, 1.0 - state.failed / state.attempted),
    }


def per_layer(state: RunState) -> Dict[str, float]:
    tracer = state.tracer
    assert tracer is not None
    own = self_times(tracer.spans)
    iterations: Dict[int, Dict[str, float]] = {}
    for span in tracer.spans:
        totals = iterations.setdefault(span.run[1], {})
        values = {f"{span.name}_s": own[span.span_id], f"{span.name}_calls": 1,
                  f"{span.name}_wall": span.duration}
        values.update((f"{span.name}.{key}", value) for key, value in span.attrs.items())
        for key, value in values.items():
            # RSS growth is the largest step of the iteration; the rest add up
            if key.endswith("rss_growth_mb"):
                totals[key] = max(totals.get(key, value), value)
            else:
                totals[key] = totals.get(key, 0) + value

    def per_iteration(key: str) -> float:
        return _median([totals.get(key, 0.0) for totals in iterations.values()])

    engine_wall = sum(t.get("simulator.engine_wall", 0.0) for t in iterations.values())
    engine_messages = sum(t.get("simulator.engine.messages", 0) for t in iterations.values())
    service = state.service
    item_p50 = _median(service.get("item_ms", []))
    compute_p50 = _median(service.get("compute_ms", []))
    leases = sum(service.get("leases", []))
    metrics = {
        "graphs.build_s": per_iteration("graphs.build_s"),
        "graphs.edges": per_iteration("graphs.build.edges"),
        "graphs.rss_growth_mb": per_iteration("graphs.build.rss_growth_mb"),
        "mst.trace_s": per_iteration("mst.trace_s"),
        "mst.phases": per_iteration("mst.trace.phases"),
        "mst.rss_growth_mb": per_iteration("mst.trace.rss_growth_mb"),
        "core.advice_s": per_iteration("core.advice_s"),
        "core.advice_bits": per_iteration("core.advice.advice_bits"),
        "simulator.analytic_s": per_iteration("simulator.analytic_s"),
        "simulator.engine_s": per_iteration("simulator.engine_s"),
        "simulator.messages": per_iteration("simulator.engine.messages"),
        "simulator.rounds": per_iteration("simulator.engine.rounds"),
        "simulator.messages_per_s": engine_messages / engine_wall if engine_wall else 0.0,
        "distributed.ghs_s": per_iteration("distributed.ghs_s"),
        "problems.verify_s": per_iteration("problems.verify_s"),
        "problems.verify_calls": per_iteration("problems.verify_calls"),
        "runner.plan_s": per_iteration("runner.plan_s"),
        "runner.store_get_s": per_iteration("runner.store_get_s"),
        "runner.store_rows": _median(service.get("store_rows", [])),
        "service.submit_ms": _median(service.get("submit_ms", [])),
        "service.item_ms_p50": item_p50,
        "service.item_ms_p90": _percentile(service.get("item_ms", []), 0.9),
        "service.lease_gap_ms_p50": _median(service.get("lease_gap_ms", [])),
        "service.compute_ms_p50": compute_p50,
        "service.overhead_ms_p50": item_p50 - compute_p50 if item_p50 else 0.0,
        "service.tail_ms": _median(service.get("tail_ms", [])),
        "service.leases": _median(service.get("leases", [])),
        "service.completes": _median(service.get("completes", [])),
        "service.useful_ratio": sum(service.get("completes", [])) / leases if leases else 0.0,
        "trace.overhead_ratio": (_median(state.traced_walls) / _median(state.walls)
                                 if state.walls else 0.0),
        "fail_ratio": min(1.0, state.failed / state.attempted),
    }
    return metrics


# ---------------------------------------------------------------------- #

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package to benchmark; "
              "run from the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGTERM, _interrupt)
    workload = WORKLOADS[args.workload]
    try:
        if args.probe_setup:
            return probe_setup(root, workload, args.seed)
        prepare_inputs(workload, args.seed)
        state = RunState(workload, args.seed, trace=bool(args.trace))
        run(state, args.seconds, root, args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130

    if args.trace:
        values, units = per_layer(state), PER_LAYER_UNITS
    else:
        values, units = end_to_end(state), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = state.failed == 0
    out = root / "perfbench" / "out"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    if state.tracer is not None:
        state.tracer.write(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(root),
        "iteration_seeds": state.seeds,
        "iteration_walls_s": state.walls,
        "traced_walls_s": state.traced_walls,
        "setup_samples_s": state.setup,
        "reference_samples_s": state.reference,
        "slowdown": reference.slowdown(state.reference),
        "correction": reference.correction(state.reference, workload.python_share),
        "wall_metrics": wall_metrics(state),
        "problems": state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": metrics,
    }, indent=2, sort_keys=True) + "\n")
    for problem in state.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        wall = wall_metrics(state)
        print(f"{workload.name} host slowdown = {reference.slowdown(state.reference):.4g}; "
              f"in this host's seconds runs_per_s = {wall['runs_per_s']:.6g} tasks/s, "
              f"setup_s = {wall['setup_s']:.6g} s")
    print(json.dumps({"correct": correct, "attempted": state.attempted,
                      "failed": state.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
