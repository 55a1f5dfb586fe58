"""Tests of the fault-tolerant sweep service (`repro.service`).

Four layers, in rising order of violence:

* unit tests of the retry policy and the lease queue's state machine
  (TTL expiry, heartbeats, dedup, backoff, quarantine) — all with an
  injected clock, no sleeping;
* the observability layer: the /metrics registry must agree with the
  queue tables it counts, the event log must replay to the same
  terminal state, the priority lanes must never starve the normal lane
  (a hypothesis bounded-wait property), and queue gc must never touch
  live or leased work;
* worker tests: poison payloads quarantine instead of wedging, hung
  executions hit the wall-clock timeout, drained items survive; good
  items reuse one warm execution child with no memo carried across
  items, a failed or timed-out one gets the next item a fresh child,
  and no child outlives its worker (SIGKILL) or breaks on Ctrl-C;
* the chaos test: a 12-task sweep over two real worker processes, one
  of which is SIGKILLed mid-lease.  The job must complete, no item may
  exceed its attempt budget, the artifacts must be byte-identical to a
  serial ``generate_report``, and both the metrics scrape and the event
  log replay must agree with the final queue state — the whole point of
  the service.

The ``--jobs N`` dead-worker regression test lives here too: it is the
same failure mode (a worker dying mid-task) on the in-process pool path.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.report.pipeline import generate_report
from repro.report.spec import parse_spec_text
from repro.runner.plan import InstanceContext, StackedGroup, TaskGroup, plan_groups
from repro.runner.runner import run_tasks
from repro.runner.store import SQLiteResultStore
from repro.runner import tasks as runner_tasks
from repro.runner.tasks import GraphSpec, SweepTask, task_from_wire, task_to_wire
from repro.service import metrics as service_metrics
from repro.service.daemon import SweepService
from repro.service.events import follow_events, read_events, replay
from repro.service.queue import (
    NORMAL_LANE_CREDIT,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    LeaseQueue,
    QuarantinedTasksError,
    QueueExecutor,
    group_dedup_key,
    group_payload,
)
from repro.service.retry import RetryPolicy
from repro.service.worker import TEST_DELAY_ENV, run_worker

REPO = Path(__file__).resolve().parent.parent

#: 3 schemes x 2 sizes x 2 seeds = 12 tasks in 4 instance groups — the
#: chaos grid: big enough that both workers hold leases, small enough
#: to finish fast
CHAOS_SPEC = """
title = "chaos"

[[experiment]]
name = "curves"
kind = "sweep"
schemes = ["trivial", "theorem2", "theorem3"]
sizes = [8, 16]
seeds = 2
"""


def make_task(seed: int = 0, n: int = 8, target: str = "trivial") -> SweepTask:
    return SweepTask(
        kind="scheme", target=target, graph=GraphSpec("random", 0.3), n=n, seed=seed
    )


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------------ #
# retry policy
# ------------------------------------------------------------------ #


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=4.0)
        delays = [policy.backoff_delay("key", attempt) for attempt in (1, 2, 3, 9)]
        assert delays == [policy.backoff_delay("key", a) for a in (1, 2, 3, 9)]
        assert 0.5 <= delays[0] < 1.0
        assert 1.0 <= delays[1] < 2.0
        assert all(delay < 4.0 for delay in delays)
        # different keys spread out
        assert policy.backoff_delay("other", 1) != delays[0]

    def test_item_timeout_scales_with_task_count(self):
        policy = RetryPolicy(task_timeout=10.0)
        assert policy.item_timeout(3) == 30.0
        assert policy.item_timeout(0) == 10.0  # never a zero budget

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0)


# ------------------------------------------------------------------ #
# task wire format
# ------------------------------------------------------------------ #


class TestWireFormat:
    def test_roundtrip_preserves_hash(self):
        task = make_task(seed=3, n=16, target="theorem3")
        rebuilt = task_from_wire(task_to_wire(task))
        assert rebuilt == task
        assert rebuilt.task_hash() == task.task_hash()

    def test_uncacheable_task_is_rejected(self):
        task = SweepTask(
            kind="scheme",
            target="trivial",
            graph=lambda n, seed: None,  # ad-hoc factory: no content hash
            n=8,
            seed=0,
        )
        with pytest.raises(ValueError):
            task_to_wire(task)

    def test_malformed_wire_payload_raises(self):
        wire = task_to_wire(make_task())
        wire["kind"] = "nonsense"
        with pytest.raises(ValueError):
            task_from_wire(wire)


# ------------------------------------------------------------------ #
# lease queue state machine (injected clock, no sleeping)
# ------------------------------------------------------------------ #


class TestLeaseQueue:
    def payload(self, seed: int) -> tuple:
        [group] = plan_groups([make_task(seed=seed)])
        hashes = [task.task_hash() for task in group.tasks]
        return group_dedup_key(hashes), group_payload(group, hashes)

    def test_enqueue_dedups_by_content(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key, payload = self.payload(0)
        assert queue.enqueue("job-a", [(key, payload)]) == 1
        # same item again, other job: linked, not duplicated
        assert queue.enqueue("job-b", [(key, payload)]) == 0
        assert queue.job_progress("job-a")["total"] == 1
        assert queue.job_progress("job-b")["total"] == 1

    def test_lease_expiry_requeues_to_another_owner(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        key, payload = self.payload(0)
        queue.enqueue("job", [(key, payload)])
        item = queue.lease("worker-a", ttl=10.0, max_attempts=3)
        assert item.dedup_key == key and item.attempts == 1
        # still leased: nobody else can claim it
        assert queue.lease("worker-b", ttl=10.0, max_attempts=3) is None
        # heartbeat extends the lease
        clock.now += 8.0
        assert queue.heartbeat(key, "worker-a", ttl=10.0)
        clock.now += 8.0
        assert queue.lease("worker-b", ttl=10.0, max_attempts=3) is None
        # owner goes silent: the lease expires and worker-b takes over
        clock.now += 11.0
        item2 = queue.lease("worker-b", ttl=10.0, max_attempts=3)
        assert item2 is not None and item2.attempts == 2
        # the stale owner's completion is ignored, the live one's counts
        assert not queue.complete(key, "worker-a")
        assert queue.complete(key, "worker-b")
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE

    def test_crash_looping_item_is_quarantined_at_lease_time(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        key, payload = self.payload(0)
        queue.enqueue("job", [(key, payload)])
        for _ in range(2):  # two leases, both owners die silently
            assert queue.lease("doomed", ttl=1.0, max_attempts=2) is not None
            clock.now += 2.0
        # attempt budget burned: the next lease call quarantines instead
        assert queue.lease("survivor", ttl=1.0, max_attempts=2) is None
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_QUARANTINED
        [row] = queue.quarantined()
        assert row["dedup_key"] == key and row["attempts"] == 2

    def test_fail_backs_off_then_quarantines(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        policy = RetryPolicy(max_attempts=2, backoff_base=5.0, backoff_cap=5.0)
        key, payload = self.payload(0)
        queue.enqueue("job", [(key, payload)])
        queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts)
        assert queue.fail(key, "w", "boom", policy) == LeaseQueue.ITEM_PENDING
        # backoff holds the item out of rotation until not_before passes
        assert queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts) is None
        clock.now += 6.0
        item = queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts)
        assert item.attempts == 2
        assert queue.fail(key, "w", "boom again", policy) == LeaseQueue.ITEM_QUARANTINED
        state, error = queue.item_states([key])[key]
        assert state == LeaseQueue.ITEM_QUARANTINED and "boom again" in error
        # explicit requeue puts it back with a fresh budget
        assert queue.requeue_quarantined() == 1
        assert queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts).attempts == 1

    def test_job_records_dedup_and_track_state(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        assert queue.submit_job("job-1", {"text": "t"})
        assert not queue.submit_job("job-1", {"text": "t"})
        queue.set_job_state("job-1", LeaseQueue.JOB_DONE)
        assert queue.job_record("job-1")["state"] == LeaseQueue.JOB_DONE
        assert queue.job_record("missing") is None
        assert [job["job_id"] for job in queue.list_jobs()] == ["job-1"]


# ------------------------------------------------------------------ #
# observability: metrics registry, event log, priority lanes, gc
# ------------------------------------------------------------------ #


def metric_value(text: str, name: str, labels: str = "") -> float:
    """One sample out of a rendered /metrics page."""
    needle = f"{name}{{{labels}}} " if labels else f"{name} "
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name}{{{labels}}} not in:\n{text}")


def synthetic_entries(count: int, start: int = 0):
    """Cheap (dedup_key, payload) pairs; no task compilation needed."""
    return [(f"item-{index:04d}", {"i": index}) for index in range(start, start + count)]


class TestMetrics:
    def test_counters_and_gauges_track_transitions(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        policy = RetryPolicy(max_attempts=2, backoff_base=1.0, backoff_cap=1.0)
        queue.submit_job("job", {"t": 1})
        queue.enqueue("job", synthetic_entries(3))
        # enqueueing the same items again is a dedup link, not a count
        queue.enqueue("job-b", synthetic_entries(3))

        item = queue.lease("w1", ttl=10.0, max_attempts=policy.max_attempts)
        queue.complete(item.dedup_key, "w1", duration=0.2)
        item = queue.lease("w1", ttl=10.0, max_attempts=policy.max_attempts)
        queue.heartbeat(item.dedup_key, "w1", ttl=10.0)
        queue.fail(item.dedup_key, "w1", "boom", policy, duration=2.0)
        # third item: lease it, let the lease expire
        item = queue.lease("w1", ttl=10.0, max_attempts=policy.max_attempts)
        clock.now += 11.0
        # oldest runnable first: w2 re-leases the requeued second item
        # (attempt budget now burned) and its fail quarantines it ...
        retried = queue.lease("w2", ttl=10.0, max_attempts=policy.max_attempts)
        assert retried is not None and retried.attempts == 2
        queue.fail(retried.dedup_key, "w2", "poison", policy)
        # ... then takes over the third item's expired lease
        takeover = queue.lease("w2", ttl=10.0, max_attempts=policy.max_attempts)
        assert takeover.dedup_key == item.dedup_key and takeover.attempts == 2

        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_queue_items_enqueued_total") == 3
        assert metric_value(text, "repro_queue_leases_total") == 5
        assert metric_value(text, "repro_queue_lease_expired_total") == 1
        assert metric_value(text, "repro_queue_heartbeats_total") == 1
        assert metric_value(text, "repro_queue_completes_total") == 1
        assert metric_value(text, "repro_queue_failures_total") == 2
        assert metric_value(text, "repro_queue_requeues_total") == 1
        assert metric_value(text, "repro_queue_quarantines_total") == 1
        assert metric_value(text, "repro_jobs_submitted_total") == 1
        # histogram: two observations (0.2s and 2.0s)
        assert metric_value(text, "repro_item_seconds_count") == 2
        assert metric_value(text, "repro_item_seconds_sum") == pytest.approx(2.2)
        assert metric_value(text, "repro_item_seconds_bucket", 'le="0.25"') == 1
        assert metric_value(text, "repro_item_seconds_bucket", 'le="+Inf"') == 2
        # gauges agree with the tables
        stats = queue.stats()
        for state in ("pending", "done", "quarantined"):
            both_lanes = sum(
                metric_value(text, "repro_queue_items", f'state="{state}",priority="{lane}"')
                for lane in ("high", "normal")
            )
            assert both_lanes == stats["items"].get(state, 0)
        # both workers heartbeated recently
        assert metric_value(text, "repro_workers_live") == 2
        assert metric_value(text, "repro_worker_items_processed_total", 'owner="w1"') == 2

    def test_scrape_is_consistent_with_queue_state(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.submit_job("job", {"t": 1})
        queue.enqueue("job", synthetic_entries(5))
        held = queue.lease("w", ttl=100.0, max_attempts=3)
        clock.now += 7.0
        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_queue_items", 'state="leased",priority="normal"') == 1
        assert metric_value(text, "repro_queue_items", 'state="pending",priority="normal"') == 4
        assert metric_value(text, "repro_queue_oldest_lease_age_seconds") == 7
        assert metric_value(text, "repro_queue_jobs", 'state="running"') == 1
        # progress ratio: 0 done of 5
        assert metric_value(text, "repro_job_progress_ratio", 'job="job"') == 0
        queue.complete(held.dedup_key, "w")
        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_job_progress_ratio", 'job="job"') == pytest.approx(0.2)
        assert metric_value(text, "repro_queue_oldest_lease_age_seconds") == 0


class TestEventLog:
    def test_transitions_append_and_replay_to_terminal_state(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        policy = RetryPolicy(max_attempts=2, backoff_base=1.0, backoff_cap=1.0)
        queue.submit_job("job", {"t": 1}, priority=PRIORITY_HIGH)
        queue.enqueue("job", synthetic_entries(2), priority=PRIORITY_HIGH)
        first = queue.lease("w", ttl=10.0, max_attempts=2)
        queue.complete(first.dedup_key, "w", duration=0.1)
        second = queue.lease("w", ttl=10.0, max_attempts=2)
        queue.fail(second.dedup_key, "w", "boom", policy)
        clock.now += 2.0
        again = queue.lease("w", ttl=10.0, max_attempts=2)
        queue.fail(again.dedup_key, "w", "boom again", policy)
        queue.set_job_state("job", LeaseQueue.JOB_FAILED, error="quarantined")

        events = list(read_events(tmp_path / "events.jsonl"))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "job-submit" and kinds.count("enqueue") == 2
        assert "requeue" in kinds and "quarantine" in kinds
        # timestamps are non-decreasing in file order
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)

        final = replay(events)
        states = queue.item_states([key for key, _ in synthetic_entries(2)])
        for key, (state, _) in states.items():
            assert final["items"][key]["state"] == state
        assert final["jobs"]["job"]["state"] == LeaseQueue.JOB_FAILED
        assert final["jobs"]["job"]["priority"] == PRIORITY_HIGH

    def test_torn_lines_are_skipped_and_filters_apply(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.submit_job("job", {"t": 1})
        clock.now = 2000.0
        queue.enqueue("job", synthetic_entries(1))
        log_path = tmp_path / "events.jsonl"
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 3000.0, "kind": "lea')  # torn mid-append
        assert [e["kind"] for e in read_events(log_path)] == ["job-submit", "enqueue"]
        assert [e["kind"] for e in read_events(log_path, since=1500.0)] == ["enqueue"]
        assert [e["kind"] for e in read_events(log_path, kinds=["enqueue"])] == ["enqueue"]

    def test_follow_events_streams_appended_lines(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.submit_job("job", {"t": 1})
        seen = []
        done = threading.Event()

        def tail() -> None:
            for event in follow_events(
                tmp_path / "events.jsonl",
                poll_interval=0.01,
                stop=lambda: done.is_set() and len(seen) >= 2,
            ):
                seen.append(event["kind"])
            # generator returns via stop()

        thread = threading.Thread(target=tail, daemon=True)
        thread.start()
        queue.enqueue("job", synthetic_entries(1))
        deadline = time.monotonic() + 10.0
        while len(seen) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        done.set()
        thread.join(timeout=10.0)
        assert seen[:2] == ["job-submit", "enqueue"]


class TestPriorityLanes:
    def test_high_job_submitted_behind_big_normal_job_leases_first(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.submit_job("big", {"t": 1})
        queue.enqueue("big", synthetic_entries(12))
        queue.submit_job("urgent", {"t": 2}, priority=PRIORITY_HIGH)
        queue.enqueue(
            "urgent", synthetic_entries(2, start=100), priority=PRIORITY_HIGH
        )
        first = queue.lease("w", ttl=10.0, max_attempts=3)
        second = queue.lease("w", ttl=10.0, max_attempts=3)
        assert {first.dedup_key, second.dedup_key} == {"item-0100", "item-0101"}

    def test_high_enqueue_upgrades_shared_pending_item(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.enqueue("normal-job", synthetic_entries(1))
        queue.enqueue("high-job", synthetic_entries(1), priority=PRIORITY_HIGH)
        row = queue._conn().execute(
            "SELECT priority FROM items WHERE dedup_key = 'item-0000'"
        ).fetchone()
        assert row[0] == PRIORITY_HIGH

    def test_normal_lane_is_never_starved(self, tmp_path):
        # a continuous flood of high work: the normal lane must still get
        # one lease in every NORMAL_LANE_CREDIT + 1
        queue = LeaseQueue(tmp_path)
        queue.enqueue("n", synthetic_entries(4))
        queue.enqueue("h", synthetic_entries(60, start=1000), priority=PRIORITY_HIGH)
        lanes = []
        for _ in range(5 * (NORMAL_LANE_CREDIT + 1)):
            item = queue.lease("w", ttl=60.0, max_attempts=99)
            lanes.append("h" if item.dedup_key.startswith("item-1") else "n")
        assert lanes.count("n") == 4  # every normal item got through
        # and each was served within one credit window of the previous
        normal_positions = [i for i, lane in enumerate(lanes) if lane == "n"]
        assert normal_positions[0] <= NORMAL_LANE_CREDIT
        for before, after in zip(normal_positions, normal_positions[1:]):
            assert after - before <= NORMAL_LANE_CREDIT + 1

    def test_bounded_wait_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            n_high=st.integers(min_value=0, max_value=20),
            n_normal=st.integers(min_value=1, max_value=20),
        )
        def check(n_high: int, n_normal: int) -> None:
            with tempfile.TemporaryDirectory() as tmp:
                queue = LeaseQueue(Path(tmp))
                queue.enqueue("n", synthetic_entries(n_normal))
                queue.enqueue(
                    "h", synthetic_entries(n_high, start=1000), priority=PRIORITY_HIGH
                )
                lanes = []
                while (item := queue.lease("w", ttl=60.0, max_attempts=99)) is not None:
                    lanes.append("h" if item.dedup_key.startswith("item-1") else "n")
                assert len(lanes) == n_high + n_normal
                # bounded wait: while normal work was pending, no run of
                # consecutive high leases ever exceeded the credit
                normal_left = n_normal
                streak = 0
                for lane in lanes:
                    if lane == "n":
                        normal_left -= 1
                        streak = 0
                    else:
                        streak += 1
                        if normal_left > 0:
                            assert streak <= NORMAL_LANE_CREDIT

        check()


class TestQueueGC:
    def seeded_queue(self, tmp_path, clock):
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.submit_job("old-done", {"t": 1})
        queue.enqueue("old-done", synthetic_entries(2))
        for _ in range(2):
            item = queue.lease("w", ttl=10.0, max_attempts=3)
            queue.complete(item.dedup_key, "w")
        queue.set_job_state("old-done", LeaseQueue.JOB_DONE)
        return queue

    def test_gc_reclaims_terminal_jobs_artifacts_and_orphans(self, tmp_path):
        clock = FakeClock()
        queue = self.seeded_queue(tmp_path, clock)
        artifacts = tmp_path / "artifacts" / "old-done"
        artifacts.mkdir(parents=True)
        (artifacts / "index.md").write_text("report", encoding="utf-8")
        manifests = tmp_path / "manifests"
        manifests.mkdir()
        (manifests / "run-old-done.json").write_text("{}", encoding="utf-8")

        clock.now += 100_000.0
        result = queue.gc(job_ttl=3600.0, keep_last=0)
        assert result["jobs"] == ["old-done"]
        assert sorted(result["items"]) == ["item-0000", "item-0001"]
        assert queue.job_record("old-done") is None
        assert queue.item_states(["item-0000", "item-0001"]) == {}
        assert not artifacts.exists()
        assert not (manifests / "run-old-done.json").exists()
        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_gc_jobs_removed_total") == 1
        assert metric_value(text, "repro_gc_items_removed_total") == 2

    def test_gc_never_touches_live_leased_or_recent_work(self, tmp_path):
        clock = FakeClock()
        queue = self.seeded_queue(tmp_path, clock)
        # a running job holding pending + leased items, sharing one done
        # item with the terminal job
        queue.submit_job("live", {"t": 2})
        queue.enqueue("live", synthetic_entries(3))  # item-0000/0001 shared, done
        queue.enqueue("live", synthetic_entries(2, start=10))
        leased = queue.lease("w", ttl=10_000.0, max_attempts=3)

        clock.now += 100_000.0
        result = queue.gc(job_ttl=3600.0, keep_last=0)
        # the terminal job goes; every item the live job references stays
        assert result["jobs"] == ["old-done"] and result["items"] == []
        states = queue.item_states(
            [key for key, _ in synthetic_entries(3)]
            + [key for key, _ in synthetic_entries(2, start=10)]
        )
        assert len(states) == 5
        assert states[leased.dedup_key][0] == LeaseQueue.ITEM_LEASED
        assert queue.job_record("live")["state"] == LeaseQueue.JOB_RUNNING

    def test_keep_last_and_ttl_are_both_safety_nets(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        for index in range(4):
            clock.now = 1000.0 + index  # distinct updated stamps
            queue.submit_job(f"job-{index}", {"i": index})
            queue.set_job_state(f"job-{index}", LeaseQueue.JOB_DONE)
        clock.now = 2000.0
        queue.submit_job("young", {"i": 9})
        queue.set_job_state("young", LeaseQueue.JOB_DONE)

        clock.now = 5000.0
        # ttl protects 'young'; keep_last protects the 2 newest of the rest
        result = queue.gc(job_ttl=3600.0, keep_last=3)
        assert result["jobs"] == ["job-0", "job-1"]
        survivors = {record["job_id"] for record in queue.list_jobs()}
        assert survivors == {"job-2", "job-3", "young"}
        # quarantine rows whose item is gone are dropped too
        assert queue.gc(job_ttl=0.0, keep_last=0)["jobs"] == ["job-2", "job-3", "young"]


# ------------------------------------------------------------------ #
# queue executor
# ------------------------------------------------------------------ #


class TestQueueExecutor:
    def test_rejects_stacked_groups_and_uncacheable_tasks(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        executor = QueueExecutor(queue, "job")
        [group] = plan_groups([make_task()])
        stacked = StackedGroup(key=("x",), groups=(group,))
        with pytest.raises(ValueError, match="seed-stacked"):
            executor.run_units([stacked], lambda batch: None)
        uncacheable = SweepTask(
            kind="scheme", target="trivial", graph=lambda n, seed: None, n=8, seed=0
        )
        bad = TaskGroup(key=None, indices=(0,), tasks=(uncacheable,))
        with pytest.raises(ValueError, match="cacheable"):
            executor.run_units([bad], lambda batch: None)

    def test_commits_done_items_and_raises_on_quarantine(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        store = SQLiteResultStore(tmp_path)
        good = plan_groups([make_task(seed=0)])[0]
        poison = plan_groups([make_task(seed=1)])[0]
        executor = QueueExecutor(queue, "job", poll_interval=0.01, store=store)

        def drain() -> None:
            # stand-in for a worker: execute the good group for real,
            # quarantine the poison one.  Like a real worker it opens
            # its own store — SQLite connections are thread-affine
            worker_store = SQLiteResultStore(tmp_path)
            deadline = time.monotonic() + 30.0
            served = 0
            while served < 2 and time.monotonic() < deadline:
                item = queue.lease("fake-worker", ttl=30.0, max_attempts=1)
                if item is None:
                    time.sleep(0.01)
                    continue
                good_key = group_dedup_key([t.task_hash() for t in good.tasks])
                if item.dedup_key == good_key:
                    context = InstanceContext()
                    worker_store.put_many(
                        [
                            (h, t.key_dict(), context.execute(t))
                            for h, t in zip(item.payload["hashes"], good.tasks)
                        ]
                    )
                    queue.complete(item.dedup_key, "fake-worker")
                else:
                    queue.fail(
                        item.dedup_key,
                        "fake-worker",
                        "synthetic poison",
                        RetryPolicy(max_attempts=1),
                    )
                served += 1

        committed = []
        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        with pytest.raises(QuarantinedTasksError, match="synthetic poison"):
            executor.run_units(
                [good, TaskGroup(key=poison.key, indices=(10,), tasks=poison.tasks)],
                committed.extend,
            )
        thread.join(timeout=30)
        # the good group was committed at its planner positions before
        # the quarantine surfaced — poison does not discard finished work
        assert sorted(index for index, _ in committed) == list(good.indices)
        assert all(row["correct"] for _, row in committed)

    def test_one_poll_commits_every_done_item_in_one_batch(self, tmp_path):
        groups = plan_groups([make_task(seed=seed) for seed in range(3)])
        queue = LeaseQueue(tmp_path)
        # an earlier job already ran the same groups: all three are done
        for group in groups:
            enqueue_group(queue, "earlier-job", group.tasks)
        assert run_worker(tmp_path, max_items=3, poll_interval=0.02) == 3
        batches = []
        QueueExecutor(queue, "job", poll_interval=0.01).run_units(groups, batches.append)
        # so the first poll commits them together: one manifest rewrite
        [batch] = batches
        assert sorted(index for index, _ in batch) == sorted(
            index for group in groups for index in group.indices
        )
        assert all(row["correct"] for _, row in batch)


# ------------------------------------------------------------------ #
# worker behaviour
# ------------------------------------------------------------------ #


def enqueue_group(queue: LeaseQueue, job_id: str, tasks) -> str:
    [group] = plan_groups(list(tasks))
    hashes = [task.task_hash() for task in group.tasks]
    key = group_dedup_key(hashes)
    queue.enqueue(job_id, [(key, group_payload(group, hashes))])
    return key


def enqueue_in_order(directory: Path, groups) -> list:
    """Enqueue one item per task list, leased back in this order."""
    clock = FakeClock(time.time() - 60.0)
    queue = LeaseQueue(directory, clock=clock)
    keys = []
    for index, tasks in enumerate(groups):
        keys.append(enqueue_group(queue, f"job-{index}", tasks))
        clock.now += 1.0
    return keys


def record_executions(monkeypatch, log: Path, poison_seed=None, hang_seed=None) -> None:
    """Patch ``InstanceContext.execute`` to log ``pid seed memo-size`` per
    call; ``poison_seed`` raises, ``hang_seed`` sleeps past any budget."""
    original = InstanceContext.execute

    def recording(self, task):
        with log.open("a") as handle:
            handle.write(f"{os.getpid()} {task.seed} {len(runner_tasks._GRAPH_MEMO)}\n")
        if task.seed == poison_seed:
            raise RuntimeError("poison task")
        if task.seed == hang_seed:
            time.sleep(60)
        return original(self, task)

    monkeypatch.setattr(InstanceContext, "execute", recording)
    # the worker process never builds graphs; neither may the test's
    runner_tasks.clear_graph_memo()


def read_executions(log: Path) -> list:
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


class TestWorker:
    def test_worker_executes_and_commits(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task(seed=0), make_task(seed=0, target="theorem3")])
        processed = run_worker(tmp_path, max_items=1, poll_interval=0.05)
        assert processed == 1
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE
        store = SQLiteResultStore(tmp_path)
        row = store.get(make_task(seed=0).task_hash())
        assert row is not None and row["correct"]

    def test_poison_payload_is_quarantined_not_retried_forever(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        # corrupt the stored payload: the worker child will fail to decode
        with queue._txn() as conn:
            conn.execute(
                "UPDATE items SET payload = ? WHERE dedup_key = ?",
                (json.dumps({"version": 1, "hashes": [], "tasks": [{"kind": "junk"}]}), key),
            )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_cap=0.02)
        processed = run_worker(
            tmp_path, policy=policy, max_items=2, poll_interval=0.02
        )
        assert processed == 2
        state, error = queue.item_states([key])[key]
        assert state == LeaseQueue.ITEM_QUARANTINED
        assert "exited with code 1" in error

    def test_hung_execution_hits_wall_clock_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TEST_DELAY_ENV, "60")
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        policy = RetryPolicy(max_attempts=1, task_timeout=0.3)
        start = time.monotonic()
        run_worker(tmp_path, policy=policy, max_items=1, poll_interval=0.02)
        assert time.monotonic() - start < 30.0  # killed, not joined for 60s
        state, error = queue.item_states([key])[key]
        assert state == LeaseQueue.ITEM_QUARANTINED
        assert "timed out" in error

    def test_good_items_share_one_warm_child_with_no_memo_carried(self, tmp_path, monkeypatch):
        log = tmp_path / "executions.log"
        record_executions(monkeypatch, log)
        queue_dir = tmp_path / "q"
        keys = enqueue_in_order(queue_dir, [[make_task(seed=0)], [make_task(seed=1)]])
        assert run_worker(queue_dir, max_items=2, poll_interval=0.02) == 2
        assert multiprocessing.active_children() == []
        (pid_a, seed_a, memo_a), (pid_b, seed_b, memo_b) = read_executions(log)
        assert (seed_a, seed_b) == (0, 1)
        assert pid_a == pid_b != os.getpid()
        assert memo_a == memo_b == 0
        states = LeaseQueue(queue_dir).item_states(keys)
        assert all(states[key][0] == LeaseQueue.ITEM_DONE for key in keys)

    def test_failed_and_timed_out_items_are_followed_by_a_fresh_child(self, tmp_path, monkeypatch):
        log = tmp_path / "executions.log"
        record_executions(monkeypatch, log, poison_seed=7, hang_seed=8)
        queue_dir = tmp_path / "q"
        poison, good_a, hung, good_b = enqueue_in_order(
            queue_dir,
            [[make_task(seed=7)], [make_task(seed=1)], [make_task(seed=8)], [make_task(seed=2)]],
        )
        policy = RetryPolicy(max_attempts=1, task_timeout=1.0)
        assert run_worker(queue_dir, policy=policy, max_items=4, poll_interval=0.02) == 4
        assert multiprocessing.active_children() == []
        executions = read_executions(log)
        assert [seed for _, seed, _ in executions] == [7, 1, 8, 2]
        pids = [pid for pid, _, _ in executions]
        # poison's child exits; good_a forks a fresh one, which hung
        # reuses until it is killed; good_b forks a third
        assert pids[0] != pids[1] == pids[2] != pids[3] != pids[0]
        assert all(memo == 0 for _, _, memo in executions)
        states = LeaseQueue(queue_dir).item_states([poison, good_a, hung, good_b])
        assert states[poison][0] == LeaseQueue.ITEM_QUARANTINED
        assert "exited with code 1: RuntimeError: poison task" in states[poison][1]
        assert states[hung][0] == LeaseQueue.ITEM_QUARANTINED
        assert states[hung][1].startswith("timed out after 1.0s")
        assert states[good_a][0] == states[good_b][0] == LeaseQueue.ITEM_DONE

    def test_idle_exit_reaps_the_child(self, tmp_path, monkeypatch):
        log = tmp_path / "executions.log"
        record_executions(monkeypatch, log)
        queue_dir = tmp_path / "q"
        enqueue_in_order(queue_dir, [[make_task(seed=0)]])
        assert run_worker(queue_dir, idle_exit=0.1, poll_interval=0.02) == 1
        assert multiprocessing.active_children() == []
        assert len(read_executions(log)) == 1


# ------------------------------------------------------------------ #
# dead pool worker on the in-process --jobs path
# ------------------------------------------------------------------ #


class TestDeadPoolWorker:
    def test_jobs_pool_survives_a_killed_worker(self, tmp_path, monkeypatch, capfd):
        tasks = [make_task(seed=seed, target=target) for seed in range(4) for target in ("trivial", "theorem3")]
        reference = run_tasks(tasks)

        flag = tmp_path / "killed-once"
        original = InstanceContext.execute

        def kill_once(self, task):
            # first pool worker to get here nukes itself mid-chunk, once
            if not flag.exists():
                try:
                    flag.touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
            return original(self, task)

        monkeypatch.setattr(InstanceContext, "execute", kill_once)
        rows = run_tasks(tasks, jobs=2)
        assert flag.exists()  # the kill really happened
        assert rows == reference
        assert "worker process died" in capfd.readouterr().err

    def test_chunk_lost_twice_raises_instead_of_spinning(self, tmp_path, monkeypatch):
        tasks = [make_task(seed=seed) for seed in range(2)]

        def always_kill(self, task):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(InstanceContext, "execute", always_kill)
        with pytest.raises(RuntimeError, match="died twice"):
            run_tasks(tasks, jobs=2)


# ------------------------------------------------------------------ #
# the chaos test: SIGKILL a real worker mid-sweep
# ------------------------------------------------------------------ #


def spawn_test_worker(
    queue_dir: Path, lease_ttl: float, delay: float, **popen_kwargs: Any
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env[TEST_DELAY_ENV] = str(delay)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue-dir",
            str(queue_dir),
            "--lease-ttl",
            str(lease_ttl),
            "--poll-interval",
            "0.1",
            "--max-attempts",
            "3",
            "--backoff-base",
            "0.05",
            "--backoff-cap",
            "0.2",
        ],
        env=env,
        **{"stderr": subprocess.DEVNULL, **popen_kwargs},
    )


def process_state(pid: int) -> Optional[bytes]:
    """``/proc`` state letter of ``pid``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return None


def process_alive(pid: int) -> bool:
    # an orphan's zombie waits on whatever reaps for init: it has exited
    return process_state(pid) not in (None, b"Z")


def live_children(pid: int) -> list:
    children = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != b"Z":
            children.append(int(entry.name))
    return children


def wait_until(predicate, timeout: float):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"condition not met within {timeout}s")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
class TestWorkerProcessHygiene:
    def test_sigkilled_worker_takes_its_idle_child_with_it(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        worker = spawn_test_worker(tmp_path, lease_ttl=30.0, delay=0.0)
        try:
            wait_until(
                lambda: queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE, 60.0
            )
            [child] = wait_until(lambda: live_children(worker.pid), 10.0)
        finally:
            worker.kill()
            worker.wait()
        try:
            # the child reads EOF on its pipe and exits
            wait_until(lambda: not process_alive(child), 5.0)
        finally:
            if process_alive(child):
                os.kill(child, signal.SIGKILL)

    def test_ctrl_c_drains_the_worker_and_the_in_flight_item_completes(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        log = tmp_path / "worker.log"
        with log.open("wb") as stderr:
            worker = spawn_test_worker(
                tmp_path, lease_ttl=30.0, delay=2.0, stderr=stderr, start_new_session=True
            )
        try:
            [child] = wait_until(lambda: live_children(worker.pid), 60.0)
            time.sleep(0.3)  # past the child's signal reset, inside its 2 s item
            assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_LEASED
            # a terminal Ctrl-C reaches the whole foreground process group
            os.killpg(worker.pid, signal.SIGINT)
            assert worker.wait(timeout=60) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE
        # only the worker reports the drain; the child ignored SIGINT
        assert log.read_text().count("drain requested") == 1
        wait_until(lambda: not process_alive(child), 5.0)


class TestChaos:
    def test_sigkilled_worker_mid_sweep_job_still_byte_identical(self, tmp_path):
        spec = parse_spec_text(CHAOS_SPEC, fmt="toml", source="chaos.toml")
        serial_dir = tmp_path / "serial"
        generate_report(spec, serial_dir)

        queue_dir = tmp_path / "svc"
        lease_ttl = 2.0
        service = SweepService(queue_dir, lease_ttl=lease_ttl, poll_interval=0.1)
        job_id, created = service.submit_text(CHAOS_SPEC, "toml", name="chaos.toml")
        assert created

        workers = [spawn_test_worker(queue_dir, lease_ttl, delay=0.5) for _ in range(2)]
        victim, survivor = workers
        try:
            # wait until the victim provably holds a lease, then SIGKILL it
            victim_owner_suffix = f":{victim.pid}"
            deadline = time.monotonic() + 60.0
            held = False
            while time.monotonic() < deadline:
                owners = [
                    owner
                    for (owner,) in service.queue._conn().execute(
                        "SELECT owner FROM items WHERE state = 'leased'"
                    )
                ]
                if any(owner.endswith(victim_owner_suffix) for owner in owners):
                    held = True
                    break
                time.sleep(0.05)
            assert held, "victim worker never leased an item"
            victim.kill()
            victim.wait()

            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                record = service.queue.job_record(job_id)
                if record["state"] != LeaseQueue.JOB_RUNNING:
                    break
                time.sleep(0.25)
            assert record["state"] == LeaseQueue.JOB_DONE, record["error"]
        finally:
            for proc in workers:
                proc.kill()
                proc.wait()

        # nothing ran more than its attempt budget
        attempts = [
            count
            for (count,) in service.queue._conn().execute("SELECT attempts FROM items")
        ]
        assert attempts and all(1 <= count <= 3 for count in attempts)

        # byte-identity: the chaos-ridden service run == the serial run
        service_dir = service.artifacts_dir(job_id)
        serial_files = sorted(path.name for path in serial_dir.iterdir())
        service_files = sorted(path.name for path in service_dir.iterdir())
        assert service_files == serial_files
        for name in serial_files:
            assert (service_dir / name).read_bytes() == (serial_dir / name).read_bytes(), name

        # the metrics scrape agrees with the final queue state
        text = service_metrics.render_metrics(service.queue)
        stats = service.queue.stats()
        done_items = stats["items"].get(LeaseQueue.ITEM_DONE, 0)
        assert done_items == sum(
            metric_value(text, "repro_queue_items", f'state="done",priority="{lane}"')
            for lane in ("high", "normal")
        )
        assert metric_value(text, "repro_queue_jobs", 'state="done"') == 1
        assert metric_value(text, "repro_queue_completes_total") == done_items
        assert metric_value(text, "repro_queue_leases_total") == sum(attempts)
        # the SIGKILL showed up as at least one expired-lease takeover
        assert metric_value(text, "repro_queue_lease_expired_total") >= 1
        assert metric_value(text, "repro_item_seconds_count") >= done_items

        # the event log replays to the same terminal state (an append may
        # be lost at the SIGKILL instant; replay folds what landed, and
        # every completion is reported by a surviving worker afterwards)
        final = replay(read_events(queue_dir / "events.jsonl"))
        assert final["jobs"][job_id]["state"] == LeaseQueue.JOB_DONE
        states = {
            key: state
            for key, (state, _) in service.queue.item_states(
                list(final["items"])
            ).items()
        }
        assert len(final["items"]) == len(attempts)
        for key, folded in final["items"].items():
            assert folded["state"] == states[key] == LeaseQueue.ITEM_DONE


# ------------------------------------------------------------------ #
# daemon-level behaviour (in process, no HTTP)
# ------------------------------------------------------------------ #


class TestSweepServiceDrainAndResume:
    def test_drain_parks_job_and_restart_resumes_it(self, tmp_path):
        queue_dir = tmp_path / "svc"
        service = SweepService(queue_dir, lease_ttl=5.0, poll_interval=0.05)
        job_id, _ = service.submit_text(CHAOS_SPEC, "toml", name="chaos.toml")
        # drain immediately: no worker ever attached, nothing executed
        service.drain(timeout=30.0)
        assert service.queue.job_record(job_id)["state"] == LeaseQueue.JOB_RUNNING

        # "restart": a fresh service over the same directory resumes the
        # parked job, and an in-process worker drains the queue
        service2 = SweepService(queue_dir, lease_ttl=5.0, poll_interval=0.05)
        assert service2.resume_running_jobs() == [job_id]
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(queue_dir=queue_dir, idle_exit=5.0, poll_interval=0.05),
            daemon=True,
        )
        worker.start()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            record = service2.queue.job_record(job_id)
            if record["state"] != LeaseQueue.JOB_RUNNING:
                break
            time.sleep(0.25)
        assert record["state"] == LeaseQueue.JOB_DONE, record["error"]
        worker.join(timeout=30)
        assert (service2.artifacts_dir(job_id) / "index.md").is_file()

    def test_identical_submissions_collapse(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        job_a, created_a = service.submit_text(CHAOS_SPEC, "toml")
        job_b, created_b = service.submit_text(CHAOS_SPEC, "toml")
        assert job_a == job_b
        assert created_a and not created_b
        assert len(service.queue.list_jobs()) == 1
