"""The worker loop: lease a task group, execute it killably, report back.

``repro worker --queue-dir DIR`` attaches one of these to a queue.  The
worker proper never executes a task.  It forks one **execution child**
(``fork`` context, so the child inherits the warm interpreter and any
monkeypatches a test installed) at its first lease and sends it every
leased payload over a pipe.  The child decodes the group, executes it
through :class:`~repro.runner.plan.InstanceContext` and commits the rows
to the shared content-addressed store on a handle it keeps open, and
only then replies.  So ``done`` in the queue always implies rows in the
store — the ordering the :class:`~repro.service.queue.QueueExecutor`
relies on.

The child is reused from item to item: its imports, first-call warm-up
and store handle are paid for once per worker, not once per item.  No
cached data crosses items, though: after each one the child empties the
graph memo and runs a garbage collection (over only its own allocations,
because it froze the heap it inherited at start).

While the child works, the parent heartbeats the lease and watches the
clock.  An item over its wall-clock budget gets the child SIGKILLed —
a wedged simulation need not honour anything — and a child that raised
or crashed takes down only itself, not the lease bookkeeping.  Either
way the child is discarded and the next lease forks a fresh one.  A
worker that is itself killed simply stops heartbeating, and the queue
re-leases its item after the TTL.

Signals: the child restores SIGTERM to its default (so the worker can
``terminate()`` it) and ignores SIGINT, so a terminal Ctrl-C, which hits
the whole foreground process group, drains the worker but still lets
the in-flight item finish.  The child exits when its worker closes the
pipe, and also when the worker dies: the pipe then reads end-of-file.

Chaos hook: ``REPRO_SERVICE_TEST_DELAY`` (seconds, float) makes the
child sleep before executing each item, giving crash-injection tests a
window in which a worker provably holds a lease.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import socket
import sys
import time
import traceback
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Any, Dict, Optional

from repro.runner.plan import InstanceContext
from repro.runner.store import SQLiteResultStore
from repro.runner.tasks import clear_graph_memo, task_from_wire
from repro.service.queue import LeaseQueue, LeasedItem
from repro.service.retry import RetryPolicy

__all__ = ["default_owner", "run_worker"]

#: env var: float seconds the execution child sleeps before each item
TEST_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY"


def default_owner() -> str:
    """Lease-owner identity of this process: host + pid is unique enough
    for a queue directory that lives on one filesystem."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _execute_payload(store: SQLiteResultStore, payload: Dict[str, Any]) -> None:
    """Deserialise one group, execute it, commit its rows."""
    delay = float(os.environ.get(TEST_DELAY_ENV, "0") or "0")
    if delay > 0:
        time.sleep(delay)
    tasks = [task_from_wire(wire) for wire in payload["tasks"]]
    hashes = payload["hashes"]
    if len(hashes) != len(tasks):
        raise ValueError(
            f"malformed payload: {len(hashes)} hashes for {len(tasks)} tasks"
        )
    context = InstanceContext()
    store.put_many(
        [
            (task_hash, task.key_dict() or {}, context.execute(task))
            for task, task_hash in zip(tasks, hashes)
        ]
    )


def _serve_payloads(queue_dir: str, conn: Connection, parent_end: Connection) -> None:
    """Execution-child body: execute payloads from ``conn`` until end-of-file.

    Replies ``None`` once an item's rows are committed.  A failure ships
    its traceback up the pipe and exits nonzero, so the parent can attach
    a real error message to ``fail()`` instead of just an exit code.
    """
    # without this the worker's death would not read as EOF here
    parent_end.close()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    store = SQLiteResultStore(Path(queue_dir))
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        try:
            _execute_payload(store, payload)
        except BaseException:
            try:
                conn.send(traceback.format_exc(limit=8))
            except (OSError, ValueError):
                pass
            os._exit(1)
        clear_graph_memo()
        gc.collect()
        try:
            conn.send(None)
        except OSError:
            return  # the worker died mid-item


class _ExecutionChild:
    """The persistent execution process of one worker, and its pipe."""

    def __init__(self, queue_dir: Path) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_serve_payloads, args=(str(queue_dir), child_end, self.conn)
        )
        self.process.start()
        child_end.close()

    def close(self) -> None:
        """Close the pipe and reap the process; an idle child exits at once."""
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.exitcode is None:
            self.process.terminate()
            self.process.join()
        self.process.close()


def _execute_item(
    child: _ExecutionChild,
    queue: LeaseQueue,
    item: LeasedItem,
    owner: str,
    policy: RetryPolicy,
    lease_ttl: float,
    heartbeat_interval: float,
) -> Optional[str]:
    """Run one leased item in ``child``; returns an error string or ``None``.

    The parent's only jobs while the child runs: heartbeat the lease and
    watch the clock.  On an error the child has exited or been killed,
    and the caller must discard it.
    """
    tasks = item.payload.get("tasks") or []
    timeout = policy.item_timeout(len(tasks))
    deadline = time.monotonic() + timeout
    try:
        child.conn.send(item.payload)
    except OSError:
        pass  # the child is gone; its exit code is reported below
    while not wait([child.conn, child.process.sentinel], min(heartbeat_interval, 0.2)):
        if time.monotonic() >= deadline:
            child.process.kill()
            return (
                f"timed out after {timeout:.1f}s "
                f"({len(tasks)} task(s) x {policy.task_timeout:.0f}s budget)"
            )
        queue.heartbeat(item.dedup_key, owner, lease_ttl)
    reply: Optional[str] = ""
    if child.conn.poll(0):
        try:
            reply = child.conn.recv()
        except (EOFError, OSError):
            pass  # died without a word: a crash or an outside kill
    if reply is None:
        return None
    child.process.join()
    last_line = reply.strip().splitlines()[-1] if reply.strip() else ""
    suffix = f": {last_line}" if last_line else " (killed or crashed)"
    return f"execution child exited with code {child.process.exitcode}{suffix}"


def run_worker(
    queue_dir: Path,
    policy: Optional[RetryPolicy] = None,
    lease_ttl: float = 30.0,
    poll_interval: float = 0.5,
    heartbeat_interval: Optional[float] = None,
    max_items: Optional[int] = None,
    idle_exit: Optional[float] = None,
    install_signal_handlers: bool = False,
) -> int:
    """Drain a queue directory; returns the number of items processed.

    Runs until stopped: ``max_items`` bounds the work (handy in tests),
    ``idle_exit`` exits after that many seconds without leasable work,
    and with ``install_signal_handlers`` SIGTERM/SIGINT request a
    graceful drain — the in-flight item finishes, gets completed or
    failed honestly, and the loop exits.  A SIGKILL needs no handling at
    all: the lease TTL is the recovery path.  The execution child is
    closed and reaped on every return path.
    """
    policy = policy or RetryPolicy()
    queue = LeaseQueue(Path(queue_dir))
    owner = default_owner()
    queue.worker_seen(owner)  # visible in /metrics even before first lease
    heartbeat = heartbeat_interval or max(0.1, lease_ttl / 3.0)
    stop = {"requested": False}
    if install_signal_handlers:

        def _request_stop(signum: int, frame: Any) -> None:
            stop["requested"] = True
            print(
                f"worker {owner}: drain requested (signal {signum}); "
                f"finishing current item",
                file=sys.stderr,
                flush=True,
            )

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    processed = 0
    idle_since: Optional[float] = None
    child: Optional[_ExecutionChild] = None
    try:
        while not stop["requested"]:
            if max_items is not None and processed >= max_items:
                break
            item = queue.lease(owner, ttl=lease_ttl, max_attempts=policy.max_attempts)
            if item is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if idle_exit is not None and now - idle_since >= idle_exit:
                    break
                time.sleep(poll_interval)
                continue
            idle_since = None
            started = time.monotonic()
            if child is None:
                child = _ExecutionChild(queue.directory)
            error = _execute_item(child, queue, item, owner, policy, lease_ttl, heartbeat)
            duration = time.monotonic() - started
            if error is None:
                queue.complete(item.dedup_key, owner, duration=duration)
            else:
                child.close()
                child = None
                state = queue.fail(item.dedup_key, owner, error, policy, duration=duration)
                print(
                    f"worker {owner}: item {item.dedup_key[:12]} attempt "
                    f"{item.attempts}/{policy.max_attempts} failed -> "
                    f"{state or 'lease lost'}: {error}",
                    file=sys.stderr,
                    flush=True,
                )
            processed += 1
    finally:
        if child is not None:
            child.close()
    return processed
