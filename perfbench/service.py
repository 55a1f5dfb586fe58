"""Drive ``repro serve`` over HTTP for the ``service-small`` workload.

:class:`ServiceDaemon` owns one ``repro serve --workers 1`` daemon on an
ephemeral port.  The daemon runs in a process group of its own, so its
worker and the worker's forked execution children can all be found (to
sample their memory) and all be stopped.  ``stop`` drains the daemon
with SIGTERM, kills whatever is left of the group and removes the
temporary queue directory; it runs on every exit path, Ctrl-C included,
because the daemon is only ever used as a context manager.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: seconds between two ``GET /jobs/<id>`` polls of the closed-loop client
POLL_SECONDS = 0.1

_LISTENING = re.compile(rb"repro serve: http://([0-9.]+):(\d+) ")


class ServiceError(RuntimeError):
    """The daemon could not be started or answered out of protocol."""


class ServiceDaemon:
    def __init__(self, root: Path, work_dir: Path) -> None:
        self.root = root
        self.work_dir = work_dir
        self.queue_dir: Optional[Path] = None
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def __enter__(self) -> "ServiceDaemon":
        try:
            self.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the daemon and return once it answers ``GET /healthz``."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.queue_dir = Path(tempfile.mkdtemp(prefix="queue-", dir=self.work_dir))
        log_path = self.queue_dir.with_suffix(".log")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with log_path.open("wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--queue-dir", str(self.queue_dir),
                 "--port", "0", "--workers", "1"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while self.address is None:
            match = _LISTENING.search(log_path.read_bytes())
            if match:
                self.address = (match.group(1).decode(), int(match.group(2)))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise ServiceError(f"repro serve did not start: {log_path.read_text()[-2000:]}")
            else:
                time.sleep(0.005)
        while True:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise ServiceError("repro serve did not answer /healthz")
            time.sleep(0.005)

    def stop(self) -> None:
        """Drain the daemon, kill its process group, remove the queue directory."""
        if self.proc is not None:
            pgid = self.proc.pid
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    _killpg(pgid)
                    self.proc.wait()
            _killpg(pgid)
            self.proc = None
            self.address = None
        if self.queue_dir is not None:
            shutil.rmtree(self.queue_dir, ignore_errors=True)
            self.queue_dir.with_suffix(".log").unlink(missing_ok=True)
            self.queue_dir = None

    def kill(self) -> None:
        """SIGKILL the whole process group at once: for a daemon that ran no job."""
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()

    # ------------------------------------------------------------------

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One HTTP round trip; a body is sent as JSON."""
        if self.address is None:
            raise ServiceError("the daemon is not running")
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        """The unlabelled samples of ``GET /metrics``."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"GET /metrics returned {status}")
        values = {}
        for line in body.decode().splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#") and "{" not in parts[0]:
                values[parts[0]] = float(parts[1])
        return values

    def pss_mb(self) -> float:
        """Proportional set size of the daemon's whole process group, now.

        PSS splits pages shared between the worker and its forked
        children, so the sum does not count them twice.
        """
        if self.proc is None:
            return 0.0
        total_kb = 0
        for pid, _ in _group(self.proc.pid):
            try:
                with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
                    for line in handle:
                        if line.startswith(b"Pss:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue  # the process ended while being read
        return total_kb / 1024.0

    def events(self) -> List[Dict[str, Any]]:
        """Every record of the daemon's ``events.jsonl`` so far."""
        if self.queue_dir is None:
            raise ServiceError("the daemon is not running")
        path = self.queue_dir / "events.jsonl"
        if not path.exists():
            return []
        with path.open(encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]


def _group(pgid: int) -> List[Tuple[int, bytes]]:
    """``(pid, state)`` of every process in process group ``pgid``."""
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue  # the process ended while being read
        if int(fields[2]) == pgid:
            members.append((int(entry.name), fields[0]))
    return members


def _killpg(pgid: int) -> None:
    """SIGKILL the group until no live process is left in it.

    Zombies are dead already and wait only for their reaper, which for
    orphans is init, so they are not waited for.
    """
    deadline = time.monotonic() + 10
    while any(state != b"Z" for _, state in _group(pgid)):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise ServiceError(f"process group {pgid} survived SIGKILL for 10 s")
        time.sleep(0.01)


def item_timings(events: Sequence[Dict[str, Any]], keys: set) -> Dict[str, Any]:
    """Per-item lease→complete times and per-owner complete→next-lease gaps.

    Only the items in ``keys`` (one job's) are considered; times are in
    seconds of the event log's wall clock.
    """
    leased: Dict[str, float] = {}
    item_seconds: List[float] = []
    gaps: List[float] = []
    last_complete: Dict[str, float] = {}
    completes: List[float] = []
    failures = 0
    for event in events:
        key = event.get("key")
        if key not in keys:
            continue
        kind = event["kind"]
        owner = event.get("owner")
        if kind == "lease":
            leased[key] = event["ts"]
            if owner in last_complete:
                gaps.append(event["ts"] - last_complete.pop(owner))
            if event.get("expired"):
                failures += 1
        elif kind == "complete" and key in leased:
            item_seconds.append(event["ts"] - leased.pop(key))
            last_complete[owner] = event["ts"]
            completes.append(event["ts"])
        elif kind in ("fail", "quarantine"):
            failures += 1
    return {
        "item_seconds": item_seconds,
        "lease_gaps": gaps,
        "last_complete": max(completes) if completes else None,
        "failures": failures,
    }
