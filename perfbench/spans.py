"""In-memory span recorder for the traced pass.

A span is one timed call into a layer of the ``repro`` package: its
name, start and end on the monotonic clock, the span that was open when
it started, and the run it belongs to, ``(workload, iteration)``.  The
shape follows the OpenTelemetry trace data model without the
dependency.  Spans are kept in memory and written out once the pass
ends; nothing in ``src/`` is traced.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so nested calls (a group span around
the layer calls it makes) are never counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: Tuple[str, int]
    #: counts taken at the same boundary (edges, phases, messages, ...)
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.iteration = 0
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Time the body; the yielded dict takes the counts taken at this boundary."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), 0.0, parent,
                      (self.workload, self.iteration))
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval before their union is
    taken, so overlapping or overhanging children never drive self time
    below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {record.span_id: record for record in spans}
    for record in spans:
        if record.parent is not None and record.parent in by_id:
            parent = by_id[record.parent]
            start, end = max(record.start, parent.start), min(record.end, parent.end)
            if end > start:
                children.setdefault(record.parent, []).append((start, end))
    return {
        record.span_id: max(0.0, record.duration - _covered(children.get(record.span_id, ())))
        for record in spans
    }

