"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent).  ``measured`` spans are timed here,
around a public call; ``reported`` spans carry seconds a layer returned
about work the benchmark could not wrap (the passes of a shard compiled
inside ``compile_shards``).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    kind: str = "measured"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; the open-span stack is per thread, so concurrent
    client threads nest their own spans under the parent they name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, parent: int | None, kind: str, attrs: dict) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(len(self.spans), name, parent, 0.0, kind=kind, attrs=attrs)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs: Any) -> Iterator[Span]:
        """Time the enclosed block as a child of the innermost open span of
        this thread (or of ``parent``, for a thread's first span)."""
        span = self._open(name, parent, "measured", attrs)
        stack = self._stack()
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def reported(
        self, name: str, seconds: float, parent: int | None = None, **attrs: Any
    ) -> Span:
        """Record seconds a layer reported, as a child of ``parent`` (by
        default the innermost open span of this thread)."""
        span = self._open(name, parent, "reported", attrs)
        span.end = seconds
        return span

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the durations of its direct children."""
        own = {span.id: span.seconds for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def seconds_by_name(self, self_time: bool = False, ops=None) -> dict[str, float]:
        """Total (or self) seconds summed over the spans of each name; with
        ``ops``, only over spans whose outermost span carries one of them
        as its ``op`` attribute."""
        own = self.self_seconds() if self_time else None
        root_op: dict[int, Any] = {}
        totals: dict[str, float] = {}
        for span in self.spans:  # a parent is always recorded before its children
            root_op[span.id] = (
                span.attrs.get("op") if span.parent is None else root_op[span.parent]
            )
            if ops is not None and root_op[span.id] not in ops:
                continue
            seconds = own[span.id] if own is not None else span.seconds
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals


def dump_spans(path: str, recorders: list[SpanRecorder]) -> None:
    """Write the spans of a run's traced passes, one list per pass."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([[asdict(span) for span in rec.spans] for rec in recorders], handle)
