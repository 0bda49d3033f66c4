"""Span tracer: ring-buffered timing spans with parent/child nesting.

A span covers one pipeline stage of one context -- ``receive``,
``check``, ``resolve``, ``deliver`` -- or one engine batch.  Spans
nest: entering a span while another is open records the outer span as
its parent, so a ``stage.check`` span opened inside ``mw.receive``
carries the receive span's id.

The tracer keeps the last ``ring_size`` finished spans in a ring (old
spans fall off; memory stays bounded for arbitrarily long streams) and
a cumulative per-name count that survives the ring, so span totals
remain exact even after eviction.  ``export_jsonl`` writes the ring
for offline analysis; ``slowest`` answers the ``repro obs spans``
query.

The span stack is per-thread, so concurrent threads cannot corrupt
each other's nesting.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = ["SpanRecord", "SpanTracer"]


@dataclass
class SpanRecord:
    """One finished span; durations are wall-clock seconds."""

    name: str
    start: float
    duration: float
    span_id: int
    parent_id: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            duration=float(data["duration"]),  # type: ignore[arg-type]
            span_id=int(data["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None
                if data.get("parent_id") is None
                else int(data["parent_id"])  # type: ignore[arg-type]
            ),
            attrs=dict(data.get("attrs") or {}),  # type: ignore[arg-type]
        )


class _ActiveSpan:
    """Context manager for one span; records on clean or raising exit.

    Kept deliberately flat -- one allocation, one ``perf_counter``
    pair, one lock acquisition on exit -- because the pipeline opens
    several spans per context (see the telemetry overhead benchmark).
    The per-thread span stack is cached after the first entry, pinning
    a *reusable* span to the thread that first enters it (one owner
    component, one thread -- the documented contract); one-shot spans
    from :meth:`SpanTracer.span` only ever enter once anyway.
    """

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id",
        "_stack", "_start",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._stack: Optional[List[int]] = None
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = self._stack
        if stack is None:
            stack = self._stack = tracer._stack()
        self.parent_id = stack[-1] if stack else None
        span_id = next(tracer._ids)
        self.span_id = span_id
        stack.append(span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = self._stack
        if stack:
            stack.pop()
        attrs = self.attrs
        if exc_type is not None:
            # Copy before annotating: reusable spans share one attrs
            # dict across all their uses.
            attrs = dict(attrs)
            attrs["error"] = exc_type.__name__
        tracer = self._tracer
        entry = (
            self.name, tracer._wall_base + self._start, duration,
            self.span_id, self.parent_id, attrs,
        )
        with tracer._lock:
            tracer._ring.append(entry)
            tracer.counts[self.name] = tracer.counts.get(self.name, 0) + 1


class _NullSpan:
    """Shared no-op span for disabled tracers (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class SpanTracer:
    """Produces, rings and counts spans; see the module docstring."""

    def __init__(self, *, enabled: bool = True, ring_size: int = 4096) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.enabled = enabled
        self.ring_size = ring_size
        # The ring holds plain (name, start, duration, span_id,
        # parent_id, attrs) tuples; SpanRecord objects are materialized
        # only when queried.  Dataclass construction per span is the
        # single biggest hot-path cost this avoids.
        self._ring: deque = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        # Spans report wall-clock starts but are timed on perf_counter;
        # one base conversion at construction replaces a time.time()
        # call per finished span.
        self._wall_base = time.time() - time.perf_counter()
        #: Cumulative finished-span count per name (survives the ring).
        self.counts: Dict[str, int] = {}

    # -- span production ------------------------------------------------------

    def span(self, name: str, **attrs: object):
        """Open a span; use as ``with tracer.span("stage.check", ctx_id=...)``."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def reusable_span(self, name: str):
        """A pre-bound span context manager for hot loops.

        Unlike :meth:`span`, the returned object is allocated once and
        re-entered per use, skipping the per-call kwargs dict and span
        allocation.  It must not be nested inside itself and is
        single-threaded, like the component that owns it.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, {})

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        """Allocate a span id and push it; returns (span_id, parent_id)."""
        span_id = next(self._ids)
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent_id

    def _close(
        self,
        name: str,
        start: float,
        duration: float,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        """Pop the span and ring it; counterpart of :meth:`_open`."""
        stack = self._stack()
        if stack:
            stack.pop()
        entry = (
            name, self._wall_base + start, duration, span_id, parent_id, attrs
        )
        with self._lock:
            self._ring.append(entry)
            self.counts[name] = self.counts.get(name, 0) + 1

    # -- queries --------------------------------------------------------------

    def spans(self) -> List[SpanRecord]:
        """The ring's finished spans, oldest first."""
        with self._lock:
            entries = list(self._ring)
        return [SpanRecord(*entry) for entry in entries]

    def slowest(self, n: int = 10) -> List[SpanRecord]:
        """The ``n`` longest spans still in the ring, slowest first."""
        return sorted(
            self.spans(), key=lambda s: s.duration, reverse=True
        )[: max(0, n)]

    def total_spans(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    # -- export / merge -------------------------------------------------------

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write the ring as JSON lines; returns spans written."""
        records = self.spans()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict()) + "\n")
        return len(records)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = dict(self.counts)
            entries = list(self._ring)
        return {
            "counts": counts,
            "spans": [SpanRecord(*entry).to_dict() for entry in entries],
        }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.counts.clear()
