"""Span-based tracer with wall-time and virtual-time clocks.

A :class:`Span` is one named interval.  Spans carry *two* time axes:

* ``wall_start_s`` / ``wall_end_s`` — real seconds from the tracer's
  injectable ``clock`` (``time.perf_counter`` by default, a fake clock in
  tests).  Used for host-side work: pipeline stages, scheduler slices,
  daemon job lifecycles.
* ``virtual_start_us`` / ``virtual_end_us`` — microseconds on the replay
  engine's simulated clock.  Used for the per-rank Gantt lanes (kernel
  compute/comm slices, rendezvous stalls) where wall time is meaningless.

Either axis may be absent; the Chrome-trace exporter routes wall spans and
virtual slices to separate processes so the two timelines never mix.

Correlation context (job id, sweep point, rank) nests per *thread* via
:meth:`Tracer.scope`, so the daemon's worker threads each carry their own
job identity while sharing one tracer.

A tracer constructed with ``enabled=False`` is inert: every recording
method returns immediately after one attribute read.  That is the
"present-but-disabled" half of the zero-overhead contract —
``tests/test_telemetry_fastpath.py`` asserts results and cache digests
stay byte-identical either way.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

#: Version of the span payload schema produced by :meth:`Tracer.to_dict`.
#: Adding keys is fine; renaming or removing existing ones is breaking.
TELEMETRY_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One named interval on the wall and/or virtual time axis."""

    name: str
    category: str
    wall_start_s: Optional[float] = None
    wall_end_s: Optional[float] = None
    virtual_start_us: Optional[float] = None
    virtual_end_us: Optional[float] = None
    correlation: Dict[str, Any] = field(default_factory=dict)
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_duration_s(self) -> Optional[float]:
        if self.wall_start_s is None or self.wall_end_s is None:
            return None
        return self.wall_end_s - self.wall_start_s

    @property
    def virtual_duration_us(self) -> Optional[float]:
        if self.virtual_start_us is None or self.virtual_end_us is None:
            return None
        return self.virtual_end_us - self.virtual_start_us

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "wall_start_s": self.wall_start_s,
            "wall_end_s": self.wall_end_s,
            "virtual_start_us": self.virtual_start_us,
            "virtual_end_us": self.virtual_end_us,
            "correlation": dict(self.correlation),
            "attributes": dict(self.attributes),
        }


@dataclass
class TraceEvent:
    """An instant (zero-duration) marker: park/wake, resume, errors."""

    name: str
    category: str
    wall_s: Optional[float] = None
    virtual_us: Optional[float] = None
    correlation: Dict[str, Any] = field(default_factory=dict)
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "wall_s": self.wall_s,
            "virtual_us": self.virtual_us,
            "correlation": dict(self.correlation),
            "attributes": dict(self.attributes),
        }


class _Scope:
    """Context manager popping one correlation frame (see Tracer.scope)."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> "Tracer":
        return self._tracer

    def __exit__(self, *exc: Any) -> None:
        self._tracer._pop_scope()


class Tracer:
    """Collects spans and instant events; thread-safe, cheaply disableable.

    One tracer instance spans one logical unit of observation — a replay
    session, a cluster replay, or a daemon's lifetime.  Recording methods
    are safe to call from many threads; the correlation stack is
    per-thread so concurrent jobs do not leak identity into each other.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        enabled: bool = True,
        max_records: int = 250_000,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        #: Wall epoch: chrome-trace ``ts`` values are relative to this.
        self.epoch_s = clock()
        self._dropped = 0
        self._lock = threading.Lock()
        # Past ``max_records`` each new record evicts the oldest one (counted
        # in ``dropped``), so a long-lived tracer keeps the latest activity.
        self._spans: Deque[Span] = deque(maxlen=max_records)
        self._events: Deque[TraceEvent] = deque(maxlen=max_records)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Correlation context
    # ------------------------------------------------------------------
    def scope(self, **correlation: Any) -> _Scope:
        """Push correlation keys (job_id, sweep_point, rank, ...) for the
        current thread; spans started inside inherit them.  Usable even on
        a disabled tracer (it is just a dict push)."""
        stack = self._scope_stack()
        merged = dict(stack[-1]) if stack else {}
        merged.update(correlation)
        stack.append(merged)
        return _Scope(self)

    def current_correlation(self) -> Dict[str, Any]:
        stack = self._scope_stack()
        return dict(stack[-1]) if stack else {}

    def _scope_stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _pop_scope(self) -> None:
        stack = self._scope_stack()
        if stack:
            stack.pop()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str,
        virtual_start_us: Optional[float] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """Open a wall-time span.  Returns ``None`` when disabled; pass the
        result straight to :meth:`end`, which tolerates ``None``."""
        if not self.enabled:
            return None
        return Span(
            name=name,
            category=category,
            wall_start_s=self.clock(),
            virtual_start_us=virtual_start_us,
            correlation=self.current_correlation(),
            attributes=attributes,
        )

    def end(self, span: Optional[Span], virtual_end_us: Optional[float] = None) -> None:
        if span is None or not self.enabled:
            return
        span.wall_end_s = self.clock()
        if virtual_end_us is not None:
            span.virtual_end_us = virtual_end_us
        self._append_span(span)

    def span(self, name: str, category: str, **attributes: Any) -> "_SpanContext":
        """``with tracer.span("stage:execute", "pipeline"): ...``"""
        return _SpanContext(self, name, category, attributes)

    def record(
        self,
        name: str,
        category: str,
        wall_start_s: Optional[float] = None,
        wall_end_s: Optional[float] = None,
        virtual_start_us: Optional[float] = None,
        virtual_end_us: Optional[float] = None,
        correlation: Optional[Dict[str, Any]] = None,
        **attributes: Any,
    ) -> None:
        """Append an already-complete span (e.g. a virtual-clock slice)."""
        if not self.enabled:
            return
        merged = self.current_correlation()
        if correlation:
            merged.update(correlation)
        self._append_span(
            Span(
                name=name,
                category=category,
                wall_start_s=wall_start_s,
                wall_end_s=wall_end_s,
                virtual_start_us=virtual_start_us,
                virtual_end_us=virtual_end_us,
                correlation=merged,
                attributes=attributes,
            )
        )

    def slice(
        self,
        rank: int,
        name: str,
        category: str,
        start_us: float,
        duration_us: float,
        **attributes: Any,
    ) -> None:
        """A virtual-time Gantt slice on one rank's lane (compute, comms,
        exposed-comms or stall)."""
        if not self.enabled:
            return
        self.record(
            name,
            category,
            virtual_start_us=start_us,
            virtual_end_us=start_us + duration_us,
            correlation={"rank": rank},
            **attributes,
        )

    def event(
        self,
        name: str,
        category: str,
        virtual_us: Optional[float] = None,
        correlation: Optional[Dict[str, Any]] = None,
        **attributes: Any,
    ) -> None:
        """An instant marker (scheduler park/wake, job transition, error)."""
        if not self.enabled:
            return
        merged = self.current_correlation()
        if correlation:
            merged.update(correlation)
        record = TraceEvent(
            name=name,
            category=category,
            wall_s=self.clock(),
            virtual_us=virtual_us,
            correlation=merged,
            attributes=attributes,
        )
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(record)

    def _append_span(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        with self._lock:
            return tuple(self._events)

    @property
    def dropped(self) -> int:
        return self._dropped

    def iter_spans(self, category: Optional[str] = None) -> Iterator[Span]:
        for span in self.spans:
            if category is None or span.category == category:
                yield span

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._events.clear()
            self._dropped = 0

    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-able payload (see ``service/serialize.py``)."""
        with self._lock:
            spans = [span.to_dict() for span in self._spans]
            events = [event.to_dict() for event in self._events]
            dropped = self._dropped
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "span_count": len(spans),
            "event_count": len(events),
            "dropped": dropped,
            "spans": spans,
            "events": events,
        }


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_category", "_attributes", "_span")

    def __init__(
        self, tracer: Tracer, name: str, category: str, attributes: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        self._span = self._tracer.begin(self._name, self._category, **self._attributes)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._span is not None and exc_type is not None:
            self._span.attributes["error"] = repr(exc)
        self._tracer.end(self._span)
