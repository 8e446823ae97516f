"""Structured trace events: per-request spans with bounded memory.

A :class:`Tracer` collects :class:`TraceEvent` records from instrumented
components into one bounded ring (oldest events are evicted, a counter
records the loss).  Instrumentation sites open a :class:`Span` per request
and annotate its phases — for the adaptive client the canonical sequence
is ``decide -> issue -> rtt* -> validate -> retry/restart -> end``.

Tracing is opt-in: components default to the no-op :data:`NULL_TRACER`,
whose spans absorb every annotation, and a real tracer records every
component.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, List, Optional


class TraceEvent:
    """One timestamped annotation inside a span."""

    __slots__ = ("t", "component", "span_id", "name", "attrs")

    def __init__(self, t: float, component: str, span_id: int, name: str,
                 attrs: Optional[Dict[str, Any]] = None):
        self.t = t
        self.component = component
        self.span_id = span_id
        self.name = name
        self.attrs = attrs or {}

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "t": self.t,
            "component": self.component,
            "span": self.span_id,
            "name": self.name,
        }
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    def __repr__(self) -> str:
        return (f"<TraceEvent {self.component}/{self.name} "
                f"span={self.span_id} t={self.t:.6g}>")


class Span:
    """One traced request (or sub-operation); emits events into the tracer."""

    __slots__ = ("_tracer", "component", "span_id", "name", "start",
                 "_ended")

    def __init__(self, tracer: "Tracer", component: str, span_id: int,
                 name: str):
        self._tracer = tracer
        self.component = component
        self.span_id = span_id
        self.name = name
        self.start = tracer.sim.now
        self._ended = False

    def annotate(self, name: str, **attrs: Any) -> "Span":
        """Record one phase event (``decide``, ``issue``, ``rtt``, ...)."""
        self._tracer._emit(
            TraceEvent(self._tracer.sim.now, self.component, self.span_id,
                       name, attrs or None)
        )
        return self

    def end(self, **attrs: Any) -> None:
        if self._ended:
            return
        self._ended = True
        attrs.setdefault("elapsed", self._tracer.sim.now - self.start)
        self.annotate("end", **attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.end(error=repr(exc))
        else:
            self.end()


class _NullSpan:
    """Absorbs every annotation; returned when tracing is off."""

    __slots__ = ()
    component = ""
    span_id = -1

    def annotate(self, name: str, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded collector of trace events."""

    def __init__(self, sim, max_events: int = 65536):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.sim = sim
        self.max_events = max_events
        self._events: deque = deque(maxlen=max_events)
        self._span_ids = itertools.count(1)
        self.total_events = 0

    # -- recording ---------------------------------------------------------

    def span(self, component: str, name: str, **attrs: Any):
        """Open a span and record its ``begin`` event."""
        span = Span(self, component, next(self._span_ids), name)
        span.annotate("begin", op=name, **attrs)
        return span

    def _emit(self, event: TraceEvent) -> None:
        self.total_events += 1
        self._events.append(event)

    # -- introspection -----------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped_events(self) -> int:
        """Events evicted from the bounded ring."""
        return self.total_events - len(self._events)

    def spans(self) -> Dict[int, List[TraceEvent]]:
        """Retained events grouped by span id, in emission order."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self._events:
            grouped.setdefault(event.span_id, []).append(event)
        return grouped

    def snapshot(self, limit: Optional[int] = None) -> Dict[str, Any]:
        events = list(self._events)
        if limit is not None:
            events = events[-limit:]
        return {
            "total_events": self.total_events,
            "dropped_events": self.dropped_events,
            "events": [e.as_dict() for e in events],
        }


class NullTracer:
    """The default: never records, never allocates."""

    max_events = 0
    total_events = 0
    dropped_events = 0

    def span(self, component: str, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    @property
    def events(self) -> List[TraceEvent]:
        return []

    def spans(self) -> Dict[int, List[TraceEvent]]:
        return {}

    def snapshot(self, limit: Optional[int] = None) -> Dict[str, Any]:
        return {"total_events": 0, "dropped_events": 0, "events": []}


NULL_TRACER = NullTracer()
