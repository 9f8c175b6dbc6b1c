"""Causal span tracing: per-request timelines over the placement protocol.

Spans answer "what happened *to this request*, and what dominated its
latency".  A :class:`SpanTracer` produces a tree of :class:`Span`\\ s per
trace — one trace per placement request (rooted by
:meth:`~repro.scheduler.base.Scheduler.run`) or per migration — with
every protocol step a named child span.  Sibling subtrees make master
retries and variant-schedule fallbacks directly visible.

Design points:

* **virtual-clock timestamps** — start/end come from the simulator's
  clock, so span durations are exactly the latencies the experiments
  measure;
* **deterministic IDs** — trace and span IDs are drawn from sequence
  counters, never wall clocks or :mod:`uuid`, so two identical seeded
  runs export byte-identical traces (pinned by
  ``tests/test_determinism.py``);
* **explicit context propagation** — a :class:`TraceContext` names the
  current (trace, span); it rides outgoing messages
  (:class:`~repro.net.transport.Call` carries one) so callee-side spans
  parent correctly even when the transport defers execution, mirroring
  W3C trace-context propagation;
* **single-threaded stack** — protocol code runs on one Python stack
  (see ``docs/architecture.md``), so the active context is a simple
  stack, not thread-local storage;
* **quiet by default** — :meth:`SpanTracer.span_if_active` records only
  when a trace is already open.  Background activity (periodic host
  reassessment, daemon sweeps) therefore produces no traces; only the
  explicit roots (placement, migration) do;
* **events ride spans** — point events (``net/invoke``, ``enactor/reserved``,
  ...) are recorded by :meth:`SpanTracer.event` on the innermost open
  span, so every event carries its request's causal context.

Analysis and export (trees, critical paths, Chrome trace-event JSON)
live in :mod:`repro.obs.trace_export`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "TraceContext",
    "Span",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
]


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span) coordinates new child spans attach under.

    This is the propagation token: the co-allocator stamps it onto each
    outgoing :class:`~repro.net.transport.Call` so the host-side
    reservation span parents under the caller's reserve span.
    """

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed, attributed node in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: "ok" | "error" | "unset" (still open)
    status: str = "unset"
    #: point events recorded by :meth:`SpanTracer.event`:
    #: (time, category, event, details)
    events: List[tuple] = field(default_factory=list)
    #: global creation sequence number — the deterministic export order
    seq: int = 0

    @property
    def duration(self) -> float:
        """Virtual seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_status(self, status: str) -> None:
        self.status = status

    def add_event(self, time: float, category: str, event: str,
                  details: Optional[Dict[str, Any]] = None) -> None:
        self.events.append((time, category, event, dict(details or {})))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Span {self.name!r} {self.trace_id}/{self.span_id} "
                f"parent={self.parent_id} status={self.status}>")


class SpanTracer:
    """Produces trees of :class:`Span`\\ s with deterministic IDs.

    Spans are appended to :attr:`spans` in creation order (the
    deterministic document order every exporter uses).  The active
    context is a stack; :meth:`activate` pushes a foreign
    :class:`TraceContext` so work triggered by a carried message
    parents under its sender.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.spans: List[Span] = []
        self._stack: List[TraceContext] = []
        self._open: Dict[str, Span] = {}
        self._trace_seq = 0
        self._span_seq = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock after construction."""
        self._clock = clock

    @property
    def enabled(self) -> bool:
        return True

    # -- context ------------------------------------------------------------
    def current_context(self) -> Optional[TraceContext]:
        """The context children created right now would attach under."""
        return self._stack[-1] if self._stack else None

    @property
    def current_trace_id(self) -> Optional[str]:
        """The open trace's ID, or None — the metrics exemplar hook."""
        return self._stack[-1].trace_id if self._stack else None

    @contextmanager
    def activate(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Parent subsequent spans under a carried context.

        With ``context=None`` this is a no-op, so call sites can pass an
        optional carried context straight through.
        """
        if context is None:
            yield
            return
        self._stack.append(context)
        try:
            yield
        finally:
            for i in range(len(self._stack) - 1, -1, -1):
                if self._stack[i] == context:
                    del self._stack[i]
                    break

    # -- span lifecycle -------------------------------------------------------
    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   **attributes: Any) -> Span:
        """Open a span (child of ``parent``/the current context, or a new
        trace root) and make it the current context."""
        if parent is None:
            parent = self.current_context()
        if parent is None:
            self._trace_seq += 1
            trace_id = f"t{self._trace_seq:06d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._span_seq += 1
        span = Span(trace_id=trace_id,
                    span_id=f"s{self._span_seq:06d}",
                    parent_id=parent_id, name=name,
                    start=self._clock(),
                    attributes=dict(attributes),
                    seq=self._span_seq)
        self.spans.append(span)
        self._open[span.span_id] = span
        self._stack.append(span.context)
        return span

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span and pop it (and anything left above it) off the
        context stack."""
        span.end = self._clock()
        if status is not None:
            span.status = status
        elif span.status == "unset":
            span.status = "ok"
        self._open.pop(span.span_id, None)
        ctx = span.context
        if ctx in self._stack:
            while self._stack and self._stack[-1] != ctx:
                self._stack.pop()
            if self._stack:
                self._stack.pop()

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context manager: a child of the current context, or — with no
        context open — the root of a new trace.  An escaping exception
        marks the span (and its open ancestors' statuses stay theirs)
        as ``error`` with the exception recorded."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        except BaseException as exc:
            span.attributes.setdefault(
                "error", f"{type(exc).__name__}: {exc}")
            self.end_span(span, status="error")
            raise
        self.end_span(span)

    @contextmanager
    def span_if_active(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Like :meth:`span`, but records nothing unless a trace is open.

        Every instrumented subsystem below the trace roots uses this, so
        untraced activity (unit tests poking a Host directly, periodic
        reassessment) does not spawn junk traces.
        """
        if not self._stack:
            yield _NULL_SPAN
            return
        with self.span(name, **attributes) as span:
            yield span

    def record_span(self, name: str, start: float, end: float,
                    status: str = "ok", **attributes: Any) -> Span:
        """Record a completed, detached root span over ``[start, end]``.

        Unlike :meth:`start_span` this never touches the context stack, so
        daemons (e.g. the chaos injector annotating a fault window from a
        scheduled callback) can emit spans without re-parenting whatever
        request trace happens to be open.
        """
        self._trace_seq += 1
        self._span_seq += 1
        span = Span(trace_id=f"t{self._trace_seq:06d}",
                    span_id=f"s{self._span_seq:06d}",
                    parent_id=None, name=name,
                    start=float(start), end=float(end),
                    attributes=dict(attributes), status=status,
                    seq=self._span_seq)
        self.spans.append(span)
        return span

    # -- point events ---------------------------------------------------------
    def event(self, category: str, event: str, **details: Any) -> None:
        """Attach a timestamped point event to the innermost open span.

        The transport (``net/invoke``, ``net/transfer``,
        ``net/parallel_invoke``) and the Enactor (``enactor/reserved``,
        ``enactor/enacted``) record their protocol events here.  Dropped
        silently when no span is open.
        """
        ctx = self.current_context()
        if ctx is None:
            return
        span = self._open.get(ctx.span_id)
        if span is None:
            return
        span.add_event(self._clock(), category, event, details)

    # -- introspection --------------------------------------------------------
    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace, both in first-seen order."""
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def trace_roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        self.spans.clear()
        self._open.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SpanTracer spans={len(self.spans)} "
                f"traces={self._trace_seq} open={len(self._open)}>")


#: shared inert span handed out by null/no-op paths; mutating it is a
#: silent no-op by construction (one shared instance, never exported)
class _NullSpan(Span):
    def __init__(self) -> None:
        super().__init__(trace_id="", span_id="", parent_id=None,
                         name="null", start=0.0)

    def set_attribute(self, key: str, value: Any) -> None:
        return

    def set_status(self, status: str) -> None:
        return

    def add_event(self, time: float, category: str, event: str,
                  details: Optional[Dict[str, Any]] = None) -> None:
        return


_NULL_SPAN = _NullSpan()


class NullSpanTracer(SpanTracer):
    """Records nothing — the span analogue of ``NullMetricsRegistry``
    for hot soak/benchmark loops (``Metasystem(tracing="off")``)."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def _null_cm(self) -> Iterator[Span]:
        yield _NULL_SPAN

    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   **attributes: Any) -> Span:
        return _NULL_SPAN

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        return

    def record_span(self, name: str, start: float, end: float,
                    status: str = "ok", **attributes: Any) -> Span:
        return _NULL_SPAN

    def span(self, name: str, **attributes: Any):
        return self._null_cm()

    def span_if_active(self, name: str, **attributes: Any):
        return self._null_cm()

    def activate(self, context: Optional[TraceContext]):
        return self._null_cm()

    def event(self, category: str, event: str, **details: Any) -> None:
        return


#: shared do-nothing span tracer
NULL_SPANS = NullSpanTracer()
