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
  span, so every event carries its request's causal context;
* **cheap on the hot path** — :meth:`SpanTracer.span`,
  :meth:`~SpanTracer.span_if_active` and :meth:`~SpanTracer.activate`
  return small slotted scope objects (no generator frames), the context
  stack holds the open :class:`Span` objects themselves (no per-push
  :class:`TraceContext`), and every inert path — no trace open, or a
  :class:`NullSpanTracer` — hands out one shared no-op scope.  Call
  sites whose attributes cost formatting test :attr:`SpanTracer.recording`
  first.

Analysis and export (trees, critical paths, Chrome trace-event JSON)
live in :mod:`repro.obs.trace_export`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "TraceContext",
    "Span",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
    "NULL_SCOPE",
]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The (trace, span) coordinates new child spans attach under.

    This is the propagation token: the co-allocator stamps it onto each
    outgoing :class:`~repro.net.transport.Call` so the host-side
    reservation span parents under the caller's reserve span.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed, attributed node in a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "attributes", "status", "events", "seq")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, start: float,
                 end: Optional[float] = None,
                 attributes: Optional[Dict[str, Any]] = None,
                 status: str = "unset",
                 events: Optional[List[tuple]] = None,
                 seq: int = 0):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attributes: Dict[str, Any] = (
            {} if attributes is None else attributes)
        #: "ok" | "error" | "unset" (still open)
        self.status = status
        #: point events recorded by :meth:`SpanTracer.event`:
        #: (time, category, event, details)
        self.events: List[tuple] = [] if events is None else events
        #: global creation sequence number — the deterministic export order
        self.seq = seq

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


#: a context-stack entry: an open span stands for its own context, an
#: activated carried context is a :class:`TraceContext`
_Entry = Union[Span, TraceContext]


def _same(entry: _Entry, trace_id: str, span_id: str) -> bool:
    return entry.span_id == span_id and entry.trace_id == trace_id


class _SpanScope:
    """``with`` scope of one span: opened on entry, closed on exit.

    An escaping exception (``BaseException`` included) marks the span
    ``error``, records it as the ``"error"`` attribute, and propagates.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        span = self._span = self._tracer._open_span(
            self._name, None, self._attributes)
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        if exc_type is None:
            self._tracer.end_span(span)
            return
        span.attributes.setdefault(
            "error", f"{type(exc).__name__}: {exc}")
        self._tracer.end_span(span, status="error")


class _Activation:
    """``with`` scope that parents new spans under a carried context."""

    __slots__ = ("_stack", "_context")

    def __init__(self, stack: List[_Entry], context: TraceContext):
        self._stack = stack
        self._context = context

    def __enter__(self) -> None:
        self._stack.append(self._context)

    def __exit__(self, exc_type, exc, tb) -> None:
        stack, context = self._stack, self._context
        if stack and stack[-1] is context:
            stack.pop()
            return
        # a span left open above this entry, or an out-of-order end_span
        # that already popped it: drop the topmost equal entry, if any
        for i in range(len(stack) - 1, -1, -1):
            if _same(stack[i], context.trace_id, context.span_id):
                del stack[i]
                return


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
        self._stack: List[_Entry] = []
        self._open: Dict[str, Span] = {}
        self._trace_seq = 0
        self._span_seq = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock after construction."""
        self._clock = clock

    @property
    def enabled(self) -> bool:
        return True

    @property
    def recording(self) -> bool:
        """Would :meth:`span_if_active` record right now?  Call sites
        test this before formatting span attributes or event details."""
        return bool(self._stack)

    # -- context ------------------------------------------------------------
    def current_context(self) -> Optional[TraceContext]:
        """The context children created right now would attach under."""
        if not self._stack:
            return None
        top = self._stack[-1]
        if type(top) is TraceContext:
            return top
        return TraceContext(top.trace_id, top.span_id)

    @property
    def current_trace_id(self) -> Optional[str]:
        """The open trace's ID, or None — the metrics exemplar hook."""
        return self._stack[-1].trace_id if self._stack else None

    def activate(self, context: Optional[TraceContext]
                 ) -> Union[_Activation, "_NullScope"]:
        """Parent subsequent spans under a carried context.

        With ``context=None`` this is a no-op, so call sites can pass an
        optional carried context straight through.
        """
        if context is None:
            return NULL_SCOPE
        return _Activation(self._stack, context)

    # -- span lifecycle -------------------------------------------------------
    def _open_span(self, name: str, parent: Optional[_Entry],
                   attributes: Dict[str, Any]) -> Span:
        """Open a span owning ``attributes`` (not copied) and push it."""
        stack = self._stack
        if parent is None and stack:
            parent = stack[-1]
        if parent is None:
            self._trace_seq += 1
            trace_id = f"t{self._trace_seq:06d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        seq = self._span_seq = self._span_seq + 1
        span_id = f"s{seq:06d}"
        span = Span(trace_id, span_id, parent_id, name, self._clock(),
                    None, attributes, "unset", [], seq)
        self.spans.append(span)
        self._open[span_id] = span
        stack.append(span)
        return span

    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   **attributes: Any) -> Span:
        """Open a span (child of ``parent``/the current context, or a new
        trace root) and make it the current context."""
        return self._open_span(name, parent, attributes)

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span and pop it (and anything left above it) off the
        context stack."""
        span.end = self._clock()
        if status is not None:
            span.status = status
        elif span.status == "unset":
            span.status = "ok"
        self._open.pop(span.span_id, None)
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
            return
        trace_id, span_id = span.trace_id, span.span_id
        if any(_same(entry, trace_id, span_id) for entry in stack):
            while stack and not _same(stack[-1], trace_id, span_id):
                stack.pop()
            if stack:
                stack.pop()

    def span(self, name: str, **attributes: Any) -> _SpanScope:
        """Context manager: a child of the current context, or — with no
        context open — the root of a new trace.  An escaping exception
        marks the span (and its open ancestors' statuses stay theirs)
        as ``error`` with the exception recorded."""
        return _SpanScope(self, name, attributes)

    def span_if_active(self, name: str, **attributes: Any
                       ) -> Union[_SpanScope, "_NullScope"]:
        """Like :meth:`span`, but records nothing unless a trace is open.

        Every instrumented subsystem below the trace roots uses this, so
        untraced activity (unit tests poking a Host directly, periodic
        reassessment) does not spawn junk traces.
        """
        if not self._stack:
            return NULL_SCOPE
        return _SpanScope(self, name, attributes)

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
        span = Span(f"t{self._trace_seq:06d}", f"s{self._span_seq:06d}",
                    None, name, float(start), float(end), attributes,
                    status, [], self._span_seq)
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
        stack = self._stack
        if not stack:
            return
        top = stack[-1]
        span = top if type(top) is Span else self._open.get(top.span_id)
        if span is None:
            return
        span.events.append((self._clock(), category, event, details))

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
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", "", None, "null", 0.0)

    def set_attribute(self, key: str, value: Any) -> None:
        return

    def set_status(self, status: str) -> None:
        return

    def add_event(self, time: float, category: str, event: str,
                  details: Optional[Dict[str, Any]] = None) -> None:
        return


_NULL_SPAN = _NullSpan()


class _NullScope:
    """The one inert ``with`` scope: yields the shared null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: shared no-op scope returned by every inert span/activation path
NULL_SCOPE = _NullScope()


class NullSpanTracer(SpanTracer):
    """Records nothing — the span analogue of ``NullMetricsRegistry``
    for hot soak/benchmark loops (``Metasystem(tracing="off")``)."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   **attributes: Any) -> Span:
        return _NULL_SPAN

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        return

    def record_span(self, name: str, start: float, end: float,
                    status: str = "ok", **attributes: Any) -> Span:
        return _NULL_SPAN

    def span(self, name: str, **attributes: Any) -> _NullScope:
        return NULL_SCOPE

    def span_if_active(self, name: str, **attributes: Any) -> _NullScope:
        return NULL_SCOPE

    def activate(self, context: Optional[TraceContext]) -> _NullScope:
        return NULL_SCOPE

    def event(self, category: str, event: str, **details: Any) -> None:
        return


#: shared do-nothing span tracer
NULL_SPANS = NullSpanTracer()
