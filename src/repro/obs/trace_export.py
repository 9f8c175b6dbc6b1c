"""Analysis and export of causal span traces.

Consumes the :class:`~repro.obs.spans.Span` list a
:class:`~repro.obs.spans.SpanTracer` accumulated and renders it four ways:

* :func:`render_tree` — ASCII trace trees for the terminal;
* :func:`trace_summary` / :func:`render_step_table` — per-trace and
  per-step latency breakdowns (inclusive and *self* time, so the
  dominant protocol step is visible even when spans nest);
* :func:`critical_path` / :func:`render_critical_path_report` — the
  root-to-leaf chain that determined each trace's end time, and which
  step on it dominated;
* :func:`chrome_trace` / :func:`chrome_trace_json` — Chrome trace-event
  JSON loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``, with span events as instant events; :func:`spans_to_jsonl` — a line-per-span dump for ad-hoc
  processing.

All output is deterministic: spans arrive in creation order (their IDs
are sequence counters), timestamps are virtual-clock values, and every
JSON serialization sorts its keys — two identical seeded runs export
byte-identical traces (pinned by ``tests/test_determinism.py``).

Chrome trace-event mapping: one *process* per trace (pid = the trace
sequence number) and a single *thread* per trace (tid 1).  The protocol
is synchronous on one simulated stack, so nested ``ph="X"`` complete
events on one thread row render exactly as the span tree.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .spans import Span

__all__ = [
    "children_of",
    "self_time",
    "critical_path",
    "dominant_step",
    "trace_summary",
    "aggregate_step_latencies",
    "render_step_aggregate",
    "render_tree",
    "render_step_table",
    "render_critical_path_report",
    "chrome_trace",
    "chrome_trace_json",
    "spans_to_jsonl",
    "validate_chrome_trace",
]


# ---------------------------------------------------------------------------
# tree structure
# ---------------------------------------------------------------------------
def children_of(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    """Parent span id -> children (in creation order); key None = roots."""
    out: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        out.setdefault(span.parent_id, []).append(span)
    return out


def _end(span: Span) -> float:
    return span.start if span.end is None else span.end


def self_time(span: Span, children: Dict[Optional[str], List[Span]]
              ) -> float:
    """Duration minus time spent in child spans (clamped at 0)."""
    spent = sum(c.duration for c in children.get(span.span_id, ()))
    return max(0.0, span.duration - spent)


def _group_by_trace(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for span in spans:
        out.setdefault(span.trace_id, []).append(span)
    return out


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------
def critical_path(trace_spans: Sequence[Span]) -> List[Span]:
    """The root-to-leaf chain that determined this trace's end time.

    From the root, repeatedly descend into the child whose end time is
    latest (ties go to the later-created sibling) — the subtree that the
    trace was waiting on when it finished.
    """
    if not trace_spans:
        return []
    children = children_of(trace_spans)
    roots = children.get(None, [])
    if not roots:
        return []
    path = [roots[0]]
    while True:
        kids = children.get(path[-1].span_id, [])
        if not kids:
            return path
        path.append(max(kids, key=lambda s: (_end(s), s.seq)))


def dominant_step(trace_spans: Sequence[Span]) -> Optional[Span]:
    """The span on the critical path with the most *self* time — the
    protocol step that dominated this request's latency."""
    path = critical_path(trace_spans)
    if not path:
        return None
    children = children_of(trace_spans)
    return max(path, key=lambda s: (self_time(s, children), -s.seq))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------
def trace_summary(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """One deterministic record per trace (in first-seen order)."""
    out: List[Dict[str, Any]] = []
    for trace_id, trace_spans in _group_by_trace(spans).items():
        children = children_of(trace_spans)
        roots = children.get(None, [])
        root = roots[0] if roots else trace_spans[0]
        dom = dominant_step(trace_spans)
        out.append({
            "trace_id": trace_id,
            "root": root.name,
            "status": root.status,
            "start": root.start,
            "duration": root.duration,
            "spans": len(trace_spans),
            "dominant_step": dom.name if dom is not None else "",
            "dominant_self_time": (self_time(dom, children)
                                   if dom is not None else 0.0),
        })
    return out


def _sorted_quantile(values: Sequence[float], q: float) -> float:
    """Interpolated q-quantile of a pre-sorted sample list (0.0 empty)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    rank = q * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    frac = rank - lo
    return values[lo] + (values[hi] - values[lo]) * frac


def aggregate_step_latencies(spans: Sequence[Span],
                             p: float = 0.95) -> List[Dict[str, Any]]:
    """Cross-trace per-step latency aggregation.

    One record per span name across *all* traces — count, errors,
    mean/p-quantile/max duration, and total self time — sorted by name
    so the output is deterministic.  This is the step-timing view the
    SLO health report and ``legion-sim trace steps`` share, so latency
    targets and trace tooling agree on what each protocol step costs.
    """
    children = children_of(spans)
    rows: Dict[str, Dict[str, Any]] = {}
    durations: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, {
            "step": span.name, "count": 0, "errors": 0,
            "total": 0.0, "self": 0.0, "max": 0.0})
        row["count"] += 1
        if span.status == "error":
            row["errors"] += 1
        row["total"] += span.duration
        row["self"] += self_time(span, children)
        row["max"] = max(row["max"], span.duration)
        durations.setdefault(span.name, []).append(span.duration)
    out: List[Dict[str, Any]] = []
    for name in sorted(rows):
        row = rows[name]
        sample = sorted(durations[name])
        row["mean"] = row["total"] / row["count"] if row["count"] else 0.0
        row["quantile"] = p
        row["p"] = _sorted_quantile(sample, p)
        out.append(row)
    return out


def render_step_aggregate(rows: Sequence[Dict[str, Any]],
                          title: str = "step latency across traces"
                          ) -> str:
    """Terminal table for :func:`aggregate_step_latencies` output."""
    q_label = (f"p{rows[0]['quantile'] * 100:g}_s" if rows else "p95_s")
    lines = [f"== {title} ==",
             f"{'step':26s} {'count':>6s} {'errors':>6s} "
             f"{'mean_s':>12s} {q_label:>12s} {'max_s':>12s} "
             f"{'self_s':>12s}"]
    for row in rows:
        lines.append(
            f"{row['step']:26s} {int(row['count']):>6d} "
            f"{int(row['errors']):>6d} {row['mean']:>12.6f} "
            f"{row['p']:>12.6f} {row['max']:>12.6f} "
            f"{row['self']:>12.6f}")
    return "\n".join(lines)


def render_tree(spans: Sequence[Span],
                trace_id: Optional[str] = None) -> str:
    """ASCII tree rendering of one trace (or all of them)."""
    lines: List[str] = []
    for tid, trace_spans in _group_by_trace(spans).items():
        if trace_id is not None and tid != trace_id:
            continue
        children = children_of(trace_spans)

        def walk(span: Span, depth: int) -> None:
            mark = " !" if span.status == "error" else ""
            attrs = " ".join(f"{k}={v}"
                             for k, v in sorted(span.attributes.items()))
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"[{span.start:.6f} +{span.duration:.6f}s]"
                f"{mark}{('  ' + attrs) if attrs else ''}")
            for tm, category, event, details in span.events:
                kv = " ".join(f"{k}={v}" for k, v in details.items())
                lines.append(f"{'  ' * (depth + 1)}* {category}/{event} "
                             f"@{tm:.6f}{(' ' + kv) if kv else ''}")
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        lines.append(f"trace {tid}")
        for root in children.get(None, []):
            walk(root, 1)
    return "\n".join(lines) if lines else "(no traces recorded)"


def render_step_table(spans: Sequence[Span],
                      title: str = "span latency by step") -> str:
    """Per-span-name latency aggregation across every trace."""
    children = children_of(spans)
    agg: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = agg.setdefault(span.name, {
            "count": 0, "errors": 0, "total": 0.0, "self": 0.0,
            "max": 0.0})
        row["count"] += 1
        if span.status == "error":
            row["errors"] += 1
        row["total"] += span.duration
        row["self"] += self_time(span, children)
        row["max"] = max(row["max"], span.duration)
    lines = [f"== {title} ==",
             f"{'span':26s} {'count':>6s} {'errors':>6s} "
             f"{'total_s':>12s} {'self_s':>12s} {'mean_s':>12s} "
             f"{'max_s':>12s}"]
    for name in sorted(agg):
        row = agg[name]
        mean = row["total"] / row["count"] if row["count"] else 0.0
        lines.append(f"{name:26s} {int(row['count']):>6d} "
                     f"{int(row['errors']):>6d} {row['total']:>12.6f} "
                     f"{row['self']:>12.6f} {mean:>12.6f} "
                     f"{row['max']:>12.6f}")
    return "\n".join(lines)


def render_critical_path_report(spans: Sequence[Span],
                                title: str = "critical paths") -> str:
    """Per-trace critical path and the step that dominated it."""
    lines = [f"== {title} ==",
             f"{'trace':10s} {'root':12s} {'status':7s} "
             f"{'duration_s':>12s} {'dominant step':26s} "
             f"{'self_s':>12s} {'share':>7s}"]
    dominants: Dict[str, int] = {}
    for row in trace_summary(spans):
        share = (row["dominant_self_time"] / row["duration"]
                 if row["duration"] > 0 else 0.0)
        dominants[row["dominant_step"]] = (
            dominants.get(row["dominant_step"], 0) + 1)
        lines.append(
            f"{row['trace_id']:10s} {row['root']:12s} "
            f"{row['status']:7s} {row['duration']:>12.6f} "
            f"{row['dominant_step']:26s} "
            f"{row['dominant_self_time']:>12.6f} {share:>6.1%}")
    if dominants:
        ranked = sorted(dominants.items(), key=lambda kv: (-kv[1], kv[0]))
        lines.append("")
        lines.append("dominant step overall: " + ", ".join(
            f"{name or '(none)'} x{n}" for name, n in ranked))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------
def _us(t: float) -> float:
    """Virtual seconds -> trace-event microseconds."""
    return t * 1e6


def _assign_lanes(trace_spans: Sequence[Span]) -> Dict[str, int]:
    """span_id -> thread lane, such that spans sharing a lane nest
    properly in time (complete events on one Chrome thread row must).

    Parallel siblings (e.g. a co-allocation batch's rpc spans) overlap
    without nesting, so they spread across lanes greedily; deterministic
    because the sweep order is (start, -end, seq).
    """
    order = sorted(trace_spans,
                   key=lambda s: (s.start, -(_end(s)), s.seq))
    lanes: List[List[Span]] = []          # per-lane stack of open spans
    assignment: Dict[str, int] = {}
    for span in order:
        placed = False
        for lane_no, stack in enumerate(lanes):
            while stack and _end(stack[-1]) <= span.start:
                stack.pop()
            if not stack or _end(span) <= _end(stack[-1]):
                stack.append(span)
                assignment[span.span_id] = lane_no + 1
                placed = True
                break
        if not placed:
            lanes.append([span])
            assignment[span.span_id] = len(lanes)
    return assignment


def chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """The Chrome trace-event dict (Perfetto / chrome://tracing).

    One process per trace; nested complete events reproduce the span
    tree, parallel siblings fan out across thread lanes, and span
    events become instant events.
    """
    events: List[Dict[str, Any]] = []
    for trace_index, (trace_id, trace_spans) in enumerate(
            _group_by_trace(spans).items(), start=1):
        try:
            pid = int(trace_id.lstrip("t"))
        except ValueError:
            pid = trace_index
        roots = [s for s in trace_spans if s.parent_id is None]
        label = roots[0].name if roots else trace_spans[0].name
        events.append({
            "ph": "M", "pid": pid, "tid": 1, "name": "process_name",
            "args": {"name": f"{label} {trace_id}"},
        })
        lanes = _assign_lanes(trace_spans)
        for span in trace_spans:
            tid = lanes.get(span.span_id, 1)
            args = {k: v for k, v in sorted(span.attributes.items())}
            args.update({"span_id": span.span_id,
                         "parent_id": span.parent_id or "",
                         "status": span.status})
            events.append({
                "ph": "X", "pid": pid, "tid": tid,
                "name": span.name, "cat": label,
                "ts": _us(span.start), "dur": _us(span.duration),
                "args": args,
            })
            for tm, category, event, details in span.events:
                events.append({
                    "ph": "i", "pid": pid, "tid": tid, "s": "t",
                    "name": f"{category}/{event}", "cat": category,
                    "ts": _us(tm),
                    "args": dict(sorted(details.items())),
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Sequence[Span],
                      indent: Optional[int] = None) -> str:
    """Byte-stable Chrome trace JSON (sorted keys, no NaN)."""
    return json.dumps(chrome_trace(spans), sort_keys=True, indent=indent,
                      separators=(",", ": ") if indent else (",", ":"),
                      allow_nan=False, default=str)


def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per span per line, in creation order."""
    lines = []
    for span in spans:
        lines.append(json.dumps({
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "status": span.status,
            "attributes": span.attributes,
            "events": [
                {"time": tm, "category": category, "event": event,
                 "details": details}
                for tm, category, event, details in span.events],
        }, sort_keys=True, separators=(",", ":"), allow_nan=False,
            default=str))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
_REQUIRED_BY_PHASE = {
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "pid", "tid", "ts"),
    "M": ("name", "pid"),
}


def validate_chrome_trace(obj: Any) -> List[str]:
    """Problems that would make a trace-event file unloadable; [] = valid."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"event {i}: missing ph")
            continue
        for key in _REQUIRED_BY_PHASE.get(ph, ("name", "pid", "tid", "ts")):
            if key not in event:
                problems.append(f"event {i} (ph={ph}): missing {key}")
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                problems.append(f"event {i}: {key} must be a number")
        if "dur" in event and isinstance(event["dur"], (int, float)) \
                and event["dur"] < 0:
            problems.append(f"event {i}: negative dur")
    return problems
