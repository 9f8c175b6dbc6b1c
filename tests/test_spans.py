"""Causal span tracing: SpanTracer, exports, and the Metasystem wiring.

The tentpole of the observability layer: per-request span trees over the
13-step placement protocol, with deterministic IDs, a critical-path
analysis, and Chrome trace-event export (docs/observability.md)."""

import dataclasses
import json

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.chaos import ChaosLayer
from repro.guardrails import GuardrailsLayer
from repro.obs import (
    NULL_SCOPE,
    NULL_SPANS,
    NullSpanTracer,
    SpanTracer,
    TraceContext,
    build_snapshot,
    chrome_trace,
    chrome_trace_json,
    critical_path,
    render_critical_path_report,
    render_report,
    render_step_table,
    render_tree,
    spans_to_jsonl,
    trace_summary,
    validate_chrome_trace,
)
from repro.obs.trace_export import children_of, dominant_step, self_time
from repro.scenario import run_scenario, service
from repro.service.report import service_report


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


# ---------------------------------------------------------------------------
# SpanTracer unit behaviour
# ---------------------------------------------------------------------------
class TestSpanTracer:
    def test_ids_are_deterministic_sequence_counters(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.trace_id for s in tracer.spans] == [
            "t000001", "t000001", "t000002"]
        assert [s.span_id for s in tracer.spans] == [
            "s000001", "s000002", "s000003"]

    def test_nesting_and_timestamps(self, tracer, clock):
        with tracer.span("root", kind="test") as root:
            clock.now = 1.0
            with tracer.span("child") as child:
                clock.now = 3.0
            clock.now = 4.0
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert (root.start, root.end) == (0.0, 4.0)
        assert (child.start, child.end) == (1.0, 3.0)
        assert child.duration == 2.0
        assert root.status == "ok" and child.status == "ok"
        assert root.attributes == {"kind": "test"}
        assert tracer.current_context() is None  # stack fully unwound

    def test_exception_marks_span_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        inner, = tracer.find("inner")
        outer, = tracer.find("outer")
        assert inner.status == "error"
        assert inner.attributes["error"] == "ValueError: boom"
        assert outer.status == "error"
        assert tracer.current_context() is None

    def test_span_if_active_is_quiet_without_a_root(self, tracer):
        with tracer.span_if_active("orphan") as span:
            span.set_attribute("ignored", 1)
            span.set_status("error")
        assert len(tracer) == 0
        # ... but records normally inside an open trace
        with tracer.span("root"):
            with tracer.span_if_active("child"):
                pass
        assert [s.name for s in tracer.spans] == ["root", "child"]

    def test_activate_parents_under_carried_context(self, tracer):
        with tracer.span("sender") as sender:
            carried = sender.context
        assert tracer.current_context() is None
        with tracer.activate(carried):
            with tracer.span_if_active("receiver"):
                pass
        receiver, = tracer.find("receiver")
        assert receiver.parent_id == sender.span_id
        assert receiver.trace_id == sender.trace_id
        assert tracer.current_context() is None

    def test_activate_none_is_a_noop(self, tracer):
        with tracer.activate(None):
            assert tracer.current_context() is None

    def test_event_attaches_to_innermost_open_span(self, tracer, clock):
        tracer.event("net", "dropped")  # no open span: dropped silently
        with tracer.span("root"):
            with tracer.span("inner") as inner:
                clock.now = 2.0
                tracer.event("enactor", "reserved", host="ws0")
        assert inner.events == [(2.0, "enactor", "reserved",
                                 {"host": "ws0"})]

    def test_clear_resets_spans_and_context(self, tracer):
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.current_context() is None


class TestScopeContract:
    """The ``with`` scopes behind span/span_if_active/activate."""

    def test_base_exception_marks_span_error_and_propagates(self, tracer):
        class Abort(BaseException):
            pass

        with pytest.raises(Abort):
            with tracer.span("root"):
                with tracer.span_if_active("step", step="5") as step:
                    raise Abort("stop")
        assert step.status == "error"
        assert step.attributes == {"step": "5", "error": "Abort: stop"}
        root, = tracer.find("root")
        assert root.status == "error" and root.end is not None
        assert tracer.current_context() is None

    def test_error_attribute_set_in_the_body_is_kept(self, tracer):
        with pytest.raises(KeyError):
            with tracer.span("root") as root:
                root.set_attribute("error", "mine")
                raise KeyError("k")
        assert root.attributes["error"] == "mine"

    def test_out_of_order_end_unwinds_the_stack(self, tracer, clock):
        outer = tracer.start_span("outer")
        inner = tracer.start_span("inner")
        clock.now = 2.0
        tracer.end_span(outer)
        assert tracer.current_context() is None  # inner went with it
        assert inner.status == "unset" and inner.end is None
        clock.now = 3.0
        tracer.end_span(inner)  # not on the stack any more: no-op pop
        assert (outer.end, inner.end) == (2.0, 3.0)
        with tracer.span("next") as nxt:
            pass
        assert nxt.parent_id is None  # a fresh trace, nothing left over

    def test_end_of_a_span_under_an_activation_of_itself(self, tracer):
        span = tracer.start_span("root")
        with tracer.activate(span.context):
            tracer.end_span(span)
            # entries compare by (trace, span) ID: the topmost equal
            # one — the activation — is popped, the span's own stays ...
            assert tracer.current_context() == span.context
        # ... until the activation's exit removes the equal entry left
        assert tracer.current_context() is None
        assert span.status == "ok"

    def test_nested_activation_of_the_same_context(self, tracer):
        with tracer.span("sender") as sender:
            carried = sender.context
        with tracer.activate(carried):
            with tracer.activate(carried):
                with tracer.span_if_active("inner"):
                    pass
                assert tracer.current_context() == carried
            assert tracer.current_context() == carried
            with tracer.span_if_active("outer"):
                pass
        assert tracer.current_context() is None
        assert [s.parent_id for s in tracer.find("inner")
                + tracer.find("outer")] == [sender.span_id] * 2

    def test_event_under_an_activation_reaches_the_open_span(
            self, tracer, clock):
        with tracer.span("root") as root:
            with tracer.activate(root.context):
                clock.now = 1.5
                tracer.event("net", "invoke", label="x")
        assert root.events == [(1.5, "net", "invoke", {"label": "x"})]

    def test_off_trace_scope_is_the_shared_inert_singleton(self, tracer):
        assert not tracer.recording
        scope = tracer.span_if_active("orphan", host="h")
        assert scope is NULL_SCOPE
        assert tracer.activate(None) is NULL_SCOPE
        with scope as span:
            span.set_attribute("k", 1)
        assert len(tracer) == 0
        with tracer.span("root"):
            assert tracer.recording
            assert tracer.span_if_active("child") is not NULL_SCOPE

    def test_every_null_tracer_entry_point_is_inert(self):
        null = NullSpanTracer()
        context = TraceContext("t1", "s1")
        assert null.span("root") is NULL_SCOPE
        assert null.span_if_active("child") is NULL_SCOPE
        assert null.activate(context) is NULL_SCOPE
        assert null.activate(None) is NULL_SCOPE
        null_span = null.start_span("root")
        assert null.record_span("r", start=0.0, end=1.0) is null_span
        with null.span("root") as span:
            assert span is null_span
            null.event("net", "invoke")
        null.end_span(null_span, status="error")
        assert not null.recording
        assert len(null) == 0 and null.current_context() is None
        assert null_span.status == "unset" and null_span.events == []


class TestNullSpanTracer:
    def test_records_nothing(self):
        null = NullSpanTracer()
        with null.span("root") as span:
            span.set_attribute("k", 1)
            span.set_status("error")
            with null.span_if_active("child"):
                pass
            with null.activate(TraceContext("t1", "s1")):
                pass
        null.event("cat", "ev")
        assert len(null.spans) == 0
        assert not null.enabled
        assert null.current_trace_id is None

    def test_null_span_is_inert(self):
        with NULL_SPANS.span("x") as span:
            span.set_attribute("k", "v")
            span.add_event(0.0, "c", "e")
        assert span.attributes == {}
        assert span.events == []
        assert span.end is None  # the transport's stretch guard relies
        # on a null span never looking "closed"


# ---------------------------------------------------------------------------
# Metasystem wiring: the tracing knob, exemplars
# ---------------------------------------------------------------------------
def _tiny_meta(**kwargs):
    m = Metasystem(seed=11, **kwargs)
    m.add_domain("d0")
    for i in range(2):
        m.add_unix_host(f"h{i}", "d0",
                        MachineSpec(arch="sparc", os_name="SunOS"),
                        slots=4)
    m.add_vault("d0")
    return m


class TestTracingKnob:
    def test_spans_mode_is_default_and_fully_wired(self):
        m = _tiny_meta()
        assert isinstance(m.spans, SpanTracer)
        assert not isinstance(m.spans, NullSpanTracer)
        assert m.transport.spans is m.spans
        assert m.collection.spans is m.spans
        assert all(h.spans is m.spans for h in m.hosts)
        assert all(v.spans is m.spans for v in m.vaults)

    def test_off_mode_disables_both(self):
        """Off records neither spans nor span events."""
        m = _tiny_meta(tracing="off")
        assert isinstance(m.spans, NullSpanTracer)
        assert m.transport.spans is m.spans
        assert m.enactor.spans is m.spans

    def test_invalid_mode_rejected(self):
        for mode in ("verbose", "flat"):
            with pytest.raises(ValueError):
                Metasystem(seed=1, tracing=mode)

    def test_disabled_modes_still_place_objects(self):
        m = _tiny_meta(tracing="off")
        app = m.create_class(
            "A", [Implementation("sparc", "SunOS")], work_units=10.0)
        outcome = m.make_scheduler("random").run(
            [ObjectClassRequest(app, 1)])
        assert outcome.ok
        assert len(m.spans) == 0


class TestTracerBridge:
    """Events recorded on the metasystem's tracer land on the open span."""

    def test_emit_during_open_span_becomes_span_event(self):
        m = _tiny_meta()
        with m.spans.span("root") as root:
            m.spans.event("custom", "ping", n=1)
        assert [(cat, ev, details) for _, cat, ev, details in root.events] \
            == [("custom", "ping", {"n": 1})]

    def test_emit_outside_spans_only_hits_flat_tracer(self):
        """With no span open an event is dropped and opens no trace."""
        m = _tiny_meta()
        m.spans.event("custom", "ping")
        assert len(m.spans) == 0
        assert m.spans.current_context() is None


def _service_run(tracing):
    """A short seeded service campaign with chaos and guardrails on."""
    scenario = service(seed=5, n_domains=2, hosts_per_domain=4,
                       duration=120.0, workers=3, queue_cap=8,
                       surge_multiplier=4.0, drain_time=300.0)
    chaos = ChaosLayer(profile="mixed", chaos_seed=3, horizon=120.0)
    scenario = dataclasses.replace(
        scenario,
        spec=dataclasses.replace(
            scenario.spec, tracing=tracing,
            layers=[GuardrailsLayer(), chaos, *scenario.spec.layers]),
        report=lambda run: (run.meta, service_report(run)))
    meta, report = run_scenario(scenario)
    snapshot = build_snapshot(meta.metrics)
    # the only families tracing may touch: span-derived exemplars and
    # the retained-span gauge
    snapshot["metrics"] = [m for m in snapshot["metrics"]
                           if m["name"] != "span_records"]
    for metric in snapshot["metrics"]:
        for series in metric["series"]:
            series.pop("exemplars", None)
    return meta, {
        "now": meta.sim.now,
        "events": meta.sim.events_processed,
        "messages": (meta.transport.messages_sent,
                     meta.transport.messages_lost,
                     meta.transport.retries),
        "requests": [r.to_dict()
                     for r in meta.service.gateway.requests.values()],
        "metrics": snapshot,
        "report": report.to_json(),
        "injected": chaos.injector.stats()["injected"],
    }


class TestTracingIsTransparent:
    def test_off_and_spans_runs_are_identical(self):
        """Tracing observes the run; it never changes it."""
        spans_meta, spans_run = _service_run("spans")
        off_meta, off_run = _service_run("off")
        # the workload is non-trivial and the modes really differ
        assert spans_run["requests"]
        assert sum(spans_run["injected"].values()) > 0
        assert len(spans_meta.spans) > 0 and len(off_meta.spans) == 0
        # the report's latency section comes from the gateway's request
        # records, so it is there with tracing off as well
        assert json.loads(spans_run["report"])["latency"]["count"] > 0
        for key in spans_run:
            assert spans_run[key] == off_run[key], key


class TestExemplars:
    def test_histogram_exemplar_records_active_trace_id(self):
        m = _tiny_meta()
        app = m.create_class(
            "A", [Implementation("sparc", "SunOS")], work_units=10.0)
        outcome = m.make_scheduler("random").run(
            [ObjectClassRequest(app, 1)])
        assert outcome.ok
        snapshot = build_snapshot(m.metrics)
        step = next(metric for metric in snapshot["metrics"]
                    if metric["name"] == "enactor_step_seconds")
        exemplars = [e for series in step["series"]
                     for e in series["exemplars"]]
        assert exemplars  # negotiation ran under the placement trace
        assert all(trace_id == "t000001"
                   for _bound, _value, trace_id in exemplars)
        # and the human report surfaces the trace id
        assert "t000001" in render_report(snapshot)

    def test_no_trace_open_means_no_exemplar(self):
        m = _tiny_meta()
        m.metrics.observe("loose_seconds", 0.25)
        snapshot = build_snapshot(m.metrics)
        loose = next(metric for metric in snapshot["metrics"]
                     if metric["name"] == "loose_seconds")
        assert all(trace_id is None
                   for series in loose["series"]
                   for _b, _v, trace_id in series["exemplars"])


# ---------------------------------------------------------------------------
# End-to-end placement trace shape
# ---------------------------------------------------------------------------
@pytest.fixture
def placed_meta():
    m = _tiny_meta()
    app = m.create_class(
        "A", [Implementation("sparc", "SunOS")], work_units=10.0)
    outcome = m.make_scheduler("random").run([ObjectClassRequest(app, 2)])
    assert outcome.ok
    return m


class TestPlacementTrace:
    def test_protocol_steps_appear_as_named_children(self, placed_meta):
        spans = placed_meta.spans
        root, = spans.trace_roots()
        assert root.name == "placement"
        assert root.status == "ok"
        assert root.attributes["ok"] is True
        names = {s.name for s in spans.spans}
        for expected in ("scheduler.compute", "collection.query",
                         "collection.serve", "enactor.negotiate",
                         "enactor.master", "enactor.reserve",
                         "host.reserve", "enactor.enact", "host.start"):
            assert expected in names, f"missing span {expected}"
        # every span belongs to the single placement trace
        assert {s.trace_id for s in spans.spans} == {root.trace_id}

    def test_parentage_follows_the_protocol(self, placed_meta):
        spans = placed_meta.spans
        by_id = {s.span_id: s for s in spans.spans}
        root, = spans.trace_roots()
        neg, = spans.find("enactor.negotiate")
        assert by_id[neg.parent_id].name == "placement"
        assert neg.attributes["step"] == "4-6"
        for grant in spans.find("host.reserve"):
            rpc = by_id[grant.parent_id]
            assert rpc.name.startswith("rpc:make_reservation")
            assert by_id[rpc.parent_id].name == "enactor.reserve"
        for start in spans.find("host.start"):
            assert by_id[start.parent_id].name == "rpc:create_instance"
        enact, = spans.find("enactor.enact")
        assert enact.attributes["step"] == "7-11"
        assert root.end is not None
        assert all(s.end is not None for s in spans.spans)

    def test_summary_and_reports_render(self, placed_meta):
        spans = placed_meta.spans.spans
        summary, = trace_summary(spans)
        assert summary["root"] == "placement"
        assert summary["spans"] == len(spans)
        assert summary["dominant_step"]
        tree = render_tree(spans)
        assert "placement" in tree and "enactor.negotiate" in tree
        table = render_step_table(spans)
        assert "enactor.reserve" in table
        report = render_critical_path_report(spans)
        assert "dominant step overall" in report


# ---------------------------------------------------------------------------
# critical path on a synthetic tree
# ---------------------------------------------------------------------------
def _synthetic_trace():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("root"):
        with tracer.span("fast"):
            clock.now = 1.0
        with tracer.span("slow"):
            clock.now = 2.0
            with tracer.span("leaf"):
                clock.now = 9.0
            clock.now = 10.0
    return tracer.spans


class TestCriticalPath:
    def test_descends_into_latest_ending_child(self):
        spans = _synthetic_trace()
        assert [s.name for s in critical_path(spans)] == [
            "root", "slow", "leaf"]

    def test_dominant_step_is_max_self_time_on_path(self):
        spans = _synthetic_trace()
        # leaf holds 7s of self time; slow only 1s; root 1s
        assert dominant_step(spans).name == "leaf"
        children = children_of(spans)
        leaf, = [s for s in spans if s.name == "leaf"]
        assert self_time(leaf, children) == 7.0

    def test_empty_input(self):
        assert critical_path([]) == []
        assert dominant_step([]) is None


# ---------------------------------------------------------------------------
# Chrome trace-event and JSONL exports
# ---------------------------------------------------------------------------
class TestChromeExport:
    def test_export_is_valid_and_loadable(self, placed_meta):
        text = chrome_trace_json(placed_meta.spans.spans, indent=2)
        obj = json.loads(text)
        assert validate_chrome_trace(obj) == []
        assert obj["displayTimeUnit"] == "ms"
        events = obj["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(placed_meta.spans.spans)
        meta_events = [e for e in events if e["ph"] == "M"]
        assert meta_events[0]["args"]["name"] == "placement t000001"
        # span events (net/invoke, enactor/...) ride along as instants
        assert any(e["ph"] == "i" for e in events)

    def test_span_args_carry_identity_and_status(self, placed_meta):
        obj = chrome_trace(placed_meta.spans.spans)
        root_event = next(e for e in obj["traceEvents"]
                          if e.get("name") == "placement")
        assert root_event["args"]["span_id"] == "s000001"
        assert root_event["args"]["parent_id"] == ""
        assert root_event["args"]["status"] == "ok"
        assert root_event["ts"] >= 0 and root_event["dur"] >= 0

    def test_partially_overlapping_siblings_get_distinct_lanes(self):
        # two siblings overlapping without containment cannot share a
        # Chrome thread row (complete events on one row must nest)
        from repro.obs import Span
        spans = [
            Span("t000001", "s000001", None, "root", 0.0, 10.0, seq=1),
            Span("t000001", "s000002", "s000001", "a", 0.0, 5.0, seq=2),
            Span("t000001", "s000003", "s000001", "b", 3.0, 8.0, seq=3),
        ]
        obj = chrome_trace(spans)
        lanes = {e["name"]: e["tid"] for e in obj["traceEvents"]
                 if e["ph"] == "X"}
        assert lanes["a"] != lanes["b"]
        # containment still shares the root's lane
        assert lanes["a"] == lanes["root"]

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        problems = validate_chrome_trace({"traceEvents": [
            {"pid": 1},                                     # missing ph
            {"ph": "X", "name": "a", "pid": 1, "tid": 1,
             "ts": 0.0},                                    # missing dur
            {"ph": "X", "name": "b", "pid": 1, "tid": 1,
             "ts": 0.0, "dur": -1.0},                       # negative dur
            {"ph": "i", "name": "c", "pid": 1, "tid": 1,
             "ts": "soon"},                                 # ts not number
        ]})
        assert len(problems) == 4

    def test_jsonl_round_trips(self, placed_meta):
        spans = placed_meta.spans.spans
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        records = [json.loads(line) for line in lines]
        assert [r["span_id"] for r in records] == [
            s.span_id for s in spans]
        assert records[0]["name"] == "placement"
        assert all(r["status"] == "ok" or r["status"] == "error"
                   for r in records)
        assert spans_to_jsonl([]) == ""
