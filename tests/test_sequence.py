"""Tests for the trace-to-sequence-diagram renderer."""

from contextlib import nullcontext

import pytest

from repro.bench import protocol_trace, render_sequence
from repro.obs import SpanTracer


def rec(src, dst, label, rtt=0.001, t=0.0):
    """A ``net/invoke`` span event, as the transport records it."""
    return (t, "net", "invoke",
            {"src": src, "dst": dst, "label": label, "rtt": rtt})


class TestRenderSequence:
    def test_empty(self):
        assert "no invocations" in render_sequence([])

    def test_parties_in_first_appearance_order(self):
        out = render_sequence([rec("a/x", "b/y", "ping"),
                               rec("b/y", "c/z", "pong")])
        header = out.splitlines()[0]
        assert header.index("a/x") < header.index("b/y") < header.index(
            "c/z")

    def test_arrow_direction(self):
        out = render_sequence([rec("a/x", "b/y", "go")])
        assert ">" in out
        back = render_sequence([rec("a/x", "b/y", "go"),
                                rec("b/y", "a/x", "back")])
        assert "<" in back

    def test_label_and_rtt_present(self):
        out = render_sequence([rec("a/x", "b/y", "make_reservation")],
                              column_width=40)
        assert "make_reservation" in out
        assert "ms)" in out

    def test_none_src_renders_client(self):
        out = render_sequence([rec("None", "b/y", "call")])
        assert "client" in out.splitlines()[0]

    def test_long_label_truncated_not_crashed(self):
        out = render_sequence(
            [rec("a/x", "b/y", "a-very-long-label-indeed-it-is")],
            column_width=10)
        assert "~" in out  # ellipsis marker

    def test_self_call(self):
        out = render_sequence([rec("a/x", "a/x", "local")])
        assert "local" in out

    def test_non_invoke_records_ignored(self):
        spans = SpanTracer()
        with spans.span("root"):
            spans.event("net", "transfer", src="a", dst="b")
        assert "no invocations" in protocol_trace(spans)

    def test_protocol_trace_since_and_limit(self):
        now = [0.0]
        spans = SpanTracer(lambda: now[0])
        with spans.span("root"):
            for i in range(5):
                now[0] = float(i)
                # odd invokes land one span deeper, so span creation
                # order differs from virtual-time order
                with (spans.span("inner") if i % 2 else nullcontext()):
                    spans.event("net", "invoke", src="a/x", dst="b/y",
                                label=f"m{i}", rtt=0.001)
        out = protocol_trace(spans, since=2.0, limit=2)
        assert "m2" in out and "m3" in out
        assert "m0" not in out and "m4" not in out


class TestEndToEnd:
    def test_real_protocol_renders(self, meta, app_class):
        from repro import ObjectClassRequest
        meta.place_collection("uva")
        sched = meta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app_class, 2)])
        assert outcome.ok
        diagram = protocol_trace(meta.spans)
        assert "QueryCollection" in diagram or "create" in diagram
        assert "collection-svc" in diagram.splitlines()[0]

    def test_cli_trace_flag(self):
        import io
        from repro.tools import main
        out = io.StringIO()
        code = main(["run", "--count", "2", "--load", "0",
                     "--trace", "5"], out=out)
        assert code == 0
        # with no placed services the trace may be sparse but must render
        assert ("create_instance" in out.getvalue()
                or "no invocations" in out.getvalue())
