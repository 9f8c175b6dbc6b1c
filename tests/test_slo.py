"""Unit tests for the SLO engine and health report (repro.obs.slo/report).

Covers spec validation and round-trip, per-window event extraction
(latency interpolation, ratio counters), error-budget accounting,
deterministic fast/slow burn alerts, the unified health report, the
Metasystem/testbed/chaos wiring, and degenerate span-trace inputs.
"""

import json

import pytest

from repro.obs import (
    MetricsSampler,
    SLOSpec,
    Window,
    build_health_report,
    default_legion_slos,
    evaluate_slo,
    health_report_to_json,
    render_health_report,
    specs_from_dict,
    specs_to_dict,
)
from repro.obs.report import SamplerLayer
from repro.obs.slo import _good_below_threshold


def counter_window(index, deltas, name="reqs_total", window=60.0):
    """A synthetic window with labeled counter deltas.

    ``deltas`` maps an ``ok`` label value to the windowed delta.
    """
    w = Window(index=index, start=index * window, end=(index + 1) * window)
    for ok, delta in sorted(deltas.items()):
        key = f'{name}{{ok="{ok}"}}'
        w.series[key] = {"name": name, "kind": "counter",
                         "labels": {"ok": ok}, "delta": float(delta),
                         "total": 0.0, "rate": float(delta) / window}
    return w


def latency_window(index, buckets, count, total, exemplars=(),
                   name="lat_seconds", window=60.0):
    w = Window(index=index, start=index * window, end=(index + 1) * window)
    w.series[name] = {"name": name, "kind": "histogram", "labels": {},
                      "count": count, "sum": total,
                      "buckets": [[b, d] for b, d in buckets],
                      "exemplars": list(exemplars)}
    return w


RATIO = SLOSpec(name="success", kind="ratio", target=0.9,
                good="reqs_total", good_labels={"ok": "true"},
                total="reqs_total")
LATENCY = SLOSpec(name="fast", kind="latency", target=0.9,
                  metric="lat_seconds", threshold=1.0)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="availability", target=0.9)

    def test_target_out_of_range(self):
        for target in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                SLOSpec(name="x", kind="ratio", target=target, good="g",
                        total="t")

    def test_latency_needs_metric_and_threshold(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", target=0.9)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", target=0.9, metric="m")

    def test_ratio_needs_good_and_total_or_bad(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="ratio", target=0.9)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="ratio", target=0.9, good="g")

    def test_round_trip_through_dict(self):
        specs = default_legion_slos() + [
            SLOSpec(name="custom", kind="latency", target=0.5,
                    metric="m", threshold=2.0, labels={"ok": "true"},
                    fast_burn=10.0, slow_windows=3)]
        doc = specs_to_dict(specs)
        json.dumps(doc)  # JSON-safe
        assert specs_from_dict(doc) == specs

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SLOSpec.from_dict({"name": "x", "kind": "ratio",
                               "target": 0.9, "good": "g", "total": "t",
                               "objective": "typo"})

    def test_specs_from_dict_needs_slos_list(self):
        with pytest.raises(ValueError):
            specs_from_dict({})
        with pytest.raises(ValueError):
            specs_from_dict({"slos": []})


class TestGoodBelowThreshold:
    def row(self, buckets):
        return {"buckets": buckets}

    def test_whole_buckets_below_threshold_count_fully(self):
        row = self.row([["1.0", 4], ["2.0", 2], ["+Inf", 1]])
        assert _good_below_threshold(row, 2.0) == pytest.approx(6.0)

    def test_interpolates_inside_containing_bucket(self):
        row = self.row([["1.0", 0], ["3.0", 4], ["+Inf", 0]])
        # threshold 2.0 sits halfway through (1.0, 3.0] -> half the delta
        assert _good_below_threshold(row, 2.0) == pytest.approx(2.0)

    def test_overflow_bucket_is_never_good(self):
        row = self.row([["1.0", 1], ["+Inf", 5]])
        assert _good_below_threshold(row, 100.0) == pytest.approx(1.0)


class TestBudgetAccounting:
    def test_all_good_consumes_nothing(self):
        windows = [counter_window(i, {"true": 10}) for i in range(5)]
        result = evaluate_slo(RATIO, windows)
        assert result.total == 50
        assert result.budget_consumed == 0.0
        assert not result.exhausted
        assert result.compliance == 1.0
        assert result.minutes_lost == 0.0

    def test_budget_math(self):
        # 100 events, target 0.9 -> 10 allowed bad; 5 bad = half consumed
        windows = [counter_window(0, {"true": 95, "false": 5})]
        result = evaluate_slo(RATIO, windows)
        assert result.allowed_bad == pytest.approx(10.0)
        assert result.budget_consumed == pytest.approx(0.5)
        assert result.budget_remaining == pytest.approx(0.5)
        assert not result.exhausted

    def test_exhaustion_and_minutes_lost(self):
        windows = [counter_window(0, {"true": 5, "false": 5}),
                   counter_window(1, {"true": 10})]
        result = evaluate_slo(RATIO, windows)
        assert result.exhausted
        # only the first (breached) window contributes lost minutes
        assert result.minutes_lost == pytest.approx(1.0)
        assert result.breached_windows == 1

    def test_no_events_is_vacuously_healthy(self):
        result = evaluate_slo(RATIO, [counter_window(0, {})])
        assert result.total == 0
        assert result.compliance == 1.0
        assert not result.exhausted

    def test_latency_objective_counts_interpolated_good(self):
        windows = [latency_window(0, [["1.0", 8], ["+Inf", 2]], 10, 12.0,
                                  exemplars=["t9"])]
        result = evaluate_slo(LATENCY, windows)
        assert result.good == pytest.approx(8.0)
        assert result.bad == pytest.approx(2.0)
        assert result.verdicts[0].breached
        assert result.breached_exemplars() == ["t9"]


class TestBurnAlerts:
    def test_fast_burn_fires_at_window_end(self):
        # burn = (bad/total)/0.1 ; 3 bad of 10 -> burn 3.0 ; fast at 2.0
        spec = SLOSpec(name="s", kind="ratio", target=0.9,
                       good="reqs_total", good_labels={"ok": "true"},
                       total="reqs_total", fast_burn=2.0, slow_burn=99.0)
        windows = [counter_window(0, {"true": 10}),
                   counter_window(1, {"true": 7, "false": 3})]
        result = evaluate_slo(spec, windows)
        assert [a.severity for a in result.alerts] == ["fast"]
        alert = result.alerts[0]
        assert alert.window_index == 1
        assert alert.fired_at == pytest.approx(120.0)
        assert alert.burn_rate == pytest.approx(3.0)

    def test_slow_burn_aggregates_trailing_windows(self):
        # each window burns at 2.0 (< fast 14.4); the 2-window trailing
        # aggregate also burns at 2.0 >= slow_burn -> ticket alert
        spec = SLOSpec(name="s", kind="ratio", target=0.9,
                       good="reqs_total", good_labels={"ok": "true"},
                       total="reqs_total", slow_burn=2.0, slow_windows=2)
        windows = [counter_window(i, {"true": 8, "false": 2})
                   for i in range(3)]
        result = evaluate_slo(spec, windows)
        slow = [a for a in result.alerts if a.severity == "slow"]
        assert [a.window_index for a in slow] == [0, 1, 2]

    def test_deterministic_alert_stream(self):
        windows = [counter_window(i, {"true": 5, "false": 5})
                   for i in range(4)]
        a = evaluate_slo(RATIO, windows)
        b = evaluate_slo(RATIO, windows)
        assert [x.to_dict() for x in a.alerts] == \
               [x.to_dict() for x in b.alerts]


class TestHealthReport:
    def sampler_with_history(self):
        from repro.obs import MetricsRegistry
        from repro.sim.kernel import Simulator
        sim = Simulator()
        reg = MetricsRegistry(clock=lambda: sim.now)
        sampler = MetricsSampler(sim, reg, window=60.0).start()
        reg.count("reqs_total", n=19, ok="true")
        reg.count("reqs_total", n=1, ok="false")
        sim.run_until(120.0)
        return sampler

    def test_report_shape_and_byte_stability(self):
        spec = SLOSpec(name="success", kind="ratio", target=0.9,
                       good="reqs_total", good_labels={"ok": "true"},
                       total="reqs_total")
        report = build_health_report(self.sampler_with_history(), [spec])
        assert report["sampler"]["windows"] == 2
        assert report["healthy"]
        assert report["slos"][0]["spec"]["name"] == "success"
        text = health_report_to_json(report)
        report2 = build_health_report(self.sampler_with_history(), [spec])
        assert health_report_to_json(report2) == text
        assert json.loads(text) == report

    def test_render_mentions_key_sections(self):
        spec = SLOSpec(name="success", kind="ratio", target=0.9,
                       good="reqs_total", good_labels={"ok": "true"},
                       total="reqs_total")
        text = render_health_report(
            build_health_report(self.sampler_with_history(), [spec]))
        assert "slo success" in text
        assert "overall: HEALTHY" in text
        assert "budget" in text


class TestMetasystemWiring:
    def test_sampler_knob_arms_and_is_exclusive(self):
        from repro.errors import LegionError
        from repro.metasystem import Metasystem
        meta = Metasystem(seed=0)
        layer = meta.install(SamplerLayer(15.0))
        assert meta.sampler is layer
        assert layer.sampler.window == 15.0
        with pytest.raises(LegionError):
            meta.install(SamplerLayer())

    def test_sampler_off_by_default_and_report_requires_it(self):
        from repro.metasystem import Metasystem
        meta = Metasystem(seed=0)
        assert meta.sampler is None
        with pytest.raises(AttributeError):
            meta.sampler.health_report()

    def test_testbed_spec_arms_sampler(self):
        from repro.workload.testbed import TestbedSpec, build_testbed
        meta = build_testbed(TestbedSpec(layers=[SamplerLayer(20.0)]))
        meta.sim.run_until(60.0)
        report = meta.sampler.health_report(include_windows=False)
        assert report["healthy"]

    def test_campaign_slo_summary_is_conditional(self):
        from repro.scenario import chaos, run_scenario
        with_slo = run_scenario(chaos(chaos_profile="hosts", chaos_seed=1,
                                      seed=0, waves=3, include_events=False,
                                      sampler_window=30.0))
        assert with_slo.slo and "slo" in with_slo.to_dict()
        assert with_slo.slo["windows"] > 0
        without = run_scenario(chaos(chaos_profile="hosts", chaos_seed=1,
                                     seed=0, waves=3, include_events=False))
        assert not without.slo
        assert "slo" not in without.to_dict()

    def test_guardrails_comparison_gains_slo_benefit(self):
        from repro.scenario import campaign
        cmp = campaign(comparison="guardrails", chaos_profile="hosts",
                       chaos_seed=1, seed=0, waves=4, sampler_window=30.0)
        assert cmp.has_slo
        doc = cmp.to_dict()
        assert "slo_minutes_saved" in doc["benefit"]
        assert "slo minutes lost" in cmp.summary()
        plain = campaign(comparison="guardrails", chaos_profile="hosts",
                         chaos_seed=1, seed=0, waves=4)
        assert not plain.has_slo
        assert "slo_minutes_saved" not in plain.to_dict()["benefit"]


class TestDegenerateTraces:
    """Empty, single-span, and zero-duration traces flow through every
    trace analysis without crashing or corrupting output."""

    def make_span(self, **overrides):
        from repro.obs import Span
        fields = dict(trace_id="t1", span_id="s1", parent_id=None,
                      name="solo", start=5.0, end=5.0, status="ok")
        fields.update(overrides)
        return Span(**fields)

    def test_empty_span_list(self):
        from repro.obs import (
            aggregate_step_latencies,
            chrome_trace,
            critical_path,
            trace_summary,
            validate_chrome_trace,
        )
        assert critical_path([]) == []
        assert trace_summary([]) == []
        assert aggregate_step_latencies([]) == []
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert validate_chrome_trace(doc) == []

    def test_single_zero_duration_span(self):
        from repro.obs import (
            aggregate_step_latencies,
            chrome_trace,
            critical_path,
            trace_summary,
            validate_chrome_trace,
        )
        span = self.make_span()
        assert [s.span_id for s in critical_path([span])] == ["s1"]
        summary = trace_summary([span])
        assert summary[0]["duration"] == 0.0
        assert summary[0]["spans"] == 1
        rows = aggregate_step_latencies([span])
        assert rows[0]["count"] == 1
        assert rows[0]["mean"] == 0.0
        doc = chrome_trace([span])
        assert validate_chrome_trace(doc) == []

    def test_zero_duration_children(self):
        from repro.obs import (
            aggregate_step_latencies,
            chrome_trace,
            trace_summary,
            validate_chrome_trace,
        )
        root = self.make_span(span_id="root", name="placement",
                              start=0.0, end=2.0)
        kids = [self.make_span(span_id=f"k{i}", parent_id="root",
                               name="step", start=1.0, end=1.0)
                for i in range(3)]
        spans = [root] + kids
        summary = trace_summary(spans)
        assert summary[0]["spans"] == 4
        rows = {r["step"]: r for r in aggregate_step_latencies(spans)}
        assert rows["step"]["count"] == 3
        assert rows["step"]["max"] == 0.0
        assert rows["placement"]["self"] == pytest.approx(2.0)
        assert validate_chrome_trace(chrome_trace(spans)) == []

    def test_open_span_renders_without_end(self):
        from repro.obs import aggregate_step_latencies, trace_summary
        span = self.make_span(end=None, status="unset")
        assert trace_summary([span])[0]["duration"] == 0.0
        assert aggregate_step_latencies([span])[0]["max"] == 0.0
