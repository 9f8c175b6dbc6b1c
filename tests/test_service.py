"""Tests for the live service tier: gateway, placement queue, worker
pool, traffic generator, and the serve campaign/CLI.

The backpressure-correctness pins from the service design:

* the bounded queue never exceeds its cap (hypothesis property);
* shed/rejected requests are *counted, not lost* — ``status`` answers
  for them forever and every submit lands in exactly one terminal or
  live state;
* a saturated→drained campaign cycle serializes byte-identically
  across reruns of the same seed.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionRejected, LegionError
from repro.scenario import campaign, run_scenario, service
from repro.service import (
    PlacementQueue,
    ServiceConfig,
    ServiceLayer,
    TrafficModel,
)
from repro.service.gateway import ServiceAdmission
from repro.service.request import ServiceRequest, TERMINAL_STATES
from repro.tools import main
from repro.workload.testbed import TestbedSpec, build_testbed


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def make_request(i, priority=0):
    return ServiceRequest(f"r{i:04d}", user="u", priority=priority)


def build_service(seed=0, **cfg):
    """A small testbed with the service tier started."""
    meta = build_testbed(TestbedSpec(
        seed=seed, n_domains=1, hosts_per_domain=3, platform_mix=2,
        background_load_mean=0.2))
    suite = meta.install(ServiceLayer(ServiceConfig(**cfg)))
    return meta, suite


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.shedding_enabled
        assert config.backpressure == "shed"

    def test_unbounded_disables_shedding(self):
        assert not ServiceConfig(queue_cap=0).shedding_enabled

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"queue_cap": -1},
        {"backpressure": "drop"},
        {"defer_delay": 0.0},
        {"max_attempts": 0},
        {"work": -1.0},
        {"load_limit": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestPlacementQueue:
    def test_priority_then_fifo_order(self):
        q = PlacementQueue(cap=0)
        a, b, c, d = (make_request(0, 0), make_request(1, 2),
                      make_request(2, 2), make_request(3, 1))
        for r in (a, b, c, d):
            assert q.offer(r) == "enqueued"
        assert [q.pop() for _ in range(4)] == [b, c, d, a]

    def test_shed_at_cap(self):
        q = PlacementQueue(cap=2, backpressure="shed")
        assert q.offer(make_request(0)) == "enqueued"
        assert q.offer(make_request(1)) == "enqueued"
        assert q.offer(make_request(2)) == "shed"
        assert q.depth == 2 and q.shed == 1

    def test_reject_at_cap(self):
        q = PlacementQueue(cap=1, backpressure="reject")
        q.offer(make_request(0))
        assert q.offer(make_request(1)) == "rejected"

    def test_defer_downgrades_to_shed_when_final(self):
        q = PlacementQueue(cap=1, backpressure="defer")
        q.offer(make_request(0))
        assert q.offer(make_request(1)) == "deferred"
        assert q.offer(make_request(2), final=True) == "shed"

    def test_cancel_is_lazy_and_skipped_by_pop(self):
        q = PlacementQueue(cap=0)
        a, b = make_request(0), make_request(1)
        q.offer(a)
        q.offer(b)
        assert q.cancel(a.request_id)
        assert not q.cancel(a.request_id)  # only once
        assert q.depth == 1
        assert q.pop() is b
        assert q.pop() is None

    def test_pop_frees_a_slot(self):
        q = PlacementQueue(cap=1)
        q.offer(make_request(0))
        assert q.full
        q.pop()
        assert q.offer(make_request(1)) == "enqueued"

    @given(cap=st.integers(min_value=1, max_value=6),
           mode=st.sampled_from(["shed", "reject", "defer"]),
           ops=st.lists(st.tuples(
               st.sampled_from(["offer", "pop", "cancel"]),
               st.integers(min_value=0, max_value=3)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_ops(self, cap, mode, ops):
        """depth <= cap always; every offer accounted for exactly once."""
        q = PlacementQueue(cap=cap, backpressure=mode)
        n = 0
        live = []  # enqueued, not yet popped or cancelled
        for op, x in ops:
            if op == "offer":
                r = make_request(n, priority=x)
                n += 1
                if q.offer(r) == "enqueued":
                    live.append(r.request_id)
            elif op == "pop":
                r = q.pop()
                if r is None:
                    assert not live
                else:
                    live.remove(r.request_id)
            elif live:
                target = live[x % len(live)]
                assert q.cancel(target)
                live.remove(target)
            else:
                assert not q.cancel(f"junk-{x}")
            assert q.depth <= cap
            assert q.depth == len(live)
            assert q.peak_depth <= cap
            assert q.enqueued == q.popped + q.cancelled + q.depth
            assert q.offered == (q.enqueued + q.shed + q.rejected
                                 + q.deferred)


class TestGatewayBackpressure:
    def test_shed_requests_are_counted_not_lost(self):
        meta, suite = build_service(queue_cap=2, backpressure="shed")
        suite.pool.stop()  # keep the backlog saturated
        results = [suite.gateway.submit(user=f"u{i}") for i in range(5)]
        assert [r.state for r in results] == ["queued", "queued",
                                              "shed", "shed", "shed"]
        # every submission still answers on the status route
        for r in results:
            status = suite.gateway.status(r.request_id)
            assert status.ok
            assert status.snapshot["request_id"] == r.request_id
        shed = suite.gateway.status(results[-1].request_id)
        assert shed.state == "shed"
        health = suite.gateway.health()
        assert health["submitted"] == 5
        assert health["requests_by_state"] == {"queued": 2, "shed": 3}
        assert health["queue"]["shed"] == 3

    def test_reject_mode(self):
        meta, suite = build_service(queue_cap=1, backpressure="reject")
        suite.pool.stop()
        suite.gateway.submit(user="a")
        result = suite.gateway.submit(user="b")
        assert not result.ok and result.state == "rejected"

    def test_defer_reoffers_then_sheds_after_max_defers(self):
        meta, suite = build_service(queue_cap=1, backpressure="defer",
                                    defer_delay=5.0, max_defers=2)
        suite.pool.stop()
        suite.gateway.submit(user="a")  # fills the backlog
        result = suite.gateway.submit(user="b")
        assert result.ok and result.state == "deferred"
        request = suite.gateway.requests[result.request_id]
        meta.advance(4.0)  # before the first re-offer
        assert request.state == "deferred" and request.defers == 1
        meta.advance(20.0)  # re-offer twice against a still-full backlog
        assert request.state == "shed"
        assert "after 2 defers" in request.detail

    def test_deferred_request_enqueues_when_space_frees(self):
        meta, suite = build_service(queue_cap=1, backpressure="defer",
                                    defer_delay=5.0, max_defers=3)
        suite.pool.stop()
        first = suite.gateway.submit(user="a")
        second = suite.gateway.submit(user="b")
        assert second.state == "deferred"
        suite.gateway.cancel(first.request_id)  # frees the only slot
        meta.advance(6.0)
        assert suite.gateway.requests[second.request_id].state == "queued"

    def test_cancel_semantics(self):
        meta, suite = build_service(queue_cap=4)
        suite.pool.stop()
        r = suite.gateway.submit(user="a")
        cancelled = suite.gateway.cancel(r.request_id)
        assert cancelled.ok and cancelled.state == "cancelled"
        again = suite.gateway.cancel(r.request_id)
        assert not again.ok and "not cancellable" in again.detail
        unknown = suite.gateway.cancel("req-999999")
        assert not unknown.ok and unknown.detail == "unknown request"
        assert suite.queue.pop() is None  # cancelled entry skipped

    def test_status_unknown_request(self):
        meta, suite = build_service()
        result = suite.gateway.status("nope")
        assert not result.ok and result.detail == "unknown request"

    def test_front_door_admission_rejects_on_load(self):
        meta, suite = build_service(load_limit=0.001)
        result = suite.gateway.submit(user="a")
        assert not result.ok and result.state == "rejected"
        assert suite.gateway.admission.rejections == 1
        assert "exceeds limit" in result.detail

    def test_admission_raises_like_guardrails(self):
        admission = ServiceAdmission(load_limit=0.001)

        class FakeHost:
            class machine:
                load_average = 5.0

        with pytest.raises(AdmissionRejected):
            admission.check([FakeHost()], now=0.0)

    def test_request_ids_minted_in_submit_order(self):
        meta, suite = build_service()
        suite.pool.stop()
        ids = [suite.gateway.submit(user="u").request_id
               for _ in range(3)]
        assert ids == ["req-000000", "req-000001", "req-000002"]


class TestWorkerPool:
    def test_workers_drain_queue_into_placements(self):
        meta, suite = build_service(workers=2, queue_cap=8)
        results = [suite.gateway.submit(user=f"u{i}") for i in range(4)]
        meta.advance(60.0)
        states = [suite.gateway.requests[r.request_id].state
                  for r in results]
        assert states == ["placed"] * 4
        assert suite.pool.placed == 4
        placed = suite.gateway.requests[results[0].request_id]
        assert placed.worker in (0, 1)
        assert placed.created  # instance LOIDs recorded
        assert placed.e2e_latency > 0

    def test_request_spans_recorded(self):
        meta, suite = build_service(workers=1, queue_cap=4)
        suite.gateway.submit(user="u")
        meta.advance(30.0)
        names = [s.name for s in meta.spans.spans]
        assert "service.request" in names
        assert "service.worker" in names

    def test_metrics_registered(self):
        meta, suite = build_service()
        suite.gateway.submit(user="u")
        meta.advance(30.0)
        names = set(meta.metrics.names())
        for name in ("service_requests_total",
                     "service_request_outcomes_total",
                     "service_e2e_seconds", "service_queue_depth",
                     "service_workers_busy"):
            assert name in names, name


class TestMetasystemWiring:
    def test_second_service_install_raises(self):
        meta, suite = build_service()
        with pytest.raises(LegionError):
            meta.install(ServiceLayer())
        assert meta.service is suite

    def test_testbed_spec_service_knob(self):
        meta = build_testbed(TestbedSpec(
            n_domains=1, hosts_per_domain=2, platform_mix=1,
            layers=[ServiceLayer(ServiceConfig(workers=1, queue_cap=4))]))
        assert meta.service.config.workers == 1

    def test_testbed_spec_service_true_uses_defaults(self):
        meta = build_testbed(TestbedSpec(
            n_domains=1, hosts_per_domain=2, platform_mix=1,
            layers=[ServiceLayer()]))
        assert meta.service.config == ServiceConfig()


class TestTrafficModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(users=0)
        with pytest.raises(ValueError):
            TrafficModel(diurnal_amplitude=1.5)

    def test_peak_rate_bounds_rate(self):
        model = TrafficModel(users=1000, requests_per_user_hour=3.6,
                             surge_start=100.0, surge_length=50.0,
                             surge_multiplier=5.0)
        peak = model.peak_rate
        for t in (0.0, 60.0, 120.0, 250.0, 86000.0):
            assert model.rate(t, bursting=True) <= peak + 1e-12


CAMPAIGN_KWARGS = dict(
    seed=11, users=2000, duration=30.0, workers=2, queue_cap=8,
    requests_per_user_hour=3.6, surge_multiplier=8.0,
    n_domains=1, hosts_per_domain=4, platform_mix=2, host_slots=8,
    drain_time=300.0)


class TestServiceCampaign:
    def test_small_campaign_places_and_accounts_for_everything(self):
        report = run_scenario(service(**CAMPAIGN_KWARGS))
        assert report.placed > 0
        by_state = report.requests["by_state"]
        assert sum(by_state.values()) == report.requests["submitted"]
        assert set(by_state) <= TERMINAL_STATES  # fully drained
        assert report.pending == 0
        assert report.latency["count"] == report.placed
        assert report.slo is not None

    def test_saturated_drained_cycle_is_byte_identical(self):
        first = run_scenario(service(**CAMPAIGN_KWARGS))
        second = run_scenario(service(**CAMPAIGN_KWARGS))
        assert first.queue["peak_depth"] == CAMPAIGN_KWARGS["queue_cap"]
        assert first.shed > 0  # the surge saturated the backlog
        assert first.to_json() == second.to_json()

    def test_comparison_requires_bounded_cap(self):
        with pytest.raises(ValueError):
            campaign(comparison="shedding", queue_cap=0)


class TestServeCLI:
    def test_serve_smoke(self):
        code, text = run_cli(
            "serve", "--seed", "11", "--users", "2000", "--duration",
            "30", "--workers", "2", "--queue-cap", "8", "--rate", "3.6",
            "--surge", "8", "--domains", "1", "--hosts", "4",
            "--platforms", "2", "--slo-threshold", "60")
        assert code == 0
        assert "service campaign:" in text
        assert "outcomes:" in text

    def test_serve_writes_report(self, tmp_path):
        out_file = tmp_path / "service.json"
        code, text = run_cli(
            "serve", "--seed", "11", "--users", "2000", "--duration",
            "30", "--workers", "2", "--queue-cap", "8", "--rate", "3.6",
            "--surge", "8", "--domains", "1", "--hosts", "4",
            "--platforms", "2", "--slo-threshold", "60",
            "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        assert '"p99_within_slo"' in out_file.read_text()

    def test_serve_rejects_bad_backpressure(self):
        with pytest.raises(SystemExit):
            run_cli("serve", "--backpressure", "drop")
