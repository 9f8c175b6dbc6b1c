"""Tests for the chaos subsystem: faults, plans, injector, retry, reports."""

import json
import math
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Metasystem
from repro.chaos import (
    ChaosInjector,
    ChaosLayer,
    ChaosPlan,
    FaultEvent,
    RetryLayer,
    RetryPolicy,
    generate_campaign,
)
from repro.chaos.faults import (
    DomainPartition,
    FederationShardOutage,
    HostCrash,
    LatencySpike,
    LoadSurge,
    MessageLossSpike,
    make_fault,
)
from repro.chaos.plan import PROFILES, CampaignConfig, FaultClassConfig
from repro.errors import (
    ChaosError,
    HostUnreachableError,
    LegionError,
    MessageLostError,
)
from repro.hosts import MachineSpec, SimJob
from repro.scenario import chaos, run_scenario
from repro.tools.cli import main as cli_main
from repro.workload import build_testbed
from repro.workload.testbed import TestbedSpec


def two_domain_meta(seed=0):
    """Two domains x two static hosts — small and fully deterministic."""
    m = Metasystem(seed=seed)
    for d in ("east", "west"):
        m.add_domain(d)
        for i in range(2):
            m.add_unix_host(f"{d}-ws{i}", d,
                            MachineSpec(arch="sparc", os_name="SunOS"),
                            slots=4)
    m.add_vault("east", name="east-vault")
    return m


class TestSatelliteFailurePrimitives:
    """Satellite (a): idempotent fail/recover, Topology.clear_faults."""

    def test_machine_fail_is_idempotent(self, meta):
        machine = meta.host_by_name("ws0").machine
        machine.start_job(SimJob(100.0, 1.0))
        lost = machine.fail()
        assert len(lost) == 1 and not machine.up
        assert machine.failures == 1
        # a second fail is a no-op: no double-counted lost jobs
        assert machine.fail() == []
        assert machine.failures == 1

    def test_machine_recover_is_idempotent(self, meta):
        machine = meta.host_by_name("ws0").machine
        machine.fail()
        machine.recover()
        assert machine.up
        machine.recover()  # no-op, no error
        assert machine.up

    def test_topology_clear_faults(self, meta_two=None):
        meta = two_domain_meta()
        meta.topology.partition("east", "west")
        loc = meta.host_by_name("east-ws0").machine.location
        meta.topology.set_node_down(loc, True)
        assert meta.topology.partitions() == [("east", "west")]
        assert meta.topology.down_nodes() == [loc]
        assert meta.topology.clear_faults() == 2
        assert meta.topology.partitions() == []
        assert meta.topology.down_nodes() == []
        assert meta.topology.clear_faults() == 0

    def test_loss_timeout_factor_is_named(self, meta):
        from repro.net.transport import Transport
        assert Transport.LOSS_TIMEOUT_FACTOR == 4.0
        assert meta.transport.loss_timeout_factor == 4.0

    def test_error_retryability_classification(self):
        assert MessageLostError("x").retryable
        assert not HostUnreachableError("x").retryable
        assert not LegionError("x").retryable


class TestFaults:
    def test_host_crash_apply_and_revert(self, meta):
        machine = meta.host_by_name("ws1").machine
        machine.start_job(SimJob(50.0, 1.0))
        fault = HostCrash(target="ws1")
        fault.apply(meta)
        assert not machine.up
        assert not meta.topology.node_up(machine.location)
        assert fault.info["lost_jobs"] == 1
        assert fault.info["lost_work"] == pytest.approx(50.0)
        fault.revert(meta)
        assert machine.up
        assert meta.topology.node_up(machine.location)

    def test_crashing_a_down_host_is_an_error(self, meta):
        meta.host_by_name("ws1").machine.fail()
        with pytest.raises(ChaosError):
            HostCrash(target="ws1").apply(meta)

    def test_double_apply_and_unapplied_revert_raise(self, meta):
        fault = HostCrash(target="ws0")
        with pytest.raises(ChaosError):
            fault.revert(meta)
        fault.apply(meta)
        with pytest.raises(ChaosError):
            fault.apply(meta)

    def test_unknown_host_raises(self, meta):
        with pytest.raises(ChaosError):
            HostCrash(target="no-such-host").apply(meta)

    def test_domain_partition_round_trip(self):
        meta = two_domain_meta()
        fault = DomainPartition(target="east|west")
        fault.apply(meta)
        assert meta.topology.partitions() == [("east", "west")]
        with pytest.raises(ChaosError):
            DomainPartition(target="west|east").apply(meta)
        fault.revert(meta)
        assert meta.topology.partitions() == []

    def test_loss_spikes_compose_as_max(self, meta):
        t = meta.transport
        a, b = MessageLossSpike(magnitude=0.5), MessageLossSpike(
            magnitude=0.3)
        a.apply(meta)
        b.apply(meta)
        assert t.effective_loss_probability() == pytest.approx(0.5)
        a.revert(meta)  # revert in apply order: survivor still active
        assert t.effective_loss_probability() == pytest.approx(0.3)
        b.revert(meta)
        assert t.effective_loss_probability() == t.loss_probability

    def test_latency_factors_compose_as_product(self, meta):
        t = meta.transport
        LatencySpike(magnitude=2.0).apply(meta)
        LatencySpike(magnitude=3.0).apply(meta)
        assert t._latency_factors == [2.0, 3.0]
        with pytest.raises(ChaosError):
            LatencySpike(magnitude=0.5).apply(meta)

    def test_load_surge_round_trip(self, meta):
        machine = meta.host_by_name("ws2").machine
        before = machine.background_load
        fault = LoadSurge(target="ws2", magnitude=3.0)
        fault.apply(meta)
        assert machine.background_load == pytest.approx(before + 3.0)
        fault.revert(meta)
        assert machine.background_load == pytest.approx(before)
        with pytest.raises(ChaosError):
            LoadSurge(target="ws2", magnitude=0.0).apply(meta)

    def test_shard_outage_requires_federation(self, meta):
        with pytest.raises(ChaosError):
            FederationShardOutage(target="shard0").apply(meta)

    def test_shard_outage_federated(self):
        meta = build_testbed(TestbedSpec(
            n_domains=2, hosts_per_domain=2, background_load_mean=0.0,
            federation_shards=3))
        shard_id = sorted(s.shard_id for s in meta.collection_shards)[0]
        fault = make_fault("shard_outage", shard_id)
        fault.apply(meta)
        assert shard_id not in meta.collection.healthy_shards()
        fault.revert(meta)
        assert shard_id in meta.collection.healthy_shards()

    def test_make_fault_rejects_unknown_kind(self):
        with pytest.raises(ChaosError):
            make_fault("disk_melt")


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0,
                             max_delay=5.0, jitter=0.0)
        assert [policy.backoff(a) for a in (1, 2, 3, 4)] == [
            1.0, 2.0, 4.0, 5.0]

    def test_next_delay_gives_up_correctly(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.0, deadline=100.0)
        lost = MessageLostError("x")
        assert policy.next_delay(lost, 1, 0.0) is not None
        assert policy.next_delay(lost, 3, 0.0) is None  # attempt cap
        assert policy.next_delay(lost, 1, 100.0) is None  # deadline
        assert policy.next_delay(HostUnreachableError("x"), 1, 0.0) is None
        assert policy.next_delay(ValueError("x"), 1, 0.0) is None

    def test_retry_unreachable_knob(self):
        policy = RetryPolicy(retry_unreachable=True, jitter=0.0)
        assert policy.next_delay(HostUnreachableError("x"), 1, 0.0) \
            is not None

    def test_jitter_is_seeded_and_bounded(self, meta):
        rng = meta.rngs.stream("test", "jitter")
        policy = RetryPolicy(base_delay=1.0, jitter=0.5, rng=rng)
        delays = [policy.backoff(1) for _ in range(20)]
        assert all(0.5 <= d <= 1.5 for d in delays)
        assert len(set(delays)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_transport_retries_idempotent_calls(self, meta):
        host = meta.hosts[0]
        meta.install(RetryLayer(RetryPolicy(max_attempts=5, base_delay=0.1,
                                            jitter=0.0)))
        meta.transport.push_loss_spike(1.0)  # every message is lost
        with pytest.raises(MessageLostError):
            meta.transport.invoke(None, host.location, lambda: 42,
                                  label="probe", idempotent=True)
        assert meta.transport.retries == 4  # max_attempts - 1
        # non-idempotent calls are never retried
        with pytest.raises(MessageLostError):
            meta.transport.invoke(None, host.location, lambda: 42,
                                  label="probe")
        assert meta.transport.retries == 4

    def test_transport_retry_recovers_after_spike_clears(self, meta):
        meta.install(RetryLayer(RetryPolicy(max_attempts=10, base_delay=5.0,
                                            jitter=0.0)))
        host = meta.hosts[0]
        meta.transport.push_loss_spike(1.0)
        meta.sim.schedule(12.0,
                          lambda: meta.transport.pop_loss_spike(1.0))
        value = meta.transport.invoke(None, host.location, lambda: 42,
                                      label="probe", idempotent=True)
        assert value == 42
        assert meta.transport.retries >= 1


class TestPlansAndCampaigns:
    def test_plan_sorts_and_derives_horizon(self):
        plan = ChaosPlan(events=[
            FaultEvent(at=50.0, kind="host_crash", target="b",
                       duration=20.0),
            FaultEvent(at=10.0, kind="host_crash", target="a",
                       duration=5.0),
        ])
        assert [e.at for e in plan.events] == [10.0, 50.0]
        assert plan.horizon == 70.0
        assert plan.counts_by_kind() == {"host_crash": 2}

    def test_plan_rejects_unknown_kind_and_negative_times(self):
        with pytest.raises(ChaosError):
            ChaosPlan(events=[FaultEvent(at=0.0, kind="disk_melt")])
        with pytest.raises(ChaosError):
            ChaosPlan(events=[FaultEvent(at=-1.0, kind="host_crash")])

    def test_generate_campaign_is_deterministic(self):
        meta = two_domain_meta()
        config = PROFILES["mixed"]
        a = generate_campaign(meta, config, seed=5)
        b = generate_campaign(meta, config, seed=5)
        assert a.to_dict() == b.to_dict()
        c = generate_campaign(meta, config, seed=6)
        assert a.to_dict() != c.to_dict()

    def test_generation_does_not_touch_metasystem_rngs(self):
        """Campaign generation must not perturb the simulation's RNGs."""
        m1, m2 = two_domain_meta(), two_domain_meta()
        generate_campaign(m1, PROFILES["heavy"], seed=3)
        assert (m1.rngs.stream("net", "latency").random()
                == m2.rngs.stream("net", "latency").random())

    def test_per_target_events_never_overlap(self):
        meta = two_domain_meta()
        config = CampaignConfig(horizon=5000.0, classes={
            "host_crash": FaultClassConfig(mtbf=100.0, mttr=50.0)})
        plan = generate_campaign(meta, config, seed=1)
        by_target = {}
        for event in plan.events:
            by_target.setdefault(event.target, []).append(event)
        assert len(plan) > 10
        for events in by_target.values():
            for prev, nxt in zip(events, events[1:]):
                assert nxt.at >= prev.at + prev.duration


class TestInjector:
    def test_scripted_crash_applies_and_reverts_on_schedule(self, meta):
        plan = ChaosPlan(events=[FaultEvent(
            at=10.0, kind="host_crash", target="ws0", duration=20.0)])
        injector = ChaosInjector(meta, plan).arm()
        machine = meta.host_by_name("ws0").machine
        meta.advance(15.0)
        assert not machine.up and injector.active_count == 1
        meta.advance(20.0)
        assert machine.up and injector.active_count == 0
        record = injector.records[0]
        assert record.applied_at == pytest.approx(10.0)
        assert record.reverted_at == pytest.approx(30.0)
        assert not record.forced

    def test_overlapping_same_target_fault_is_skipped(self, meta):
        plan = ChaosPlan(events=[
            FaultEvent(at=10.0, kind="host_crash", target="ws0",
                       duration=50.0),
            FaultEvent(at=30.0, kind="host_crash", target="ws0",
                       duration=50.0),
        ])
        injector = ChaosInjector(meta, plan).arm()
        meta.advance(40.0)
        assert injector.records[1].skipped
        meta.advance(100.0)
        assert meta.host_by_name("ws0").machine.up
        assert injector.stats()["skipped"] == 1

    def test_teardown_reverts_persistent_faults(self, meta):
        plan = ChaosPlan(events=[
            # duration 0 = persists until teardown
            FaultEvent(at=5.0, kind="host_crash", target="ws1"),
            FaultEvent(at=6.0, kind="message_loss_spike", magnitude=0.9),
        ], horizon=100.0)
        injector = ChaosInjector(meta, plan).arm()
        meta.advance(50.0)
        assert injector.active_count == 2
        injector.teardown()
        assert injector.active_count == 0
        assert injector.residual_faults() == []
        assert injector.forced_repairs == 0
        assert meta.host_by_name("ws1").machine.up
        assert all(r.forced for r in injector.records)

    def test_teardown_cancels_pending_events(self, meta):
        plan = ChaosPlan(events=[FaultEvent(
            at=80.0, kind="host_crash", target="ws0", duration=10.0)])
        injector = ChaosInjector(meta, plan).arm()
        meta.advance(10.0)
        injector.teardown()
        meta.advance(200.0)  # the t=80 apply fires but must no-op
        assert meta.host_by_name("ws0").machine.up
        assert injector.records[0].skipped

    def test_injector_emits_metrics_and_spans(self, meta):
        plan = ChaosPlan(events=[FaultEvent(
            at=10.0, kind="host_crash", target="ws0", duration=20.0)])
        ChaosInjector(meta, plan).arm()
        meta.advance(50.0)
        counter = meta.metrics.get("chaos_faults_injected_total")
        assert counter.labels(kind="host_crash").value == 1.0
        names = [s.name for s in meta.spans.spans]
        assert "chaos:host_crash" in names

    def test_chaos_spans_reach_chrome_trace_export(self, meta):
        from repro.obs.trace_export import chrome_trace_json
        plan = ChaosPlan(events=[FaultEvent(
            at=10.0, kind="host_crash", target="ws0", duration=20.0)])
        ChaosInjector(meta, plan).arm()
        meta.advance(50.0)
        trace = json.loads(chrome_trace_json(meta.spans.spans))
        chaos_events = [e for e in trace["traceEvents"]
                        if "chaos:host_crash" in str(e.get("name", ""))]
        assert chaos_events

    def test_metasystem_start_chaos(self, meta):
        layer = meta.install(ChaosLayer(profile="hosts", chaos_seed=2))
        assert meta.chaos is layer
        assert len(layer.injector.plan) > 0
        with pytest.raises(LegionError):
            meta.install(ChaosLayer(profile="hosts"))

    def test_start_chaos_rejects_unknown_profile(self):
        with pytest.raises(LegionError):
            ChaosLayer(profile="apocalypse")

    def test_testbed_spec_arms_chaos(self):
        meta = build_testbed(TestbedSpec(
            n_domains=2, hosts_per_domain=2, background_load_mean=0.0,
            layers=[ChaosLayer(profile="hosts", chaos_seed=1,
                               horizon=300.0)]))
        assert meta.chaos.injector.plan.horizon == 300.0


# the hypothesis-generated campaign shapes below: any mix of fault
# kinds, targets, start times, and durations on the two_domain_meta
_HOSTS = ["east-ws0", "east-ws1", "west-ws0", "west-ws1"]
_EVENT_STRATEGY = st.one_of(
    st.tuples(st.just("host_crash"), st.sampled_from(_HOSTS),
              st.just(0.0)),
    st.tuples(st.just("load_surge"), st.sampled_from(_HOSTS),
              st.floats(min_value=0.5, max_value=8.0)),
    st.tuples(st.just("domain_partition"), st.just("east|west"),
              st.just(0.0)),
    st.tuples(st.just("message_loss_spike"), st.just(""),
              st.floats(min_value=0.05, max_value=1.0)),
    st.tuples(st.just("latency_spike"), st.just(""),
              st.floats(min_value=1.5, max_value=10.0)),
)


class TestRevertGuarantee:
    @given(st.lists(
        st.tuples(_EVENT_STRATEGY,
                  st.floats(min_value=0.0, max_value=120.0),
                  st.floats(min_value=0.0, max_value=60.0)),
        min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_every_applied_fault_is_reverted(self, shapes):
        """Whatever the campaign shape, teardown leaves zero residual
        faults and every applied fault carries a revert timestamp."""
        meta = two_domain_meta()
        events = [FaultEvent(at=at, kind=kind, target=target,
                             duration=duration, magnitude=magnitude)
                  for (kind, target, magnitude), at, duration in shapes]
        injector = ChaosInjector(meta, ChaosPlan(events=events)).arm()
        meta.advance(90.0)  # stop mid-campaign: some faults still active
        injector.teardown()
        assert injector.residual_faults() == []
        assert injector.active_count == 0
        for record in injector.records:
            if record.applied_at is not None:
                assert record.reverted_at is not None
        # the world is fully serviceable again
        assert all(h.machine.up for h in meta.hosts)
        assert meta.topology.partitions() == []
        assert meta.transport.effective_loss_probability() \
            == meta.transport.loss_probability


class TestCampaigns:
    def test_same_seed_reports_are_identical(self):
        kwargs = dict(waves=3, per_wave=2, chaos_profile="mixed",
                      chaos_seed=3)
        a = run_scenario(chaos(**kwargs))
        b = run_scenario(chaos(**kwargs))
        assert a.to_json() == b.to_json()
        assert a.placements == b.placements
        assert a.residual_faults == []

    def test_retry_strictly_improves_survival_under_loss(self):
        """Acceptance criterion: with the identical fault timeline, the
        retry layer yields strictly more successful placements."""
        kwargs = dict(waves=6, per_wave=3, chaos_profile="lossy",
                      chaos_seed=9)
        base = run_scenario(chaos(retry=False, **kwargs))
        with_retry = run_scenario(chaos(retry=True, **kwargs))
        assert base.residual_faults == []
        assert with_retry.residual_faults == []
        assert with_retry.transport_retries \
            + with_retry.reservation_retries > 0
        assert (with_retry.placement_successes
                > base.placement_successes)
        assert (with_retry.placement_success_rate
                > base.placement_success_rate)

    def test_report_json_round_trip(self):
        report = run_scenario(chaos(waves=2, per_wave=2,
                                    chaos_profile="light", chaos_seed=1))
        data = json.loads(report.to_json())
        assert data["profile"] == "light"
        assert data["faults"]["residual_faults"] == []
        assert data["placement"]["attempts"] == 2
        assert len(data["events"]) == report.faults_planned
        assert "campaign" in report.summary()


class TestChaosCli:
    def test_chaos_subcommand_runs_and_writes_report(self, tmp_path):
        out = StringIO()
        path = tmp_path / "report.json"
        rc = cli_main(["chaos", "--chaos-profile", "light", "--waves", "2",
                       "--count", "2", "--chaos-seed", "1",
                       "--out", str(path)], out=out)
        assert rc == 0
        text = out.getvalue()
        assert "chaos campaign 'light'" in text
        assert "residual faults    0" in text
        data = json.loads(path.read_text())
        assert data["faults"]["residual_faults"] == []

    def test_compare_retry_flag(self):
        out = StringIO()
        rc = cli_main(["chaos", "--chaos-profile", "light", "--waves", "2",
                       "--count", "2", "--compare"], out=out)
        assert rc == 0
        assert "retry benefit" in out.getvalue()

    def test_run_subcommand_with_chaos_profile(self):
        out = StringIO()
        rc = cli_main(["run", "--count", "2", "--chaos-profile", "hosts",
                       "--chaos-seed", "7", "--wait"], out=out)
        assert rc == 0
        assert "residual after teardown" in out.getvalue()

    def test_unknown_profile_fails_cleanly(self):
        out = StringIO()
        rc = cli_main(["chaos", "--chaos-profile", "apocalypse",
                       "--waves", "1"], out=out)
        assert rc == 2
        assert "chaos error" in out.getvalue()
