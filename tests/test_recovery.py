"""Tests for the recovery layer: request journal, worker leases, the
Supervisor, checkpoint/restore, and game-day campaigns.

The correctness pins from the recovery design:

* journal replay reconstructs the gateway registry and live queue
  byte-identically to a live snapshot, mid-run and at the end;
* a request is owned by at most one lease at any virtual time
  (hypothesis audit over the full interval history), and every
  submitted request reaches exactly one terminal state with exactly
  one ``finish`` journal entry;
* a crashed worker's orphan is re-enqueued exactly once and nothing it
  half-enacted survives as a duplicate placement;
* a cancel that lands after a worker popped the request is honoured at
  claim time instead of being placed anyway (the lazy-cancel race);
* a checkpoint/teardown/restore cycle leaves a seeded game day
  byte-identical to one that never stopped.
"""

import io
import json
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.ledger import LEDGERS
from repro.chaos.faults import make_fault
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.errors import ChaosError, RecoveryError
from repro.recovery import (
    LeaseTable,
    RecoveryConfig,
    RequestJournal,
    ServiceCheckpoint,
    capture_checkpoint,
    restore_service,
    run_gameday,
)
from repro.recovery.checkpoint import quiescence_blockers
from repro.scenario import campaign
from repro.service import ServiceConfig, ServiceLayer
from repro.service.request import TERMINAL_STATES
from repro.sim.kernel import grid_delay
from repro.tools import main
from repro.workload.testbed import TestbedSpec, build_testbed


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def build_recovery_service(seed=0, ttl=5.0, heartbeat=2.0, scan=2.0,
                           **cfg):
    """A small testbed with the service tier + recovery layer started."""
    meta = build_testbed(TestbedSpec(
        seed=seed, n_domains=1, hosts_per_domain=3, platform_mix=2,
        background_load_mean=0.2))
    cfg.setdefault("workers", 1)
    cfg.setdefault("queue_cap", 16)
    suite = meta.install(ServiceLayer(
        ServiceConfig(**cfg),
        recovery=RecoveryConfig(lease_ttl=ttl, heartbeat_interval=heartbeat,
                                scan_interval=scan)))
    return meta, suite


def journal_events(suite, event, request_id=None):
    return [e for e in suite.journal.entries
            if e.event == event
            and (request_id is None or e.request_id == request_id)]


def assert_states_match(suite):
    """Journal replay must equal the live snapshot byte for byte."""
    live = RequestJournal.snapshot_state(suite.gateway, suite.queue)
    replayed = RequestJournal.replay_state(suite.journal.entries)
    assert json.dumps(live, sort_keys=True) == \
        json.dumps(replayed, sort_keys=True)


class TestGridPhase:
    def test_phase_shifts_grid(self):
        assert grid_delay(0.2, 1.0, phase=0.5) == pytest.approx(0.3)
        assert grid_delay(0.7, 1.0, phase=0.5) == pytest.approx(0.8)

    def test_wakeup_at_phased_point_waits_full_interval(self):
        assert grid_delay(0.5, 1.0, phase=0.5) == pytest.approx(1.0)

    def test_distinct_phases_never_collide(self):
        # the worker-pool stagger: no two workers wake at the same instant
        phases = [(i + 1) * 1.0 / 5 for i in range(4)]
        instants = set()
        for phase in phases:
            t = 0.0
            for _ in range(20):
                t += grid_delay(t, 1.0, phase=phase)
                assert round(t, 9) not in instants
                instants.add(round(t, 9))


class TestJournal:
    def test_unknown_event_rejected(self):
        journal = RequestJournal(lambda: 0.0)
        with pytest.raises(RecoveryError):
            journal.record("vanish", "req-000000")

    def test_replay_unknown_request_raises(self):
        journal = RequestJournal(lambda: 0.0)
        journal.record("enqueue", "req-000009")
        with pytest.raises(RecoveryError):
            RequestJournal.replay(journal.entries)

    def test_replay_matches_live_snapshot_at_every_stage(self):
        meta, suite = build_recovery_service(workers=2)
        for i in range(6):
            suite.gateway.submit(user=f"u{i}", priority=i % 3)
        assert_states_match(suite)  # backlog full, nothing claimed
        meta.advance(1.0)
        assert_states_match(suite)  # some claimed / placing
        meta.advance(90.0)
        assert all(r.terminal for r in suite.gateway.requests.values())
        assert_states_match(suite)  # fully drained

    def test_load_roundtrips_entries(self):
        meta, suite = build_recovery_service()
        suite.gateway.submit(user="u")
        meta.advance(30.0)
        docs = suite.journal.to_dicts()
        fresh = RequestJournal(lambda: 0.0)
        fresh.load(docs)
        assert fresh.to_dicts() == docs


class TestLeaseTable:
    def test_double_grant_raises(self):
        leases = LeaseTable(ttl=5.0)
        leases.grant("req-000000", 0, now=0.0)
        with pytest.raises(RecoveryError):
            leases.grant("req-000000", 1, now=1.0)

    def test_renew_extends_and_stale_renew_is_noop(self):
        leases = LeaseTable(ttl=5.0)
        lease = leases.grant("req-000000", 0, now=0.0)
        leases.renew(lease, now=3.0)
        assert lease.expires_at == pytest.approx(8.0)
        leases.release(lease, now=4.0)
        leases.renew(lease, now=5.0)  # released: must not resurrect
        assert leases.renewals == 1
        assert "req-000000" not in leases.active

    def test_expire_is_identity_guarded(self):
        leases = LeaseTable(ttl=5.0)
        first = leases.grant("req-000000", 0, now=0.0)
        leases.expire(first, now=6.0)
        second = leases.grant("req-000000", 1, now=6.0)
        leases.expire(first, now=7.0)  # stale handle: no-op
        assert leases.active["req-000000"] is second
        assert leases.expirations == 1

    def test_expired_sorted_by_request_id(self):
        leases = LeaseTable(ttl=1.0)
        leases.grant("req-000002", 2, now=0.0)
        leases.grant("req-000001", 1, now=0.0)
        assert [l.request_id for l in leases.expired(now=2.0)] == \
            ["req-000001", "req-000002"]

    def test_late_deposit_queues_for_the_supervisor(self):
        leases = LeaseTable(ttl=1.0)
        lease = leases.grant("req-000000", 0, now=0.0)
        leases.expire(lease, now=2.0)
        outcome = object()
        leases.deposit_effects(lease, outcome)
        assert lease.effects is outcome
        assert leases.late_effects == [lease]

    def test_active_deposit_stays_on_the_lease(self):
        leases = LeaseTable(ttl=10.0)
        lease = leases.grant("req-000000", 0, now=0.0)
        leases.deposit_effects(lease, object())
        assert not leases.late_effects


class TestCancelRace:
    def test_cancel_after_pop_is_honoured_at_claim(self):
        """The lazy-cancel race: a cancel that lands between a worker's
        pop and its claim must finish the request CANCELLED instead of
        being placed anyway."""
        meta, suite = build_recovery_service(workers=1)
        result = suite.gateway.submit(user="u")
        stolen = suite.queue.pop()  # a worker has popped it...
        assert stolen.request_id == result.request_id
        out = suite.gateway.cancel(result.request_id)
        assert out.ok and "cancel pending" in out.detail
        assert stolen.cancel_requested and not stolen.terminal
        assert journal_events(suite, "cancel_flag", result.request_id)
        suite.queue.requeue(stolen)  # hand it back to the real worker
        meta.advance(5.0)
        assert stolen.state == "cancelled"
        assert "cancelled at claim" in stolen.detail

    def test_cancel_while_queued_still_cancels_eagerly(self):
        meta, suite = build_recovery_service(workers=1)
        result = suite.gateway.submit(user="u")
        out = suite.gateway.cancel(result.request_id)
        assert out.ok and out.state == "cancelled"
        assert suite.queue.pop() is None


class TestPerWorkerRetryStreams:
    def test_streams_are_distinct_and_deterministic(self):
        _, first = build_recovery_service(seed=3, workers=2)
        _, second = build_recovery_service(seed=3, workers=2)
        draws_a = [[p.backoff(1) for _ in range(4)]
                   for p in first.pool.retry_policies]
        draws_b = [[p.backoff(1) for _ in range(4)]
                   for p in second.pool.retry_policies]
        assert draws_a == draws_b            # same seed, same traces
        assert draws_a[0] != draws_a[1]      # but per-worker streams
        base = first.pool.config.retry_backoff
        for delay in draws_a[0] + draws_a[1]:
            assert 0.5 * base <= delay < 1.5 * base


class TestOrphanRecovery:
    def test_orphan_recovered_exactly_once(self):
        """Kill the only worker mid-request: the lease expires, the
        Supervisor re-enqueues the orphan exactly once, and the revived
        worker finishes it — nothing lost."""
        meta, suite = build_recovery_service(
            workers=1, ttl=5.0, heartbeat=2.0, scan=2.0)
        # count nobody can place: the request stays in flight through
        # retries, so the kill is guaranteed to land mid-claim
        result = suite.gateway.submit(user="u", count=999)
        rid = result.request_id
        meta.sim.schedule_at(2.0, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(12.0, lambda: suite.pool.revive(0))
        meta.advance(90.0)
        request = suite.gateway.requests[rid]
        assert request.terminal
        assert request.requeues == 1
        assert suite.supervisor.recovered == 1
        assert suite.leases.expirations == 1
        assert suite.pool.abandons == 1
        assert len(journal_events(suite, "expire", rid)) == 1
        assert len(journal_events(suite, "requeue", rid)) == 1
        assert len(journal_events(suite, "finish", rid)) == 1
        assert not suite.leases.active

    def test_cancelled_orphan_finishes_cancelled(self):
        meta, suite = build_recovery_service(
            workers=1, ttl=5.0, heartbeat=2.0, scan=2.0)
        result = suite.gateway.submit(user="u", count=999)
        meta.sim.schedule_at(2.0, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(3.0,
                             lambda: suite.gateway.cancel(result.request_id))
        meta.advance(60.0)
        request = suite.gateway.requests[result.request_id]
        assert request.state == "cancelled"
        assert suite.supervisor.cancelled_on_recovery == 1
        assert suite.supervisor.recovered == 0

    def test_reaper_destroys_deposited_placements(self):
        """Effects a dead worker deposited are destroyed on recovery —
        the zombie instances never survive as duplicates."""
        meta, suite = build_recovery_service(workers=1)
        suite.gateway.submit(user="u")
        meta.advance(30.0)  # one real placement to steal instances from
        loids = list(suite.app.instances)
        assert loids

        class FakeOutcome:
            created = loids

        lease = suite.leases.grant("req-zzz", 0, now=meta.now)
        lease.effects = FakeOutcome()
        reaped = suite.supervisor._reap(lease, meta.now)
        assert reaped == len(loids)
        assert not suite.app.instances
        assert suite.supervisor.duplicates_averted == len(loids)
        assert lease.effects is None


class TestUnackedCreateReap:
    def test_reap_reserved_resolves_token_to_instances(self):
        """The lost-ack half of the create protocol: the Class resolves
        a reservation token to whatever it started under it, so the
        Enactor can roll back an instance it never learned the name of."""
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        from repro.objects.class_object import Placement
        from repro.workload.testbed import implementations_for_all_platforms
        app = meta.create_class("reap-app",
                                implementations_for_all_platforms())
        host, vault = meta.hosts[0], meta.vaults[0]
        token = host.make_reservation(vault.loid, app.loid, now=0.0)
        result = app.create_instance(
            Placement(host.loid, vault.loid, reservation_token=token))
        assert result.ok
        assert result.loid in app.instances
        reaped = app.reap_reserved(token, now=1.0)
        assert reaped == [result.loid]
        assert result.loid not in app.instances
        assert app.reap_reserved(token, now=2.0) == []  # exactly once


class TestWorkerFaults:
    def test_crash_and_revive_via_fault_objects(self):
        meta, suite = build_recovery_service(workers=2)
        crash = make_fault("worker_crash", target="worker-1")
        crash.apply(meta)
        assert suite.pool.dead_workers == [1]
        crash.revert(meta)
        assert suite.pool.dead_workers == []
        suite.pool.kill(0)
        make_fault("worker_revive", target="worker-0").apply(meta)
        assert suite.pool.dead_workers == []

    def test_bad_targets_raise(self):
        meta, suite = build_recovery_service(workers=2)
        with pytest.raises(ChaosError):
            make_fault("worker_crash", target="worker-9").apply(meta)
        with pytest.raises(ChaosError):
            make_fault("worker_crash", target="bogus").apply(meta)
        bare = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        with pytest.raises(ChaosError):
            make_fault("worker_crash", target="worker-0").apply(bare)

    def test_dead_worker_is_residual_and_force_repaired(self):
        meta, suite = build_recovery_service(workers=2)
        injector = ChaosInjector(meta, ChaosPlan(events=[],
                                                 horizon=1.0)).arm()
        suite.pool.kill(0)
        assert "service worker dead worker-0" in injector.residual_faults()
        injector.teardown()
        assert suite.pool.dead_workers == []
        assert injector.forced_repairs >= 1


class TestCheckpoint:
    def test_capture_refused_when_not_quiescent(self):
        meta, suite = build_recovery_service()
        suite.gateway.submit(user="u")
        blockers = quiescence_blockers(meta)
        assert any("non-terminal" in b for b in blockers)
        with pytest.raises(RecoveryError):
            capture_checkpoint(meta)

    def test_capture_refused_without_recovery_layer(self):
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=3, platform_mix=2))
        meta.install(ServiceLayer(ServiceConfig()))
        assert quiescence_blockers(meta) == \
            ["service tier started without the recovery layer"]

    def test_restore_requires_stopped_tier(self):
        meta, suite = build_recovery_service()
        meta.advance(3.0)  # workers reach their idle grid (quiescent)
        checkpoint = capture_checkpoint(meta)
        with pytest.raises(RecoveryError):
            restore_service(meta, checkpoint, suite.app)

    def test_restore_rejects_app_mismatch(self):
        meta, suite = build_recovery_service()
        meta.advance(3.0)
        checkpoint = capture_checkpoint(meta)
        meta.uninstall("service")
        from repro.workload.testbed import implementations_for_all_platforms
        other = meta.create_class("other-app",
                                  implementations_for_all_platforms())
        with pytest.raises(RecoveryError):
            restore_service(meta, checkpoint, other)

    def test_roundtrip_restores_registry_and_counters(self):
        meta, suite = build_recovery_service(workers=2)
        for i in range(5):
            suite.gateway.submit(user=f"u{i}")
        meta.advance(90.0)
        before = RequestJournal.snapshot_state(suite.gateway, suite.queue)
        placed = suite.pool.placed
        grants = suite.leases.grants
        checkpoint = ServiceCheckpoint.from_json(
            capture_checkpoint(meta).to_json())
        assert meta.uninstall("service") is suite
        assert meta.service is None
        restored = restore_service(meta, checkpoint, suite.app)
        after = RequestJournal.snapshot_state(restored.gateway,
                                              restored.queue)
        assert json.dumps(before, sort_keys=True) == \
            json.dumps(after, sort_keys=True)
        assert restored.pool.placed == placed
        assert restored.leases.grants == grants
        assert restored is meta.service and restored is not suite


GAMEDAY_SMALL = dict(
    users=2000, duration=40.0, workers=2, queue_cap=8,
    requests_per_user_hour=3.6, surge_multiplier=8.0, kills=2,
    lease_ttl=6.0, heartbeat_interval=2.0, scan_interval=2.0,
    n_domains=1, hosts_per_domain=4, platform_mix=2, drain_time=600.0)


class TestGameday:
    def test_headline_comparison_passes(self):
        """The BENCH_gameday acceptance: >= 2 worker kills mid-run, zero
        lost, zero duplicates, at least one recovery, and the restored
        run byte-identical to the uninterrupted one."""
        cmp = campaign(**LEDGERS["gameday"].kwargs)
        assert cmp.straight.worker_kills >= 2
        assert cmp.straight.lost == 0
        assert cmp.straight.duplicates == 0
        assert cmp.straight.recovered > 0
        assert cmp.byte_identical
        assert cmp.passed
        assert cmp.restored.checkpoint is not None

    def test_report_roundtrips_to_json(self):
        report = run_gameday(seed=3, **GAMEDAY_SMALL)
        doc = json.loads(report.to_json())
        assert doc["recovery"]["lost"] == report.lost
        assert doc["passed"] == report.passed

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_no_request_lost_or_duplicated(self, seed):
        """Ground-truth invariants under arbitrary seeds: every request
        terminal (exactly one state), zero duplicates."""
        report = run_gameday(seed=seed, **GAMEDAY_SMALL)
        assert report.lost == 0
        assert report.duplicates == 0
        by_state = report.requests["by_state"]
        assert set(by_state) <= TERMINAL_STATES
        assert sum(by_state.values()) == report.requests["submitted"]


def assert_leases_never_overlap(intervals):
    """Audit the full ownership history: per request, intervals are
    disjoint and at most one is still open."""
    by_rid = defaultdict(list)
    for rid, _worker, granted, ended, _how in intervals:
        by_rid[rid].append((granted, ended))
    for rid, spans in by_rid.items():
        spans.sort(key=lambda s: (s[0], s[1] is None))
        assert sum(1 for _g, e in spans if e is None) <= 1, rid
        for (g1, e1), (g2, _e2) in zip(spans, spans[1:]):
            assert e1 is not None and g2 >= e1 - 1e-9, \
                f"{rid}: overlapping leases {spans}"


class TestLeaseProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           kill_at=st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=5, deadline=None)
    def test_at_most_one_lease_per_request_at_any_time(self, seed,
                                                       kill_at):
        """Every request is owned by <= 1 lease at any virtual time, and
        every submission reaches exactly one terminal state with exactly
        one ``finish`` journal entry — under an arbitrary mid-run crash."""
        meta, suite = build_recovery_service(
            seed=seed, workers=2, ttl=4.0, heartbeat=1.5, scan=2.0)
        for i in range(8):
            suite.gateway.submit(user=f"u{i}", priority=i % 2)
        meta.sim.schedule_at(kill_at, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(kill_at + 8.0,
                             lambda: suite.pool.revive(0))
        meta.advance(120.0)
        assert_leases_never_overlap(suite.leases.intervals())
        for rid, request in suite.gateway.requests.items():
            assert request.state in TERMINAL_STATES, rid
            assert len(journal_events(suite, "finish", rid)) == 1, rid
        assert not suite.leases.active
        assert not suite.leases.late_effects


class TestGamedayCLI:
    def test_single_run_smoke(self):
        code, text = run_cli("gameday", "--seed", "7", "--duration",
                             "120")
        assert code == 0
        assert "verdict:  PASS" in text
        assert "worker_kills=2" in text

    def test_compare_restore_writes_ledger(self, tmp_path):
        out_file = tmp_path / "gameday.json"
        code, text = run_cli("gameday", "--seed", "7", "--duration",
                             "120", "--compare", "--out",
                             str(out_file))
        assert code == 0
        assert "restore byte-identical: yes" in text
        doc = json.loads(out_file.read_text())
        assert doc["passed"] and doc["byte_identical"]
        assert doc["reports"]["restored"]["checkpoint"] is not None

    def test_failed_gate_exits_nonzero(self):
        # kills=0 can never satisfy the >= 2 worker-kill gate
        code, text = run_cli("gameday", "--seed", "7", "--duration",
                             "40", "--kills", "0", "--users", "2000",
                             "--rate", "3.6", "--domains", "1",
                             "--hosts", "4", "--platforms", "2")
        assert code == 1
        assert "FAIL" in text
