"""run_campaign: a complete seeded chaos experiment over a testbed.

Builds the standard testbed, arms a generated campaign, drives placement
waves through a Scheduler while faults land, tears the injector down,
and aggregates everything into a
:class:`~repro.chaos.report.ResilienceReport`.  This is the engine
behind ``legion-sim chaos`` and the determinism/retry-benefit tests.

Imports of the testbed/metasystem layers happen inside the function to
keep ``repro.chaos`` importable without a cycle
(metasystem → chaos → testbed → metasystem).
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import LegionError
from .layer import ChaosLayer, RetryLayer
from .report import ResilienceReport

__all__ = ["run_campaign"]


def run_campaign(profile: str = "mixed",
                 chaos_seed: int = 0,
                 seed: int = 0,
                 scheduler: str = "irs",
                 waves: int = 6,
                 per_wave: int = 4,
                 work: float = 250.0,
                 wave_interval: float = 90.0,
                 horizon: Optional[float] = None,
                 retry: bool = False,
                 guardrails: bool = False,
                 n_domains: int = 3,
                 hosts_per_domain: int = 6,
                 platform_mix: int = 3,
                 background_load: float = 0.5,
                 shards: int = 0,
                 drain_time: float = 4000.0,
                 include_events: bool = True,
                 sampler_window: float = 0.0,
                 meta: Any = None) -> ResilienceReport:
    """Run one seeded campaign and return its ResilienceReport.

    ``retry`` installs the resilience layer
    (:class:`~repro.chaos.layer.RetryLayer`) and ``guardrails`` the
    failure-detection layer
    (:class:`~repro.guardrails.layer.GuardrailsLayer`) — the fault
    timeline is identical either way, so flipping either knob measures
    the policy, not different luck.  Pass a prebuilt ``meta`` to reuse a
    custom testbed (it must not have chaos installed yet).
    """
    from ..guardrails.layer import GuardrailsLayer
    from ..obs.report import SamplerLayer
    from ..scheduler.base import ObjectClassRequest
    from ..workload.testbed import (
        TestbedSpec,
        build_testbed,
        implementations_for_all_platforms,
    )

    if meta is None:
        meta = build_testbed(TestbedSpec(
            seed=seed, n_domains=n_domains,
            hosts_per_domain=hosts_per_domain,
            platform_mix=platform_mix,
            background_load_mean=background_load,
            federation_shards=shards))
        # give the services network locations so information queries and
        # reservations cost messages — and can honestly be lost
        meta.place_collection("dom0")
        meta.place_enactor("dom0")
        if shards:
            meta.place_federation()
    if horizon is None:
        horizon = waves * wave_interval
    if sampler_window and meta.sampler is None:
        meta.install(SamplerLayer(sampler_window))
    if guardrails:
        meta.install(GuardrailsLayer())
    if retry:
        meta.install(RetryLayer())
    injector = meta.install(ChaosLayer(profile=profile,
                                       chaos_seed=chaos_seed,
                                       horizon=horizon)).injector

    app = meta.create_class("chaos-app",
                            implementations_for_all_platforms(),
                            work_units=work)
    sched = meta.make_scheduler(scheduler)

    report = ResilienceReport(
        profile=profile, chaos_seed=chaos_seed, testbed_seed=seed,
        scheduler=scheduler, retry_enabled=retry,
        guardrails_enabled=guardrails, horizon=horizon,
        waves=waves, per_wave=per_wave,
        instances_requested=waves * per_wave)

    for _wave in range(waves):
        report.placement_attempts += 1
        try:
            outcome = sched.run([ObjectClassRequest(app, count=per_wave)])
        except LegionError:
            outcome = None
        if outcome is not None and outcome.ok:
            report.placement_successes += 1
            report.instances_created += len(outcome.created)
            hosts = []
            for mapping in outcome.feedback.reserved_entries:
                host = meta.resolve(mapping.host_loid)
                hosts.append(host.machine.name if host is not None
                             else str(mapping.host_loid))
            report.placements.append(sorted(hosts))
        else:
            report.placements.append([])
        meta.advance(wave_interval)

    if meta.now < horizon:
        meta.advance(horizon - meta.now)
    injector.teardown()

    # drain: let surviving jobs run to completion on a fault-free world
    deadline = meta.now + drain_time
    while meta.now < deadline:
        if not any(host.machine.jobs for host in meta.hosts):
            break
        meta.advance(50.0)

    stats = injector.stats()
    report.instances_completed = sum(h.machine.completed_jobs
                                     for h in meta.hosts)
    report.jobs_lost = stats["jobs_lost"]
    report.work_lost = stats["work_lost"]
    report.transport_retries = meta.transport.retries
    report.reservation_retries = meta.enactor.stats.reservation_retries
    # counted in every mode — the benchmark's comparison metric
    report.wasted_reservation_attempts = \
        meta.enactor.stats.wasted_reservation_attempts
    report.load_shed = meta.enactor.stats.load_shed
    if meta.guardrails is not None:
        report.breaker_opens = meta.guardrails.board.total_opens()
        report.breaker_fast_fails = meta.guardrails.board.total_fast_fails()
        report.health_transitions = meta.guardrails.monitor.transitions
        report.admission_rejections = meta.guardrails.admission.rejections
    report.faults_planned = stats["planned"]
    report.faults_injected = stats["injected"]
    report.faults_reverted = stats["reverted"]
    report.faults_skipped = stats["skipped"]
    report.fault_errors = stats["errors"]
    report.forced_repairs = stats["forced_repairs"]
    report.residual_faults = stats["residual_faults"]
    report.mttr_mean = stats["mttr_mean"]
    report.mttr_max = stats["mttr_max"]
    if meta.sampler is not None:
        from ..obs.slo import default_legion_slos
        report.slo = meta.sampler.slo_summary(
            meta.sampler.evaluate(default_legion_slos()))
    if include_events:
        report.events = [r.to_dict() for r in injector.records]
    return report
