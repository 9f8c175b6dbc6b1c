"""ResilienceReport: what survived a chaos campaign, with JSON export.

The report is the ``chaos`` scenario's measurable outcome — the "resilience
trajectory" datapoint written to ``BENCH_chaos.json`` by CI.  All
fields are plain data and the JSON export sorts keys, so two runs with
the same seeds produce byte-identical documents (pinned by
``tests/test_chaos.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["ResilienceReport", "RetryComparison", "resilience_report"]


@dataclass
class ResilienceReport:
    """Aggregated survival metrics for one campaign run."""

    profile: str = ""
    chaos_seed: int = 0
    testbed_seed: int = 0
    scheduler: str = ""
    retry_enabled: bool = False
    horizon: float = 0.0
    waves: int = 0
    per_wave: int = 0

    # placement under fire
    placement_attempts: int = 0
    placement_successes: int = 0
    instances_requested: int = 0
    instances_created: int = 0
    #: host names chosen per successful wave (empty list = failed wave)
    placements: List[List[str]] = field(default_factory=list)

    # work completed vs. lost
    instances_completed: int = 0
    jobs_lost: int = 0
    work_lost: float = 0.0

    # resilience machinery
    transport_retries: int = 0
    reservation_retries: int = 0

    # guardrails machinery (PR 5); wasted_reservation_attempts is counted
    # in every mode — it is the benchmark's comparison metric
    guardrails_enabled: bool = False
    wasted_reservation_attempts: int = 0
    load_shed: int = 0
    breaker_opens: int = 0
    breaker_fast_fails: int = 0
    health_transitions: int = 0
    admission_rejections: int = 0

    # fault accounting (from ChaosInjector.stats())
    faults_planned: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_reverted: Dict[str, int] = field(default_factory=dict)
    faults_skipped: int = 0
    fault_errors: int = 0
    forced_repairs: int = 0
    residual_faults: List[str] = field(default_factory=list)
    mttr_mean: float = 0.0
    mttr_max: float = 0.0

    #: SLO summary when the campaign armed a metrics sampler
    #: (``sampler_window`` > 0): minutes lost, alert count, budget
    #: consumption per objective.  Empty when sampling was off, and
    #: omitted from :meth:`to_dict` then so pre-sampler benchmark
    #: ledgers stay byte-identical.
    slo: Dict[str, Any] = field(default_factory=dict)

    #: full per-fault event log (FaultRecord.to_dict())
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def placement_success_rate(self) -> float:
        if not self.placement_attempts:
            return 0.0
        return self.placement_successes / self.placement_attempts

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "profile": self.profile,
            "chaos_seed": self.chaos_seed,
            "testbed_seed": self.testbed_seed,
            "scheduler": self.scheduler,
            "retry_enabled": self.retry_enabled,
            "horizon": self.horizon,
            "waves": self.waves,
            "per_wave": self.per_wave,
            "placement": {
                "attempts": self.placement_attempts,
                "successes": self.placement_successes,
                "success_rate": self.placement_success_rate,
                "instances_requested": self.instances_requested,
                "instances_created": self.instances_created,
                "placements": self.placements,
            },
            "work": {
                "instances_completed": self.instances_completed,
                "jobs_lost": self.jobs_lost,
                "work_lost": self.work_lost,
            },
            "retries": {
                "transport": self.transport_retries,
                "reservation": self.reservation_retries,
            },
            "guardrails": {
                "enabled": self.guardrails_enabled,
                "wasted_reservation_attempts":
                    self.wasted_reservation_attempts,
                "load_shed": self.load_shed,
                "breaker_opens": self.breaker_opens,
                "breaker_fast_fails": self.breaker_fast_fails,
                "health_transitions": self.health_transitions,
                "admission_rejections": self.admission_rejections,
            },
            "faults": {
                "planned": self.faults_planned,
                "injected": dict(sorted(self.faults_injected.items())),
                "reverted": dict(sorted(self.faults_reverted.items())),
                "skipped": self.faults_skipped,
                "errors": self.fault_errors,
                "forced_repairs": self.forced_repairs,
                "residual_faults": list(self.residual_faults),
                "mttr_mean": self.mttr_mean,
                "mttr_max": self.mttr_max,
            },
            "events": self.events,
        }
        if self.slo:
            doc["slo"] = self.slo
        return doc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """A compact human-readable digest for the CLI."""
        injected = sum(self.faults_injected.values())
        reverted = sum(self.faults_reverted.values())
        lines = [
            f"chaos campaign {self.profile!r} "
            f"(chaos-seed {self.chaos_seed}, horizon {self.horizon:.0f}s, "
            f"retry {'on' if self.retry_enabled else 'off'})",
            f"  faults             {injected} injected / {reverted} "
            f"reverted / {self.faults_skipped} skipped "
            f"(of {self.faults_planned} planned)",
            f"  forced repairs     {self.forced_repairs}",
            f"  residual faults    {len(self.residual_faults)}",
            f"  placement          {self.placement_successes}/"
            f"{self.placement_attempts} waves ok "
            f"({100.0 * self.placement_success_rate:.1f}%)",
            f"  instances          {self.instances_created} created, "
            f"{self.instances_completed} completed, "
            f"{self.jobs_lost} job(s) lost "
            f"({self.work_lost:.0f} work units)",
            f"  retries            transport {self.transport_retries}, "
            f"reservation {self.reservation_retries}",
            f"  guardrails         "
            f"{'on' if self.guardrails_enabled else 'off'}: "
            f"{self.wasted_reservation_attempts} wasted reservation(s), "
            f"{self.load_shed} shed, {self.breaker_opens} breaker open(s), "
            f"{self.breaker_fast_fails} fast-fail(s)",
            f"  MTTR               mean {self.mttr_mean:.1f}s, "
            f"max {self.mttr_max:.1f}s",
        ]
        if self.slo:
            lines.append(
                f"  slo                {self.slo['minutes_lost']:g} "
                f"minute(s) lost, {self.slo['alerts']} burn alert(s), "
                f"{self.slo['exhausted']} budget(s) exhausted "
                f"(window {self.slo['window_seconds']:g}s)")
        return "\n".join(lines)


@dataclass
class RetryComparison:
    """The ``off`` and ``retry`` runs of one fault timeline."""

    reports: Dict[str, ResilienceReport] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {name: report.to_dict()
                for name, report in self.reports.items()}

    def summary(self) -> str:
        base, retry = self.reports["off"], self.reports["retry"]
        return "\n\n".join([
            base.summary(), retry.summary(),
            f"retry benefit: placement success "
            f"{100.0 * base.placement_success_rate:.1f}% -> "
            f"{100.0 * retry.placement_success_rate:.1f}%, completed "
            f"{base.instances_completed} -> {retry.instances_completed}"])


def resilience_report(run: Any) -> ResilienceReport:
    """The ResilienceReport of a finished ``chaos`` scenario
    (:mod:`repro.scenario`): placements, survivors, fault accounting."""
    p, meta = run.scenario.params, run.meta
    injector = run.chaos.injector
    stats = injector.stats()
    report = ResilienceReport(
        profile=p["chaos_profile"], chaos_seed=p["chaos_seed"],
        testbed_seed=p["seed"], scheduler=p["scheduler"],
        retry_enabled=p["retry"], guardrails_enabled=p["guardrails"],
        horizon=run.scenario.horizon, waves=p["waves"],
        per_wave=p["per_wave"],
        instances_requested=p["waves"] * p["per_wave"])
    for _user, outcome, _at in run.placements:
        report.placement_attempts += 1
        if outcome is None or not outcome.ok:
            report.placements.append([])
            continue
        report.placement_successes += 1
        report.instances_created += len(outcome.created)
        hosts = []
        for mapping in outcome.feedback.reserved_entries:
            host = meta.resolve(mapping.host_loid)
            hosts.append(host.machine.name if host is not None
                         else str(mapping.host_loid))
        report.placements.append(sorted(hosts))
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
    if p["include_events"]:
        report.events = [r.to_dict() for r in injector.records]
    return report
