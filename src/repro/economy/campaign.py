"""run_economy / run_economy_comparison: seeded economy experiments.

Mirrors :func:`repro.chaos.campaign.run_campaign`: build the standard
testbed, install the economy (market pricing + budgets active for *every*
scheduler so metered costs are comparable), optionally arm a chaos
campaign and the guardrails, drive per-user placement waves, drain, and
aggregate an :class:`~repro.economy.report.EconomyReport`.

Deadline semantics are Nimrod/G's experiment deadline: each user's clock
starts at their first submission (t=0 here) and every one of their
instances must complete within ``deadline`` virtual seconds of that —
late completions *and* instances that were never created both count as
misses.  The comparison runner replays the identical seeded world under
Random, IRS, cost-aware, and the economy scheduler; common random
numbers make the deltas pure policy.

Imports of the testbed/metasystem layers happen inside the functions to
keep ``repro.economy`` importable without a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import LegionError
from .layer import EconomyLayer
from .report import EconomyComparison, EconomyReport

__all__ = ["run_economy", "run_economy_comparison"]

#: scheduler kinds the comparison runner knows how to drive
BASELINES = ("random", "irs", "cost")


def _user_names(users: int) -> List[str]:
    return [f"u{i}" for i in range(users)]


def run_economy(scheduler: str = "economy",
                mode: str = "cost",
                seed: int = 0,
                chaos_profile: Optional[str] = None,
                chaos_seed: int = 0,
                guardrails: bool = False,
                retry: bool = False,
                users: int = 2,
                budget: float = 40.0,
                deadline: float = 900.0,
                waves: int = 6,
                per_wave: int = 2,
                work: float = 250.0,
                wave_interval: float = 90.0,
                deadline_safety: float = 0.6,
                n_domains: int = 3,
                hosts_per_domain: int = 6,
                platform_mix: int = 3,
                background_load: float = 0.5,
                drain_time: float = 4000.0,
                meta: Any = None) -> EconomyReport:
    """Run one seeded economy campaign and return its EconomyReport.

    ``scheduler`` is ``"economy"`` (auction-cleared, per-user
    budget/deadline boxes, ``mode`` selects time- or cost-optimize) or a
    baseline kind (``random``/``irs``/``cost``); the economy layer is
    installed either way (a prebuilt ``meta`` keeps its own) so every
    run meters identical market prices.
    """
    from ..chaos.layer import ChaosLayer, RetryLayer
    from ..guardrails.layer import GuardrailsLayer
    from ..scheduler.base import ObjectClassRequest
    from ..workload.testbed import (
        TestbedSpec,
        build_testbed,
        implementations_for_all_platforms,
    )

    if users < 1:
        raise ValueError("users must be >= 1")
    if meta is None:
        meta = build_testbed(TestbedSpec(
            seed=seed, n_domains=n_domains,
            hosts_per_domain=hosts_per_domain,
            platform_mix=platform_mix,
            background_load_mean=background_load))
        meta.place_collection("dom0")
        meta.place_enactor("dom0")
    suite = meta.economy or meta.install(EconomyLayer())
    horizon = waves * wave_interval
    if guardrails:
        meta.install(GuardrailsLayer())
    if retry:
        meta.install(RetryLayer())
    if chaos_profile:
        meta.install(ChaosLayer(profile=chaos_profile,
                                chaos_seed=chaos_seed, horizon=horizon))

    names = _user_names(users)
    apps: Dict[str, Any] = {}
    scheds: Dict[str, Any] = {}
    baseline_sched = None
    for name in names:
        suite.budgets.ensure(name, budget=budget, deadline=deadline)
        app = meta.create_class(f"econ-app-{name}",
                                implementations_for_all_platforms(),
                                work_units=work)
        apps[name] = app
        suite.budgets.register_class(app.loid, name)
        if scheduler == "economy":
            scheds[name] = meta.make_scheduler(
                "economy", mode=mode, user=name,
                deadline_safety=deadline_safety)
        else:
            if baseline_sched is None:
                if scheduler == "cost":
                    baseline_sched = meta.make_scheduler(
                        "cost", deadline=deadline)
                else:
                    baseline_sched = meta.make_scheduler(scheduler)
            scheds[name] = baseline_sched

    report = EconomyReport(
        scheduler=scheduler,
        mode=mode if scheduler == "economy" else "n/a",
        seed=seed, chaos_profile=chaos_profile, chaos_seed=chaos_seed,
        guardrails_enabled=guardrails, retry_enabled=retry,
        users=users, budget=budget, deadline=deadline,
        waves=waves, per_wave=per_wave, work=work,
        wave_interval=wave_interval, horizon=horizon,
        instances_requested=users * waves * per_wave)

    #: (user, instance_loid, submitted_at) for deadline audit
    placed: List[Tuple[str, Any, float]] = []
    t0 = meta.now
    for _wave in range(waves):
        for name in names:
            report.placement_attempts += 1
            try:
                outcome = scheds[name].run(
                    [ObjectClassRequest(apps[name], count=per_wave)])
            except LegionError:
                outcome = None
            if outcome is not None and outcome.ok:
                report.placement_successes += 1
                report.instances_created += len(outcome.created)
                now = meta.now
                for loid in outcome.created:
                    placed.append((name, loid, now))
        meta.advance(wave_interval)

    if meta.now < t0 + horizon:
        meta.advance(t0 + horizon - meta.now)
    if chaos_profile:
        meta.uninstall("chaos")

    # drain: let surviving jobs run out on a fault-free world
    stop = meta.now + drain_time
    while meta.now < stop:
        if not any(host.machine.jobs for host in meta.hosts):
            break
        meta.advance(50.0)

    # deadline audit: completion within the user's experiment deadline
    per_user: Dict[str, Dict[str, Any]] = {
        name: {"requested": waves * per_wave, "created": 0,
               "met": 0, "missed": 0}
        for name in names}
    for name, loid, _submitted in placed:
        per_user[name]["created"] += 1
        instance = apps[name].instances.get(loid)
        completed = (instance.attributes.get("completed_at")
                     if instance is not None else None)
        if completed is not None and completed - t0 <= deadline:
            per_user[name]["met"] += 1
            report.deadline_met += 1
        if completed is not None:
            report.instances_completed += 1
    for name in names:
        u = per_user[name]
        u["missed"] = u["requested"] - u["met"]
        account = suite.budgets.account(name)
        u["spent"] = round(account.spent, 6)
        u["overrun"] = round(account.overrun, 6)
        u["miss_rate"] = round(u["missed"] / max(1, u["requested"]), 6)
    report.deadline_missed = (report.instances_requested
                              - report.deadline_met)
    report.per_user = per_user

    report.total_cost = round(suite.ledger.total, 6)
    report.user_spend = round(suite.budgets.total_spent, 6)
    report.cost_overrun = round(
        sum(a.overrun for a in suite.budgets.accounts.values()), 6)
    report.budget_rejections = suite.budgets.rejections
    if scheduler == "economy":
        report.auction = suite.auction.to_dict()
        report.bid_escalations = sum(s.escalations
                                     for s in scheds.values())
    meta.metrics.set_gauge("economy_deadline_miss_rate",
                           report.deadline_miss_rate,
                           help="missed / requested for the last campaign",
                           scheduler=scheduler)
    return report


def run_economy_comparison(mode: str = "cost",
                           baselines: Tuple[str, ...] = BASELINES,
                           **kwargs) -> EconomyComparison:
    """Replay the identical seeded campaign under the economy scheduler
    and each baseline; the report dict feeds ``BENCH_economy.json``."""
    comparison = EconomyComparison()
    comparison.reports["economy"] = run_economy(scheduler="economy",
                                                mode=mode, **kwargs)
    for kind in baselines:
        comparison.reports[kind] = run_economy(scheduler=kind, **kwargs)
    return comparison
