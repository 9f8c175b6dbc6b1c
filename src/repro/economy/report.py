"""EconomyReport / EconomyComparison: what the economy bought, exportable.

The deliverable of the ``economy`` scenario (:mod:`repro.scenario`;
GridSim-style broker evaluation, PAPERS.md): per-user cost and budget
state, deadline-miss rate, cost overrun, auction efficiency —
serialized with sorted keys and rounded floats so a committed
``BENCH_economy.json`` is byte-stable across runs of the same seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["EconomyReport", "EconomyComparison", "economy_report"]


def _round(value: float) -> float:
    return round(float(value), 6)


@dataclass
class EconomyReport:
    """Aggregated outcome of one seeded economy campaign."""

    scheduler: str = "economy"
    mode: str = "cost"
    seed: int = 0
    chaos_profile: Optional[str] = None
    chaos_seed: int = 0
    guardrails_enabled: bool = False
    retry_enabled: bool = False

    users: int = 1
    budget: float = 0.0
    deadline: float = 0.0
    waves: int = 0
    per_wave: int = 0
    work: float = 0.0
    wave_interval: float = 0.0
    horizon: float = 0.0

    instances_requested: int = 0
    instances_created: int = 0
    instances_completed: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0

    placement_attempts: int = 0
    placement_successes: int = 0
    budget_rejections: int = 0
    bid_escalations: int = 0

    #: ground-truth metered cost (accounting Ledger, host prices)
    total_cost: float = 0.0
    #: what users were charged (auction rates for bound instances)
    user_spend: float = 0.0
    cost_overrun: float = 0.0

    auction: Optional[Dict[str, Any]] = None
    per_user: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed / requested — never-created instances count as missed."""
        if self.instances_requested <= 0:
            return 0.0
        return self.deadline_missed / self.instances_requested

    @property
    def auction_efficiency(self) -> float:
        if not self.auction:
            return 1.0
        return float(self.auction.get("efficiency", 1.0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "mode": self.mode,
            "seed": self.seed,
            "chaos_profile": self.chaos_profile,
            "chaos_seed": self.chaos_seed,
            "guardrails_enabled": self.guardrails_enabled,
            "retry_enabled": self.retry_enabled,
            "users": self.users,
            "budget": _round(self.budget),
            "deadline": _round(self.deadline),
            "waves": self.waves,
            "per_wave": self.per_wave,
            "work": _round(self.work),
            "wave_interval": _round(self.wave_interval),
            "horizon": _round(self.horizon),
            "instances_requested": self.instances_requested,
            "instances_created": self.instances_created,
            "instances_completed": self.instances_completed,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
            "deadline_miss_rate": _round(self.deadline_miss_rate),
            "placement_attempts": self.placement_attempts,
            "placement_successes": self.placement_successes,
            "budget_rejections": self.budget_rejections,
            "bid_escalations": self.bid_escalations,
            "total_cost": _round(self.total_cost),
            "user_spend": _round(self.user_spend),
            "cost_overrun": _round(self.cost_overrun),
            "auction": self.auction,
            "per_user": self.per_user,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary(self) -> str:
        lines = [
            f"economy campaign: scheduler={self.scheduler} "
            f"mode={self.mode} seed={self.seed} "
            f"chaos={self.chaos_profile or 'off'} "
            f"guardrails={'on' if self.guardrails_enabled else 'off'}",
            f"  instances: requested={self.instances_requested} "
            f"created={self.instances_created} "
            f"completed={self.instances_completed}",
            f"  deadline:  met={self.deadline_met} "
            f"missed={self.deadline_missed} "
            f"miss-rate={self.deadline_miss_rate:.3f}",
            f"  cost:      metered={self.total_cost:.4f} "
            f"user-spend={self.user_spend:.4f} "
            f"overrun={self.cost_overrun:.4f}",
        ]
        if self.auction:
            lines.append(
                f"  auction:   rounds={self.auction.get('rounds', 0)} "
                f"cleared={self.auction.get('cleared_rounds', 0)} "
                f"efficiency={self.auction_efficiency:.4f} "
                f"escalations={self.bid_escalations}")
        for name in sorted(self.per_user):
            u = self.per_user[name]
            lines.append(
                f"  user {name}: spent={u.get('spent', 0.0):.4f} "
                f"missed={u.get('missed', 0)}/{u.get('requested', 0)} "
                f"overrun={u.get('overrun', 0.0):.4f}")
        return "\n".join(lines)


@dataclass
class EconomyComparison:
    """Economy vs. baseline schedulers on the identical seeded world."""

    reports: Dict[str, EconomyReport] = field(default_factory=dict)
    #: baselines the economy must beat for the benchmark gate
    gate_baselines: List[str] = field(
        default_factory=lambda: ["random", "irs"])

    def report(self, name: str) -> EconomyReport:
        return self.reports[name]

    def beats(self, baseline: str) -> bool:
        """Strictly better on deadline-miss rate AND total metered cost."""
        econ = self.reports.get("economy")
        base = self.reports.get(baseline)
        if econ is None or base is None:
            return False
        return (econ.deadline_miss_rate < base.deadline_miss_rate
                and econ.total_cost < base.total_cost)

    @property
    def economy_beats_baselines(self) -> bool:
        """The BENCH gate: economy beats Random and IRS on both axes."""
        return all(self.beats(b) for b in self.gate_baselines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "economy_beats_baselines": self.economy_beats_baselines,
            "gate": {b: self.beats(b) for b in self.gate_baselines},
            "reports": {name: self.reports[name].to_dict()
                        for name in sorted(self.reports)},
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary(self) -> str:
        header = (f"{'scheduler':<12} {'miss-rate':>9} {'total-cost':>10} "
                  f"{'created':>7} {'completed':>9} {'spend':>9}")
        lines = [header, "-" * len(header)]
        for name in sorted(self.reports):
            r = self.reports[name]
            lines.append(
                f"{name:<12} {r.deadline_miss_rate:>9.3f} "
                f"{r.total_cost:>10.4f} {r.instances_created:>7} "
                f"{r.instances_completed:>9} {r.user_spend:>9.4f}")
        verdict = ("economy beats " + ", ".join(self.gate_baselines)
                   if self.economy_beats_baselines
                   else "economy does NOT beat all gate baselines")
        lines.append(verdict)
        if "economy" in self.reports:
            lines += ["", self.reports["economy"].summary()]
        return "\n".join(lines)


def economy_report(run: Any) -> EconomyReport:
    """The EconomyReport of a finished ``economy`` scenario.

    Deadlines are Nimrod/G's experiment deadline: each user's clock
    starts at their first submission (the start of the waves), and every
    one of their instances must complete within ``deadline`` of it —
    late completions *and* never-created instances both count as misses.
    """
    p, meta = run.scenario.params, run.meta
    suite = meta.economy
    scheduler, deadline = p["scheduler"], p["deadline"]
    requested = p["waves"] * p["per_wave"]
    report = EconomyReport(
        scheduler=scheduler,
        mode=p["mode"] if scheduler == "economy" else "n/a",
        seed=p["seed"], chaos_profile=p["chaos_profile"] or None,
        chaos_seed=p["chaos_seed"], guardrails_enabled=p["guardrails"],
        retry_enabled=p["retry"], users=p["users"], budget=p["budget"],
        deadline=deadline, waves=p["waves"], per_wave=p["per_wave"],
        work=p["work"], wave_interval=p["wave_interval"],
        horizon=run.scenario.horizon,
        instances_requested=p["users"] * requested)
    per_user: Dict[str, Dict[str, Any]] = {
        name: {"requested": requested, "created": 0, "met": 0, "missed": 0}
        for name in run.apps}
    for name, outcome, _at in run.placements:
        report.placement_attempts += 1
        if outcome is None or not outcome.ok:
            continue
        report.placement_successes += 1
        report.instances_created += len(outcome.created)
        for loid in outcome.created:
            per_user[name]["created"] += 1
            instance = run.apps[name].instances.get(loid)
            completed = (instance.attributes.get("completed_at")
                         if instance is not None else None)
            if completed is not None and completed - run.t0 <= deadline:
                per_user[name]["met"] += 1
                report.deadline_met += 1
            if completed is not None:
                report.instances_completed += 1
    for name, u in per_user.items():
        u["missed"] = u["requested"] - u["met"]
        account = suite.budgets.account(name)
        u["spent"] = _round(account.spent)
        u["overrun"] = _round(account.overrun)
        u["miss_rate"] = _round(u["missed"] / max(1, u["requested"]))
    report.deadline_missed = report.instances_requested - report.deadline_met
    report.per_user = per_user
    report.total_cost = _round(suite.ledger.total)
    report.user_spend = _round(suite.budgets.total_spent)
    report.cost_overrun = _round(
        sum(a.overrun for a in suite.budgets.accounts.values()))
    report.budget_rejections = suite.budgets.rejections
    if scheduler == "economy":
        report.auction = suite.auction.to_dict()
        report.bid_escalations = sum(s.escalations
                                     for s in run.schedulers.values())
    meta.metrics.set_gauge("economy_deadline_miss_rate",
                           report.deadline_miss_rate,
                           help="missed / requested for the last campaign",
                           scheduler=scheduler)
    return report
