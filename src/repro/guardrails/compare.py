"""Three-way guardrails benchmark: off vs. retries-only vs. guardrails+retries.

The ``guardrails`` comparison (:data:`repro.scenario.COMPARISONS`) runs
the *same* seeded ``chaos`` scenario three times — identical testbed
seed, identical fault timeline — flipping only the resilience layer:

* ``off``        — no retries, no guardrails (the PR 3 baseline)
* ``retries``    — RetryPolicy only (the PR 4 resilience layer)
* ``guardrails`` — guardrails + retries (this subsystem)

and reports survival alongside **wasted reservation attempts**
(reservations issued to hosts that were DOWN at issue time).  Retries
buy survival by paying extra rounds against dead hosts; guardrails keep
the survival while routing those rounds to live ones.  The JSON export
is the ``BENCH_guardrails.json`` resilience-trajectory datapoint and is
byte-stable for fixed seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

from ..chaos.report import ResilienceReport

__all__ = ["MODES", "GuardrailsComparison"]

#: benchmark modes in escalation order
MODES = ("off", "retries", "guardrails")


@dataclass
class GuardrailsComparison:
    """Reports for all three modes plus the derived benefit deltas."""

    reports: Dict[str, ResilienceReport] = field(default_factory=dict)

    # -- derived -----------------------------------------------------------
    @property
    def profile(self) -> str:
        return self.reports["off"].profile

    @property
    def chaos_seed(self) -> int:
        return self.reports["off"].chaos_seed

    @property
    def testbed_seed(self) -> int:
        return self.reports["off"].testbed_seed

    def survival(self, mode: str) -> float:
        return self.reports[mode].placement_success_rate

    def wasted(self, mode: str) -> int:
        return self.reports[mode].wasted_reservation_attempts

    @property
    def survival_delta(self) -> float:
        """guardrails+retries survival minus retries-only survival."""
        return self.survival("guardrails") - self.survival("retries")

    @property
    def wasted_delta(self) -> int:
        """wasted attempts saved by guardrails vs. retries-only."""
        return self.wasted("retries") - self.wasted("guardrails")

    @property
    def guardrails_improve(self) -> bool:
        """The acceptance-criterion predicate: survival no worse AND
        strictly fewer wasted reservation attempts."""
        return self.survival_delta >= 0 and self.wasted_delta > 0

    def slo_minutes(self, mode: str) -> float:
        """SLO minutes lost in ``mode`` (0.0 when sampling was off)."""
        return float(self.reports[mode].slo.get("minutes_lost", 0.0))

    @property
    def has_slo(self) -> bool:
        """True when every mode ran with the metrics sampler armed."""
        return all(rep.slo for rep in self.reports.values()) \
            and bool(self.reports)

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "profile": self.profile,
            "chaos_seed": self.chaos_seed,
            "testbed_seed": self.testbed_seed,
            "modes": {mode: self.reports[mode].to_dict()
                      for mode in MODES if mode in self.reports},
            "benefit": {
                "survival_off": self.survival("off"),
                "survival_retries": self.survival("retries"),
                "survival_guardrails": self.survival("guardrails"),
                "survival_delta": self.survival_delta,
                "wasted_off": self.wasted("off"),
                "wasted_retries": self.wasted("retries"),
                "wasted_guardrails": self.wasted("guardrails"),
                "wasted_delta": self.wasted_delta,
                "guardrails_improve": self.guardrails_improve,
            },
        }
        # only present under sampling, so the committed pre-sampler
        # BENCH_guardrails.json ledger stays byte-identical
        if self.has_slo:
            doc["benefit"]["slo_minutes_off"] = self.slo_minutes("off")
            doc["benefit"]["slo_minutes_retries"] = \
                self.slo_minutes("retries")
            doc["benefit"]["slo_minutes_guardrails"] = \
                self.slo_minutes("guardrails")
            doc["benefit"]["slo_minutes_saved"] = round(
                self.slo_minutes("off") - self.slo_minutes("guardrails"), 6)
        return doc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"guardrails benchmark {self.profile!r} "
            f"(chaos-seed {self.chaos_seed}, testbed-seed "
            f"{self.testbed_seed})",
            f"  {'mode':<12} {'survival':>9} {'wasted':>7} "
            f"{'shed':>5} {'opens':>6} {'retries':>8} {'completed':>10}",
        ]
        for mode in MODES:
            if mode not in self.reports:
                continue
            rep = self.reports[mode]
            lines.append(
                f"  {mode:<12} {100.0 * rep.placement_success_rate:>8.1f}% "
                f"{rep.wasted_reservation_attempts:>7} "
                f"{rep.load_shed:>5} "
                f"{rep.breaker_opens:>6} "
                f"{rep.transport_retries + rep.reservation_retries:>8} "
                f"{rep.instances_completed:>10}")
        lines.append(
            f"  benefit: survival {self.survival_delta:+.3f} vs retries, "
            f"wasted attempts {-self.wasted_delta:+d} "
            f"({'improves' if self.guardrails_improve else 'NO IMPROVEMENT'})")
        if self.has_slo:
            lines.append(
                f"  slo minutes lost: off {self.slo_minutes('off'):g}, "
                f"retries {self.slo_minutes('retries'):g}, "
                f"guardrails {self.slo_minutes('guardrails'):g}")
        return "\n".join(lines)
