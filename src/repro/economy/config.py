"""EconomyConfig: one knob bundle for the computational-economy layer.

Prices are per-cycle (the Ledger's unit); deadlines and repricing
intervals are virtual seconds.  Defaults are sized against the standard
testbed (host speeds 1.0-2.0, ~1 work-unit apps): a speed-1.0 machine
asks 0.01/cycle at idle, so a unit of work costs about a cent and a
100-unit budget funds ~10k placements — roomy unless an experiment
deliberately starves it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EconomyConfig"]


@dataclass(frozen=True)
class EconomyConfig:
    """Parameters for :class:`~repro.economy.layer.EconomyLayer`."""

    # -- market (supply side) ----------------------------------------------
    #: ask price per cycle for a speed-1.0 host at idle
    base_price: float = 0.01
    #: extra ask per unit of speed above 1.0 (faster hardware costs more)
    speed_premium: float = 1.0
    #: ask multiplier contribution per unit of machine load average
    load_factor: float = 0.25
    #: ask multiplier contribution at full slot utilization
    util_factor: float = 0.5
    #: repricing daemon period on the virtual clock (<= 0 disables)
    repricing_interval: float = 60.0
    #: symmetric relative noise on each repricing (seeded, deterministic)
    repricing_jitter: float = 0.05
    #: immediate relative ask increase when an auction awards a host a
    #: reservation (demand signal; the next sweep re-anchors to load)
    demand_bump: float = 0.25

    # -- auction (clearing) ------------------------------------------------
    #: "first" — winner pays own ask; "second" — winner pays runner-up's
    #: ask (Vickrey-style, removes the incentive to shade asks)
    auction_pricing: str = "second"

    # -- scheduler (demand side) -------------------------------------------
    #: DBC-style bid escalation: multiply the affordable ceiling by up to
    #: ``1 + bid_escalation`` as the user's deadline approaches
    bid_escalation: float = 0.5
    #: fraction of the deadline elapsed before escalation starts
    escalation_onset: float = 0.5

    # -- default user accounts (CLI auto-provisioning) ---------------------
    default_budget: float = 100.0
    default_deadline: float = 3600.0

    def __post_init__(self) -> None:
        if self.base_price <= 0:
            raise ValueError("base_price must be positive")
        if self.speed_premium < 0 or self.load_factor < 0 \
                or self.util_factor < 0:
            raise ValueError("market factors must be >= 0")
        if self.repricing_jitter < 0:
            raise ValueError("repricing_jitter must be >= 0")
        if self.demand_bump < 0:
            raise ValueError("demand_bump must be >= 0")
        if self.auction_pricing not in ("first", "second"):
            raise ValueError("auction_pricing must be 'first' or 'second'")
        if self.bid_escalation < 0:
            raise ValueError("bid_escalation must be >= 0")
        if not 0.0 <= self.escalation_onset <= 1.0:
            raise ValueError("escalation_onset must be in [0, 1]")
        if self.default_budget <= 0 or self.default_deadline <= 0:
            raise ValueError("default budget/deadline must be positive")
