"""GuardrailConfig: one knob bundle for the self-healing layer.

Every threshold is expressed in virtual seconds (or counts) and has a
default sized against the Metasystem's default 30 s host reassessment
heartbeat: a host is SUSPECT after missing ~2 heartbeats and DOWN after
missing ~5, while a couple of consecutive transport failures fast-track
the classification without waiting for staleness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["GuardrailConfig"]


@dataclass(frozen=True)
class GuardrailConfig:
    """Parameters for :class:`~repro.guardrails.layer.GuardrailsLayer`."""

    # -- circuit breakers (per transport destination) ----------------------
    #: consecutive transport failures before a breaker opens
    breaker_failure_threshold: int = 3
    #: how long an open breaker rejects before allowing a half-open probe
    breaker_cooldown: float = 45.0

    # -- health monitor ----------------------------------------------------
    #: classification sweep period on the virtual clock
    health_interval: float = 15.0
    #: heartbeat silence before a host is SUSPECT (~2.5 missed heartbeats)
    suspect_after: float = 75.0
    #: heartbeat silence before a host is DOWN (~5 missed heartbeats)
    down_after: float = 150.0
    #: consecutive invoke failures that force SUSPECT regardless of age
    fail_suspect: int = 2
    #: consecutive invoke failures that force DOWN regardless of age
    fail_down: int = 5

    # -- admission control (per Host Object) -------------------------------
    #: bound on granted-but-unredeemed reservations (None disables)
    admission_max_pending: Optional[int] = 16
    #: machine load average above which new reservations are refused
    #: (None disables)
    admission_load_limit: Optional[float] = 16.0

    # -- enactor load shedding --------------------------------------------
    #: skip SUSPECT hosts during reservation rounds when fallback
    #: schedules remain (DOWN hosts are always shed)
    shed_suspect: bool = True

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if self.health_interval <= 0:
            raise ValueError("health_interval must be positive")
        if not 0 < self.suspect_after <= self.down_after:
            raise ValueError(
                "need 0 < suspect_after <= down_after")
        if not 0 < self.fail_suspect <= self.fail_down:
            raise ValueError("need 0 < fail_suspect <= fail_down")
        if (self.admission_max_pending is not None
                and self.admission_max_pending < 1):
            raise ValueError("admission_max_pending must be >= 1")
        if (self.admission_load_limit is not None
                and self.admission_load_limit <= 0):
            raise ValueError("admission_load_limit must be positive")
