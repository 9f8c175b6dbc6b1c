"""RetryPolicy: seeded exponential backoff for transient faults.

"Legion objects are built to accommodate failure at any step in the
scheduling process" (paper section 3.1) — this is the *policy* half of
that claim.  A :class:`RetryPolicy` is installed opt-in
(``meta.install(RetryLayer(policy))``, :mod:`repro.chaos.layer`) on:

* :meth:`repro.net.transport.Transport.invoke` — retries network
  failures of calls the caller marked ``idempotent=True`` (Collection
  queries are; ``create_instance`` is not);
* the Enactor's reservation round
  (:meth:`repro.enactor.enactor.Enactor._retry_failed`) — re-issues
  reservation requests whose failures were transient before falling
  back to variant schedules.

Retryability is classified by the error hierarchy
(:attr:`repro.errors.LegionError.retryable`): a
:class:`~repro.errors.MessageLostError` is a per-message coin flip, so
resending is exactly right; a
:class:`~repro.errors.HostUnreachableError` persists on simulation
timescales, so it is not retried unless ``retry_unreachable`` is set.

Backoff jitter draws from a seeded stream, keeping retry-enabled runs
fully deterministic.
"""

from __future__ import annotations

import math
from typing import Any, Optional

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Exponential backoff + jitter with attempt cap and deadline.

    ``attempt`` counts failures so far: after the first failure
    ``next_delay(exc, 1, elapsed)`` is consulted, and retries stop when
    ``attempt >= max_attempts`` (so ``max_attempts`` bounds *total*
    tries), when ``elapsed`` exceeds ``deadline`` virtual seconds, or
    when the error is not retryable.
    """

    def __init__(self, max_attempts: int = 4,
                 base_delay: float = 0.5,
                 multiplier: float = 2.0,
                 max_delay: float = 30.0,
                 jitter: float = 0.5,
                 deadline: float = math.inf,
                 retry_unreachable: bool = False,
                 rng: Any = None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.deadline = float(deadline)
        self.retry_unreachable = retry_unreachable
        #: seeded numpy Generator for jitter; None disables jitter
        self.rng = rng

    # -- classification -----------------------------------------------------
    def is_retryable(self, exc: BaseException) -> bool:
        """Generic flag-driven classification.

        An instance-level ``retryable`` attribute is authoritative in
        both directions — ``exc.retryable = False`` set on a single
        raised error vetoes retries even for a class whose default is
        retryable, and the ``retry_unreachable`` escape hatch never
        overrides an explicit veto (so a
        :class:`~repro.errors.CircuitOpenError` always fails fast).
        """
        override = exc.__dict__.get("retryable") if hasattr(exc, "__dict__") \
            else None
        if override is not None:
            return bool(override)
        if getattr(exc, "retryable", False):
            return True
        if self.retry_unreachable:
            from ..errors import HostUnreachableError
            return isinstance(exc, HostUnreachableError)
        return False

    # -- backoff ------------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """Jittered delay before retry number ``attempt`` (1-based)."""
        raw = min(self.base_delay * self.multiplier ** (attempt - 1),
                  self.max_delay)
        if self.jitter > 0.0 and self.rng is not None:
            raw *= 1.0 + self.jitter * float(self.rng.uniform(-1.0, 1.0))
        return max(raw, 0.0)

    def next_delay(self, exc: BaseException, attempt: int,
                   elapsed: float) -> Optional[float]:
        """Delay before the next try, or None to give up."""
        if not self.is_retryable(exc):
            return None
        if attempt >= self.max_attempts:
            return None
        if elapsed >= self.deadline:
            return None
        return self.backoff(attempt)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<RetryPolicy attempts={self.max_attempts} "
                f"base={self.base_delay} x{self.multiplier} "
                f"max={self.max_delay} jitter={self.jitter}>")
