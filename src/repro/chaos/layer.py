"""ChaosLayer and RetryLayer: fault injection and the retry policy."""

from __future__ import annotations

from typing import Any, Optional, Union

from ..errors import LegionError
from ..layer import Layer
from .injector import ChaosInjector
from .plan import PROFILES, CampaignConfig, ChaosPlan, generate_campaign
from .retry import RetryPolicy

__all__ = ["ChaosLayer", "RetryLayer"]


class ChaosLayer(Layer):
    """Arms a :class:`~repro.chaos.injector.ChaosInjector` for ``plan``,
    or for a campaign generated from ``profile`` (a name in
    :data:`~repro.chaos.plan.PROFILES` or a ``CampaignConfig``) with
    ``chaos_seed`` and an optional ``horizon`` override.  Install after
    the hosts are built: generation targets the current topology.
    Teardown reverts every still-active fault."""

    name = "chaos"

    def __init__(self, plan: Optional[ChaosPlan] = None,
                 profile: Union[str, CampaignConfig] = "",
                 chaos_seed: int = 0,
                 horizon: Optional[float] = None):
        if plan is None and not profile:
            raise LegionError("no chaos plan or profile (pass plan= or "
                              "profile=)")
        if isinstance(profile, str) and profile and profile not in PROFILES:
            raise LegionError(f"unknown chaos profile {profile!r}; choose "
                              f"from {sorted(PROFILES)}")
        self.plan = plan
        self.profile = profile
        self.chaos_seed = chaos_seed
        self.horizon = horizon

    def install(self, meta: Any) -> None:
        plan = self.plan
        if plan is None:
            if isinstance(self.profile, str):
                config, profile_name = PROFILES[self.profile], self.profile
            else:
                config, profile_name = self.profile, "custom"
            if self.horizon:
                config = config.with_horizon(self.horizon)
            plan = generate_campaign(meta, config, seed=self.chaos_seed,
                                     profile=profile_name)
        self.injector = ChaosInjector(meta, plan).arm()

    def teardown(self) -> None:
        self.injector.teardown()


class RetryLayer(Layer):
    """One :class:`~repro.chaos.retry.RetryPolicy` on the transport
    (idempotent calls) and the Enactor (reservation round); the default
    policy's jitter draws from the dedicated ``("chaos", "retry")``
    stream, keeping retry-enabled runs deterministic."""

    name = "retries"

    def __init__(self, policy: Optional[RetryPolicy] = None):
        self.policy = policy

    def install(self, meta: Any) -> None:
        if self.policy is None:
            self.policy = RetryPolicy(rng=meta.rngs.stream("chaos", "retry"))
        self.meta = meta
        meta.transport.retry_policy = self.policy
        meta.enactor.retry_policy = self.policy

    def teardown(self) -> None:
        self.meta.transport.retry_policy = None
        self.meta.enactor.retry_policy = None
