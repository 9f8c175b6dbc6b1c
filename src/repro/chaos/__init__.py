"""chaos — deterministic fault-injection campaigns for the metasystem.

The paper claims the RMI "accommodates failure at any step in the
scheduling process" (section 3.1); this subsystem turns that claim into
measured behaviour:

* :mod:`~repro.chaos.faults` — typed, revertible fault actions over the
  existing failure primitives (host crash, domain partition, message
  loss, latency spikes, load surges, federation shard outages);
* :mod:`~repro.chaos.plan` — declarative fault timelines and seeded
  MTBF/MTTR campaign generators (same seed ⇒ byte-identical campaign);
* :mod:`~repro.chaos.injector` — the ChaosInjector daemon that applies
  and reverts faults on the virtual clock, emits ``chaos_*`` metrics
  and trace spans, and guarantees revert-on-teardown;
* :mod:`~repro.chaos.retry` — the opt-in RetryPolicy (seeded backoff)
  that lets the system *survive* transient faults;
* :mod:`~repro.chaos.layer` — ChaosLayer and RetryLayer, which switch
  the two on for a Metasystem;
* :mod:`~repro.chaos.report` — ResilienceReport, the outcome of the
  ``chaos`` scenario (:mod:`repro.scenario`) behind ``legion-sim chaos``.

Entry points: ``meta.install(ChaosLayer(profile=...))``,
``meta.install(RetryLayer())``, and
``run_scenario(chaos(...))`` from :mod:`repro.scenario`.
"""

from .faults import (
    FAULT_CLASSES,
    DomainHeal,
    DomainPartition,
    Fault,
    FederationShardOutage,
    HostCrash,
    HostRecover,
    LatencySpike,
    LoadSurge,
    MessageLossSpike,
    make_fault,
)
from .injector import ChaosInjector, FaultRecord
from .layer import ChaosLayer, RetryLayer
from .plan import (
    PROFILES,
    CampaignConfig,
    ChaosPlan,
    FaultClassConfig,
    FaultEvent,
    generate_campaign,
)
from .report import ResilienceReport
from .retry import RetryPolicy

__all__ = [
    "Fault",
    "HostCrash",
    "HostRecover",
    "DomainPartition",
    "DomainHeal",
    "MessageLossSpike",
    "LatencySpike",
    "LoadSurge",
    "FederationShardOutage",
    "FAULT_CLASSES",
    "make_fault",
    "FaultEvent",
    "FaultClassConfig",
    "CampaignConfig",
    "ChaosPlan",
    "PROFILES",
    "generate_campaign",
    "ChaosInjector",
    "ChaosLayer",
    "FaultRecord",
    "RetryLayer",
    "RetryPolicy",
    "ResilienceReport",
]
