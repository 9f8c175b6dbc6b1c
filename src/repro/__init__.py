"""repro — a reproduction of the Legion Resource Management System.

Chapin, Katramatos, Karpovich, Grimshaw, *The Legion Resource Management
System*, IPPS/SPDP Workshop on Job Scheduling Strategies for Parallel
Processing, 1999.

The package implements the paper's full resource-management infrastructure
— Host and Vault objects, non-forgeable reservations, the Collection
information database with its query grammar, Schedulers (Random, IRS, and
the "smarter" policies the paper anticipates), master/variant Schedules,
the Enactor, and the execution Monitor — on top of a deterministic
discrete-event metasystem simulator (machines, domains, wide-area network,
queue-management systems).

Entry point: :class:`repro.Metasystem`.  See README.md for a quickstart.
"""

from . import errors
from .chaos import (
    ChaosInjector,
    ChaosPlan,
    FaultEvent,
    ResilienceReport,
    RetryPolicy,
    generate_campaign,
)
from .hosts import (
    ALL_TYPES,
    BatchQueueHost,
    HostObject,
    LoadWalk,
    MachineSpec,
    ONE_SHOT_SPACE,
    ONE_SHOT_TIME,
    REUSABLE_SPACE,
    REUSABLE_TIME,
    ReservationToken,
    ReservationType,
    SimMachine,
    UnixHost,
)
from .collection import Collection, DataCollectionDaemon
from .economy import (
    BudgetManager,
    EconomyComparison,
    EconomyConfig,
    EconomyReport,
    EconomyScheduler,
    Market,
    SealedBidAuction,
)
from .enactor import Enactor, EnactResult
from .federation import (
    ConsistentHashRing,
    CollectionShard,
    FederatedCollection,
    FederationConfig,
    GossipDaemon,
)
from .metasystem import Metasystem
from .monitor import ExecutionMonitor, MigrationReport, Migrator
from .naming import LOID, ContextSpace, LOIDMinter
from .obs import MetricsRegistry, NullMetricsRegistry
from .objects import (
    ClassObject,
    Implementation,
    LegionObject,
    ObjectState,
    Placement,
)
from .schedule import (
    MasterSchedule,
    ScheduleFeedback,
    ScheduleMapping,
    ScheduleRequestList,
    VariantSchedule,
)
from .service import (
    PlacementQueue,
    RequestGateway,
    ServiceComparison,
    ServiceConfig,
    ServiceReport,
    TrafficGenerator,
    TrafficModel,
    WorkerPool,
)
from .scheduler import (
    IRSScheduler,
    KofNScheduler,
    LoadAwareScheduler,
    ObjectClassRequest,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    SchedulingOutcome,
    StencilScheduler,
)
from .vaults import VaultObject
from .scenario import Scenario, compare, run_scenario

__version__ = "1.0.0"

__all__ = [
    "Metasystem",
    "errors",
    # naming
    "LOID", "LOIDMinter", "ContextSpace",
    # objects
    "LegionObject", "ObjectState", "ClassObject", "Implementation",
    "Placement",
    # hosts & reservations
    "HostObject", "UnixHost", "BatchQueueHost", "SimMachine", "MachineSpec",
    "LoadWalk", "ReservationType", "ReservationToken",
    "ONE_SHOT_SPACE", "REUSABLE_SPACE", "ONE_SHOT_TIME", "REUSABLE_TIME",
    "ALL_TYPES",
    # vaults
    "VaultObject",
    # collection
    "Collection", "DataCollectionDaemon",
    # federation
    "ConsistentHashRing", "CollectionShard", "FederatedCollection",
    "FederationConfig", "GossipDaemon",
    # schedules
    "ScheduleMapping", "MasterSchedule", "VariantSchedule",
    "ScheduleRequestList", "ScheduleFeedback",
    # schedulers
    "Scheduler", "SchedulingOutcome", "ObjectClassRequest",
    "RandomScheduler", "IRSScheduler", "LoadAwareScheduler",
    "RoundRobinScheduler", "StencilScheduler", "KofNScheduler",
    # enactor & monitor
    "Enactor", "EnactResult", "ExecutionMonitor", "Migrator",
    "MigrationReport",
    # observability
    "MetricsRegistry", "NullMetricsRegistry",
    # chaos
    "ChaosInjector", "ChaosPlan", "FaultEvent", "ResilienceReport",
    "RetryPolicy", "generate_campaign",
    # economy
    "BudgetManager", "EconomyComparison", "EconomyConfig",
    "EconomyReport", "EconomyScheduler", "Market", "SealedBidAuction",
    # service
    "PlacementQueue", "RequestGateway", "ServiceComparison",
    "ServiceConfig", "ServiceReport", "TrafficGenerator", "TrafficModel",
    "WorkerPool",
    # scenarios
    "Scenario", "run_scenario", "compare",
]
