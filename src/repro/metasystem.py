"""The Metasystem facade: bootstrap and wiring for a simulated Legion system.

This is the library's main entry point.  It assembles the substrate
(simulator, RNG streams, topology, transport), the core objects (Fig. 1:
LegionClass-style minting, Host and Vault objects and their guardian
classes), and the RMI service objects (Collection, Enactor, Monitor), and
binds everything into a context space.

Optional subsystems — guardrails, the economy, retries, the metrics
sampler, chaos, the service tier — are :class:`~repro.layer.Layer`
objects switched on with :meth:`Metasystem.install`; the facade knows
none of them by name.

Typical use::

    from repro import Metasystem, MachineSpec

    meta = Metasystem(seed=42)
    meta.add_domain("uva")
    for i in range(8):
        meta.add_unix_host(f"uva-ws{i}", "uva", MachineSpec(arch="sparc",
                                                            os_name="SunOS"))
    meta.add_vault("uva")
    app = meta.create_class("MyApp", [Implementation("sparc", "SunOS")],
                            work_units=300.0)
    scheduler = meta.make_scheduler("random")
    outcome = scheduler.run([ObjectClassRequest(app, count=4)])
    meta.install(GuardrailsLayer())   # from repro.guardrails
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set

from .collection.collection import Collection, Credential
from .collection.daemon import DataCollectionDaemon
from .enactor.enactor import Enactor
from .errors import LegionError, NotAMemberError, UnknownObjectError
from .federation.ring import ConsistentHashRing
from .federation.router import FederatedCollection, FederationConfig
from .federation.shard import CollectionShard
from .federation.sync import GossipDaemon
from .hosts.batch_host import BatchQueueHost
from .hosts.host_object import HostObject
from .hosts.machine import LoadWalk, MachineSpec, SimMachine
from .hosts.policy import PlacementPolicy
from .hosts.unix_host import UnixHost
from .layer import SHIPPED_LAYERS, Layer
from .monitor.migration import Migrator
from .monitor.monitor import ExecutionMonitor
from .accounting.cost_sched import CostAwareScheduler
from .naming.context import ContextSpace
from .naming.loid import LOID, LOIDMinter
from .net.latency import LatencyModel, MetasystemLatencyModel
from .net.topology import AdministrativeDomain, NetLocation, Topology
from .net.transport import Transport
from .objects.base import LegionObject
from .obs.registry import MetricsRegistry
from .obs.spans import NullSpanTracer, SpanTracer
from .objects.class_object import ClassObject, Implementation, Placement
from .queues.backfill import BackfillQueue
from .queues.base import QueueSystem
from .queues.condor import CondorPool
from .queues.fcfs import FCFSQueue
from .scheduler.base import ObjectClassRequest, Scheduler
from .scheduler.gang import GangScheduler
from .scheduler.irs import IRSScheduler
from .scheduler.kofn import KofNScheduler
from .scheduler.load_aware import LoadAwareScheduler
from .scheduler.mct import MCTScheduler
from .scheduler.random_sched import RandomScheduler
from .scheduler.round_robin import RoundRobinScheduler
from .scheduler.stencil import StencilScheduler
from .sim.kernel import Simulator
from .sim.rng import RngRegistry
from .vaults.vault_object import VaultObject

__all__ = ["Metasystem"]

_SCHEDULER_KINDS = {
    "random": RandomScheduler,
    "irs": IRSScheduler,
    "cost": CostAwareScheduler,
    "load": LoadAwareScheduler,
    "load-aware": LoadAwareScheduler,
    "mct": MCTScheduler,
    "gang": GangScheduler,
    "round-robin": RoundRobinScheduler,
    "stencil": StencilScheduler,
    "kofn": KofNScheduler,
}


class Metasystem:
    """A fully wired, simulated Legion metasystem."""

    def __init__(self, seed: int = 0,
                 latency_model: Optional[LatencyModel] = None,
                 loss_probability: float = 0.0,
                 reassess_interval: float = 30.0,
                 require_collection_auth: bool = True,
                 domain: str = "legion",
                 tracing: str = "spans",
                 federation: Any = None):
        if tracing not in ("off", "spans"):
            raise ValueError(
                f"tracing must be 'off' or 'spans', got {tracing!r}")
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.tracing = tracing
        self.metrics = MetricsRegistry(clock=self.sim.clock)
        if tracing == "spans":
            self.spans: SpanTracer = SpanTracer(self.sim.clock)
            # outlier histogram buckets remember which trace produced them
            self.metrics.set_exemplar_provider(
                lambda: self.spans.current_trace_id)
        else:
            self.spans = NullSpanTracer()
        self.metrics.gauge_fn("sim_events_processed",
                              lambda: self.sim.events_processed,
                              help="kernel actions dispatched so far")
        self.metrics.gauge_fn("sim_queue_depth",
                              lambda: self.sim.queue_depth,
                              help="actions pending on the event heap")
        self.metrics.gauge_fn("span_records",
                              lambda: len(self.spans),
                              help="spans currently retained")
        self.topology = Topology()
        self.latency_model = latency_model or MetasystemLatencyModel(
            self.topology)
        self.transport = Transport(self.sim, self.topology,
                                   self.latency_model, self.rngs,
                                   loss_probability=loss_probability,
                                   metrics=self.metrics,
                                   spans=self.spans)
        self.minter = LOIDMinter(domain)
        self.context = ContextSpace()
        self.reassess_interval = reassess_interval

        self._registry: Dict[LOID, Any] = {}
        self.hosts: List[HostObject] = []
        self.vaults: List[VaultObject] = []
        self.classes: Dict[str, ClassObject] = {}

        # the information database: one monolithic Collection by default,
        # or — with the ``federation=`` knob — a consistent-hash federation
        # of peer Collection shards behind the same Fig. 4 interface
        self.federation_config = FederationConfig.normalize(federation)
        self.collection_shards: List[CollectionShard] = []
        self.gossip: Optional[GossipDaemon] = None
        if self.federation_config is None:
            self.collection = Collection(
                self.minter.mint("svc", "collection"),
                location=None, require_auth=require_collection_auth,
                clock=self.sim.clock, metrics=self.metrics)
            self.collection.spans = self.spans
        else:
            self.collection = self._build_federation(
                self.federation_config, require_collection_auth)
        self._register(self.collection)
        self.context.bind("/etc/Collection", self.collection.loid)
        self._host_credentials: Dict[LOID, Credential] = {}

        self.enactor = Enactor(self.transport, self.resolve,
                               metrics=self.metrics)
        self.migrator = Migrator(self.transport, self.resolve)
        self.monitor: Optional[ExecutionMonitor] = None
        self._machine_serial = itertools.count()
        #: hosts added with ``push_to_collection=False``
        self._unpushed: Set[LOID] = set()

        #: installed layers by name, in install order (see install())
        self.layers: Dict[str, Layer] = {}

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------
    def install(self, layer: Layer) -> Layer:
        """Switch an optional subsystem on (see :mod:`repro.layer`):
        ``layer.install(self)``, then ``layer.on_host`` for every host,
        now and as hosts join.  Returns the layer, which then reads as
        ``meta.<layer.name>``; raises :class:`LegionError` if a layer of
        that name is already installed."""
        if layer.name in self.layers:
            raise LegionError(f"a {layer.name!r} layer is already installed")
        layer.install(self)
        self.layers[layer.name] = layer
        for host in self.hosts:
            layer.on_host(host, self._host_credentials[host.loid])
        return layer

    def uninstall(self, name: str) -> Layer:
        """Tear the named layer down and detach it; returns the layer."""
        layer = self.layers.pop(name, None)
        if layer is None:
            raise LegionError(f"no {name!r} layer is installed")
        layer.teardown()
        return layer

    def __getattr__(self, name: str) -> Any:
        # reached only for names that are not ordinary attributes: an
        # installed layer reads as ``meta.<name>``, a shipped layer that
        # is not installed as None
        layers = self.__dict__.get("layers", {})
        if name in layers:
            return layers[name]
        if name in SHIPPED_LAYERS:
            return None
        raise AttributeError(f"no attribute or layer {name!r}")

    # ------------------------------------------------------------------
    # federation
    # ------------------------------------------------------------------
    def _build_federation(self, cfg: FederationConfig,
                          require_auth: bool) -> FederatedCollection:
        """Assemble shards, ring, router, and (optionally) gossip."""
        ring = ConsistentHashRing(seed=self.rngs.seed, vnodes=cfg.vnodes)
        for i in range(cfg.shards):
            shard_id = f"shard{i}"
            ring.add_shard(shard_id)
            coll = Collection(
                self.minter.mint("svc", f"collection-{shard_id}"),
                location=None, require_auth=require_auth,
                clock=self.sim.clock, metrics=self.metrics)
            coll.spans = self.spans
            shard = CollectionShard(shard_id, coll, ring,
                                    cfg.replication)
            self.collection_shards.append(shard)
            self._register(coll)
            self.context.bind(f"/etc/Collection.{shard_id}", coll.loid)
            self.metrics.gauge(
                "federation_shard_members",
                help="records held per federation shard",
                labelnames=["shard"]).labels(
                    shard=shard_id).set_function(
                        lambda s=shard: float(len(s)))
        router = FederatedCollection(
            self.minter.mint("svc", "collection"),
            self.collection_shards, ring, cfg.replication,
            transport=self.transport, clock=self.sim.clock,
            metrics=self.metrics, require_auth=require_auth,
            cache_ttl=cfg.cache_ttl, shard_timeout=cfg.shard_timeout)
        router.spans = self.spans
        if cfg.gossip_interval > 0:
            self.gossip = GossipDaemon(
                self.sim, self.collection_shards,
                interval=cfg.gossip_interval,
                rng=self.rngs.stream("federation", "gossip"),
                transport=self.transport, metrics=self.metrics,
                spans=self.spans)
            self.gossip.start()
        return router

    def place_federation(self, domains: Optional[Sequence[str]] = None
                         ) -> List[NetLocation]:
        """Give every federation shard a network node (round-robin over
        ``domains``, default all registered domains), so scatter-gather
        queries and replica writes cost real messages and shards can be
        partitioned or taken down through the topology."""
        if self.federation_config is None:
            raise LegionError("metasystem is not federated")
        names = list(domains) if domains else [
            d.name for d in self.topology.domains()]
        if not names:
            raise LegionError("no domains to place shards in")
        locations = []
        for i, shard in enumerate(self.collection_shards):
            location = self.topology.add_node(
                names[i % len(names)], f"collection-{shard.shard_id}")
            shard.location = location
            locations.append(location)
        return locations

    # ------------------------------------------------------------------
    # registry / naming
    # ------------------------------------------------------------------
    def _register(self, obj: Any) -> None:
        self._registry[obj.loid] = obj

    def resolve(self, loid: LOID) -> Any:
        """The system-wide LOID resolver handed to Classes/Enactor/etc."""
        return self._registry.get(loid)

    def resolve_strict(self, loid: LOID) -> Any:
        obj = self._registry.get(loid)
        if obj is None:
            raise UnknownObjectError(f"no object registered for {loid}")
        return obj

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_domain(self, name: str, distance: float = 1.0,
                   description: str = "") -> AdministrativeDomain:
        return self.topology.add_domain(
            AdministrativeDomain(name, description, distance))

    def place_collection(self, domain: str,
                         node_name: str = "collection-svc") -> NetLocation:
        """Give the Collection a network location so queries and updates
        cost real (simulated) messages — required for experiments that
        measure information-service latency (E2, E3, E6)."""
        location = self.topology.add_node(domain, node_name)
        self.collection.location = location
        return location

    def place_enactor(self, domain: str,
                      node_name: str = "enactor-svc") -> NetLocation:
        """Give the Enactor a service location (reservation requests then
        originate from that node rather than a free endpoint)."""
        location = self.topology.add_node(domain, node_name)
        self.enactor.location = location
        self.enactor.coallocator.src = location
        return location

    # ------------------------------------------------------------------
    # hosts
    # ------------------------------------------------------------------
    def _wire_host(self, host: HostObject, push_to_collection: bool) -> None:
        host.spans = self.spans
        self._register(host)
        self.hosts.append(host)
        self.context.bind(f"/hosts/{host.machine.name}", host.loid)
        # same-domain vaults are compatible by default
        for vault in self.vaults:
            if vault.location.domain == host.domain:
                host.add_compatible_vault(vault.loid)
        host.reassess()
        credential = self.collection.join(host.loid,
                                          host.attributes.snapshot())
        self._host_credentials[host.loid] = credential
        if push_to_collection:
            def push(h: HostObject, now: float,
                     cred: Credential = credential) -> None:
                try:
                    self.collection.update_entry(
                        h.loid, h.attributes.snapshot(), cred)
                except NotAMemberError:
                    # the health-aware daemon evicted the record while the
                    # host was DOWN — recovery re-joins (credentials are
                    # deterministic per member, so ``cred`` stays valid)
                    self.collection.join(h.loid, h.attributes.snapshot())
            host.add_push_target(push)
        else:
            self._unpushed.add(host.loid)
        for layer in self.layers.values():
            layer.on_host(host, credential)
        host.start_periodic_reassessment()

    def add_unix_host(self, name: str, domain: str,
                      spec: Optional[MachineSpec] = None,
                      policy: Optional[PlacementPolicy] = None,
                      load_walk: Optional[LoadWalk] = None,
                      initial_load: float = 0.0,
                      slots: int = 0,
                      price: float = 0.0,
                      push_to_collection: bool = True,
                      load_trigger_level: float = 4.0) -> UnixHost:
        """Create a workstation/SMP machine plus its Unix Host Object."""
        spec = spec or MachineSpec()
        location = self.topology.add_node(domain, name)
        machine = SimMachine(name, spec, location, self.sim, self.rngs,
                             load_walk=load_walk, initial_load=initial_load)
        host = UnixHost(self.minter.mint("host", name), machine, self.sim,
                        policy=policy, slots=slots,
                        price_per_cpu_second=price,
                        reassess_interval=self.reassess_interval,
                        load_trigger_level=load_trigger_level,
                        metrics=self.metrics)
        self._wire_host(host, push_to_collection)
        return host

    def add_batch_host(self, name: str, domain: str,
                       queue_kind: str = "fcfs", nodes: int = 16,
                       node_speed: float = 1.0,
                       spec: Optional[MachineSpec] = None,
                       policy: Optional[PlacementPolicy] = None,
                       push_to_collection: bool = True,
                       max_queue_length: int = 1000,
                       **queue_kwargs) -> BatchQueueHost:
        """Create a queue-managed cluster fronted by a Batch Queue Host.

        ``queue_kind``: ``"fcfs"`` (LoadLeveler/Codine-like), ``"backfill"``
        (Maui-like, reservation capable), or ``"condor"`` (cycle-scavenged
        pool).
        """
        spec = spec or MachineSpec(cpus=2, memory_mb=512.0)
        location = self.topology.add_node(domain, name)
        machine = SimMachine(name, spec, location, self.sim, self.rngs)
        queue: QueueSystem
        if queue_kind == "fcfs":
            queue = FCFSQueue(self.sim, nodes, node_speed,
                              name=f"{name}-fcfs", **queue_kwargs)
        elif queue_kind == "backfill":
            queue = BackfillQueue(self.sim, nodes, node_speed,
                                  name=f"{name}-maui", **queue_kwargs)
        elif queue_kind == "condor":
            queue = CondorPool(self.sim, nodes, self.rngs, node_speed,
                               name=f"{name}-condor", **queue_kwargs)
        else:
            raise ValueError(f"unknown queue kind {queue_kind!r}")
        host = BatchQueueHost(self.minter.mint("host", name), machine,
                              self.sim, queue, policy=policy,
                              max_queue_length=max_queue_length,
                              reassess_interval=self.reassess_interval,
                              metrics=self.metrics)
        self._wire_host(host, push_to_collection)
        return host

    # ------------------------------------------------------------------
    # vaults
    # ------------------------------------------------------------------
    def add_vault(self, domain: str, name: str = "",
                  capacity_bytes: float = 10e9,
                  cost_per_byte: float = 0.0,
                  allowed_domains: Optional[List[str]] = None
                  ) -> VaultObject:
        """Create a Vault in a domain and make same-domain hosts compatible."""
        name = name or f"{domain}-vault{next(self._machine_serial)}"
        location = self.topology.add_node(domain, name)
        vault = VaultObject(self.minter.mint("vault", name), location,
                            capacity_bytes=capacity_bytes,
                            cost_per_byte=cost_per_byte,
                            allowed_domains=allowed_domains)
        vault.spans = self.spans
        self._register(vault)
        self.vaults.append(vault)
        self.context.bind(f"/vaults/{name}", vault.loid)
        for host in self.hosts:
            if host.domain == domain:
                host.add_compatible_vault(vault.loid)
                # re-assessment pushes the new record; hosts without a
                # push target get the one explicit write instead
                host.reassess()
                if host.loid in self._unpushed:
                    self.collection.update_entry(
                        host.loid, host.attributes.snapshot(),
                        self._host_credentials[host.loid])
        return vault

    # ------------------------------------------------------------------
    # classes
    # ------------------------------------------------------------------
    def create_class(self, name: str,
                     implementations: Sequence[Implementation],
                     work_units: Optional[float] = None,
                     memory_mb: float = 8.0,
                     attr_factory: Optional[
                         Callable[[LOID], Mapping[str, Any]]] = None
                     ) -> ClassObject:
        """Create a Class object whose instances carry workload attributes.

        ``work_units`` makes every instance a finite job of that size;
        ``attr_factory`` may instead compute per-instance attributes (it
        receives the new instance's LOID).
        """
        def factory(loid: LOID, class_loid: LOID) -> LegionObject:
            instance = LegionObject(loid, class_loid)
            if work_units is not None:
                instance.attributes.set("work_units", float(work_units))
            instance.attributes.set("memory_mb", float(memory_mb))
            if attr_factory is not None:
                instance.attributes.update(dict(attr_factory(loid)))
            return instance

        class_obj = ClassObject(
            self.minter.mint("class", name), name, self.minter,
            self.resolve, implementations=list(implementations),
            instance_factory=factory,
            default_placer=self._default_placer)
        # advertise expected resource characteristics on the class itself
        # ("any Scheduler may query the object classes to determine such
        # information", section 3.3)
        if work_units is not None:
            class_obj.attributes.set("work_units", float(work_units))
        class_obj.attributes.set("memory_mb", float(memory_mb))
        self._register(class_obj)
        self.classes[name] = class_obj
        self.context.bind(f"/classes/{name}", class_obj.loid)
        return class_obj

    def _default_placer(self, class_obj: ClassObject,
                        hint: Any) -> Optional[Placement]:
        """The Class's quick, "almost certainly non-optimal" placement
        (section 2.1): a single random viable host from the Collection.

        ``hint`` may be a vault LOID (implicit reactivation passes the
        object's existing vault): candidates are then restricted to hosts
        that can reach it.
        """
        from .scheduler.base import implementation_query
        try:
            query = implementation_query(class_obj.get_implementations())
        except LegionError:
            return None
        records = self.collection.query(query)
        if isinstance(hint, LOID):
            records = [r for r in records
                       if str(hint) in (r.get("compatible_vaults") or [])]
        if not records:
            return None
        rng = self.rngs.stream("class", class_obj.name, "default-placer")
        record = records[int(rng.integers(0, len(records)))]
        if isinstance(hint, LOID):
            return Placement(host_loid=record.member, vault_loid=hint)
        vaults = Scheduler.compatible_vaults_of(record)
        if not vaults:
            return None
        return Placement(host_loid=record.member, vault_loid=vaults[0])

    # ------------------------------------------------------------------
    # RMI services
    # ------------------------------------------------------------------
    def make_scheduler(self, kind: str = "random", **kwargs) -> Scheduler:
        """Instantiate one of the bundled Schedulers, fully wired.

        ``kind="economy"`` (or the explicit ``"economy-cost"`` /
        ``"economy-time"`` spellings) builds an
        :class:`~repro.economy.sched.EconomyScheduler` over the installed
        economy layer (installing a default one if there is none) and
        auto-provisions the named
        ``user=`` account at the config's default budget/deadline if it
        does not exist yet.
        """
        if kind in ("economy", "economy-cost", "economy-time"):
            from .economy import EconomyLayer, EconomyScheduler
            suite = self.economy or self.install(EconomyLayer())
            mode = kwargs.pop("mode", None)
            if mode is None:
                mode = "time" if kind == "economy-time" else "cost"
            user = kwargs.pop("user", "default")
            suite.budgets.ensure(user,
                                 budget=suite.config.default_budget,
                                 deadline=suite.config.default_deadline)
            rng = kwargs.pop("rng", None)
            if rng is None:
                rng = self.rngs.stream("scheduler", kind, user)
            kwargs.setdefault("bid_escalation",
                              suite.config.bid_escalation)
            kwargs.setdefault("escalation_onset",
                              suite.config.escalation_onset)
            return EconomyScheduler(
                self.collection, self.enactor, self.transport, rng=rng,
                budgets=suite.budgets, auction=suite.auction,
                market=suite.market, user=user, mode=mode, **kwargs)
        cls = _SCHEDULER_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown scheduler kind {kind!r}; choose from "
                f"{sorted([*_SCHEDULER_KINDS, 'economy', 'economy-cost', 'economy-time'])}")
        rng = kwargs.pop("rng", None)
        if rng is None:
            rng = self.rngs.stream("scheduler", kind)
        return cls(self.collection, self.enactor, self.transport,
                   rng=rng, **kwargs)

    def make_daemon(self, interval: float = 60.0,
                    watch_hosts: bool = True,
                    evict_down_after: Optional[float] = None
                    ) -> DataCollectionDaemon:
        daemon = DataCollectionDaemon(
            self.sim, [self.collection], interval=interval,
            rng=self.rngs.stream("daemon"), metrics=self.metrics)
        if self.guardrails is not None:
            # health-aware sweeps: skip DOWN sources and evict their
            # records once DOWN longer than the horizon (default: twice
            # the monitor's down_after threshold)
            horizon = (evict_down_after if evict_down_after is not None
                       else 2.0 * self.guardrails.config.down_after)
            daemon.attach_health(self.guardrails.monitor,
                                 evict_after=horizon)
        if watch_hosts:
            for host in self.hosts:
                daemon.watch(host)
        return daemon

    def make_monitor(self, **kwargs) -> ExecutionMonitor:
        self.monitor = ExecutionMonitor(self.migrator, self.collection,
                                        self.resolve, **kwargs)
        return self.monitor

    # ------------------------------------------------------------------
    # time control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def advance(self, seconds: float) -> None:
        """Run the world forward by ``seconds`` of virtual time."""
        self.sim.run_until(self.sim.now + seconds)

    def run_until_quiescent(self, max_time: Optional[float] = None) -> None:
        self.sim.run(until=max_time)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def host_by_name(self, name: str) -> HostObject:
        loid = self.context.lookup(f"/hosts/{name}")
        return self.resolve_strict(loid)

    def snapshot_loads(self) -> Dict[str, float]:
        return {h.machine.name: h.machine.load_average for h in self.hosts}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Metasystem t={self.sim.now:.1f}s hosts={len(self.hosts)} "
                f"vaults={len(self.vaults)} classes={len(self.classes)}>")
