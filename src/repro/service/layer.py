"""ServiceLayer: the live service tier (and its recovery layer) on a
Metasystem."""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..layer import Layer
from .config import ServiceConfig
from .gateway import RequestGateway
from .queue import PlacementQueue
from .workers import WorkerPool

__all__ = ["ServiceLayer"]


class ServiceLayer(Layer):
    """A :class:`~repro.service.gateway.RequestGateway` feeding a bounded
    :class:`~repro.service.queue.PlacementQueue` drained by a
    :class:`~repro.service.workers.WorkerPool` of seeded daemons.

    ``app`` is the Class placed per request (default: a new portable
    ``service-app`` class sized by ``config.work``).  ``recovery`` (a
    :class:`~repro.recovery.RecoveryConfig`, or ``True`` for defaults)
    adds the request journal, worker leases and the Supervisor; its
    workers run with ``viable_cache=False`` so a checkpoint-restored
    scheduler (cold cache) behaves like one that ran straight through.
    Teardown stops the supervisor and shuts the pool down; the world,
    the app class and its instances keep running."""

    name = "service"

    def __init__(self, config: Optional[ServiceConfig] = None,
                 app: Any = None, recovery: Any = None):
        if recovery is True:
            from ..recovery.config import RecoveryConfig
            recovery = RecoveryConfig()
        self.config = config if config is not None else ServiceConfig()
        #: the Class object service requests place instances of
        self.app = app
        #: recovery layer config; it and the parts below stay None when
        #: the tier runs without it
        self.recovery = recovery
        self.journal: Any = None
        self.leases: Any = None
        self.supervisor: Any = None

    def install(self, meta: Any) -> None:
        config, recovery = self.config, self.recovery
        if self.app is None:
            from ..workload.testbed import implementations_for_all_platforms
            self.app = meta.create_class("service-app",
                                         implementations_for_all_platforms(),
                                         work_units=config.work)
        heartbeat_interval = 0.0
        sched_kwargs = {}
        if recovery is not None:
            from ..recovery import LeaseTable, RequestJournal, Supervisor
            self.journal = RequestJournal(lambda: meta.sim.now,
                                          metrics=meta.metrics)
            self.leases = LeaseTable(recovery.lease_ttl, metrics=meta.metrics)
            heartbeat_interval = recovery.heartbeat_interval
            sched_kwargs["viable_cache"] = False
        self.queue = PlacementQueue(config.queue_cap, config.backpressure,
                                    metrics=meta.metrics)
        self.gateway = RequestGateway(meta.sim, self.queue, config,
                                      metrics=meta.metrics, spans=meta.spans,
                                      hosts=meta.hosts, journal=self.journal)
        self.pool = WorkerPool(
            meta.sim, self.queue, self.gateway, self.app, config,
            scheduler_factory=lambda i: meta.make_scheduler(
                config.scheduler,
                rng=meta.rngs.stream("service", "sched", str(i)),
                name=f"svc-w{i}", **sched_kwargs),
            rng_factory=lambda i: meta.rngs.stream("service", "retry",
                                                   str(i)),
            metrics=meta.metrics, spans=meta.spans,
            leases=self.leases, journal=self.journal,
            heartbeat_interval=heartbeat_interval)
        self.pool.start()
        if recovery is not None:
            self.supervisor = Supervisor(meta.sim, self.gateway, self.leases,
                                         self.journal, self.app,
                                         recovery.scan_interval,
                                         metrics=meta.metrics,
                                         spans=meta.spans).start()

    def report_sections(self) -> Tuple[Dict[str, Any], ...]:
        """The ``requests``, ``queue`` and ``pool`` report sections."""
        by_state: Dict[str, int] = {}
        for request in self.gateway.requests.values():
            by_state[request.state] = by_state.get(request.state, 0) + 1
        requests = {
            "submitted": self.gateway.submitted,
            "admission_rejections": self.gateway.admission.rejections,
            "by_state": dict(sorted(by_state.items())),
        }
        pool = {k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self.pool.stats().items()}
        return requests, self.queue.stats(), pool

    def stop(self) -> None:
        """Stop the worker pool (queued requests stay queued)."""
        if self.supervisor is not None:
            self.supervisor.stop()
        self.pool.stop()

    def teardown(self) -> None:
        self.stop()
        self.pool.shutdown()
