"""Live service mode: the production-shaped tier over the Metasystem.

Every entry point before this package was a closed-loop batch campaign —
the experiment loop submitted a wave, waited, submitted the next.  The
paper's Scheduler/Enactor/Collection protocol exists to serve a *stream*
of placement requests from real users; this package wraps the simulated
metasystem in exactly the high-level modular decomposition OAR (Capit et
al., PAPERS.md) gives a batch RMS — submission front-end, queue,
executor — and drives it open-loop:

* :mod:`~repro.service.gateway` — a typed **request gateway**
  (submit/status/cancel/health routes) with front-door admission control
  reusing the guardrails admission semantics (bounded backlog + load
  limit, :class:`~repro.errors.AdmissionRejected`),
* :mod:`~repro.service.queue` — a bounded, priority-aware **placement
  queue** with shed/reject/defer backpressure modes and queue-depth
  metrics,
* :mod:`~repro.service.workers` — a **worker pool**: N seeded daemons on
  the sim kernel draining the queue into ``Scheduler.run`` placements,
  with per-worker spans and retry-on-transient wiring,
* :mod:`~repro.service.layer` — ``meta.install(ServiceLayer(config))``
  wires gateway, queue, pool and optional recovery onto a Metasystem,
* :mod:`~repro.service.traffic` — an **open-loop traffic generator**:
  seeded diurnal/bursty user populations (Lazarevic & Sacks, PAPERS.md)
  scaling to millions of simulated users at O(arrivals) cost,
* :mod:`~repro.service.report` — the :class:`ServiceReport` joining
  per-request end-to-end latency (submit→placed, from the gateway records)
  with the SLO engine's burn-rate verdicts, exported byte-stably — the
  outcome of the ``service`` scenario (:mod:`repro.scenario`) behind
  ``legion-sim serve`` and the committed ``BENCH_service.json``.

Everything runs on virtual time with dedicated ``("service", ...)``
seeded RNG streams, so a saturated→drained service cycle is byte-
identical across reruns — the property ``legion-sim ledger check
service`` gates on.
"""

from .config import ServiceConfig
from .gateway import RequestGateway, ServiceAdmission
from .layer import ServiceLayer
from .queue import PlacementQueue
from .report import ServiceComparison, ServiceReport
from .request import (
    CANCELLED,
    DEFERRED,
    FAILED,
    PLACED,
    PLACING,
    QUEUED,
    REJECTED,
    SHED,
    TERMINAL_STATES,
    RouteResult,
    ServiceRequest,
)
from .slos import default_service_slos
from .traffic import TrafficGenerator, TrafficModel
from .workers import WorkerPool

__all__ = [
    "ServiceConfig",
    "ServiceLayer",
    "RequestGateway",
    "ServiceAdmission",
    "PlacementQueue",
    "WorkerPool",
    "TrafficGenerator",
    "TrafficModel",
    "ServiceRequest",
    "RouteResult",
    "ServiceReport",
    "ServiceComparison",
    "default_service_slos",
    "QUEUED", "DEFERRED", "PLACING", "PLACED", "FAILED", "SHED",
    "REJECTED", "CANCELLED", "TERMINAL_STATES",
]

