"""GuardrailsLayer: the self-healing layer's wiring onto a Metasystem."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..layer import Layer
from .admission import AdmissionController
from .breaker import BreakerBoard
from .config import GuardrailConfig
from .health import HealthMonitor

__all__ = ["GuardrailsLayer"]


class GuardrailsLayer(Layer):
    """Detect → quarantine → route around → probe → recover: a
    :class:`~repro.guardrails.health.HealthMonitor`, circuit breakers on
    the transport, a shared admission controller on every Host, and
    DOWN-record exclusion in the Collection plus Enactor load shedding.
    It draws no random numbers, so installing it never perturbs the
    seeded streams of an existing scenario."""

    name = "guardrails"

    def __init__(self, config: Optional[GuardrailConfig] = None):
        self.config = config if config is not None else GuardrailConfig()

    def install(self, meta: Any) -> None:
        config = self.config
        self.meta = meta
        self.monitor = HealthMonitor(
            meta.sim, meta.collection,
            interval=config.health_interval,
            suspect_after=config.suspect_after,
            down_after=config.down_after,
            fail_suspect=config.fail_suspect,
            fail_down=config.fail_down,
            metrics=meta.metrics, spans=meta.spans)
        self.board = BreakerBoard(
            lambda: meta.sim.now,
            failure_threshold=config.breaker_failure_threshold,
            cooldown=config.breaker_cooldown,
            metrics=meta.metrics, spans=meta.spans,
            listener=self.monitor.note_outcome)
        self.admission = AdmissionController(
            max_pending=config.admission_max_pending,
            load_limit=config.admission_load_limit,
            metrics=meta.metrics)
        meta.transport.breakers = self.board
        meta.enactor.health = self.monitor
        self._shed_suspect = meta.enactor.shed_suspect
        meta.enactor.shed_suspect = config.shed_suspect
        meta.collection.exclude_down_members = True
        self.monitor.start()

    def on_host(self, host: Any, credential: Any) -> None:
        host.admission = self.admission
        self.monitor.watch(host, credential)

    def audit(self) -> Dict[str, Any]:
        return {"breakers": self.board.snapshot(),
                "health": self.monitor.snapshot()}

    def teardown(self) -> None:
        meta = self.meta
        self.monitor.stop()
        meta.transport.breakers = None
        meta.enactor.health = None
        meta.enactor.shed_suspect = self._shed_suspect
        meta.collection.exclude_down_members = False
        for host in meta.hosts:
            self.monitor.unwatch(host)
            if host.admission is self.admission:
                host.admission = None
