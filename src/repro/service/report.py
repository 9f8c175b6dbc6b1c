"""ServiceReport / ServiceComparison: the ``service`` scenario's outcome.

The ``service`` scenario (:mod:`repro.scenario`) builds the standard
testbed, starts the service tier, drives it **open-loop** with seeded
diurnal/bursty traffic (including a deterministic overload surge) and
drains; :func:`service_report` then aggregates a :class:`ServiceReport`
joining

* per-request end-to-end latency (submit→placed) from the gateway's
  request records (the same with tracing off), and
* the SLO engine's burn-rate verdicts over the windowed ``service_*``
  time series

— serialized with sorted keys and rounded floats so a committed
``BENCH_service.json`` is byte-stable across reruns of the same seed.

The ``shedding`` comparison replays the identical seeded world twice —
bounded backlog (shedding on) vs unbounded (shedding off) — and its
``shedding_protects_slo`` gate is the acceptance criterion of
``legion-sim serve --compare``: the overload surge must exhaust the e2e
latency error budget with shedding off while the bounded run keeps p99
inside the SLO threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from .slos import E2E_THRESHOLD, default_service_slos
from .traffic import TrafficModel

__all__ = ["ServiceReport", "ServiceComparison", "default_model",
           "service_report"]


def _round(value: float) -> float:
    return round(float(value), 6)


@dataclass
class ServiceReport:
    """Aggregated outcome of one seeded live-service campaign."""

    scheduler: str = "irs"
    seed: int = 0
    users: int = 0
    duration: float = 0.0
    workers: int = 0
    queue_cap: int = 0
    backpressure: str = "shed"
    work: float = 0.0
    slo_threshold: float = E2E_THRESHOLD

    traffic: Dict[str, Any] = field(default_factory=dict)
    #: gateway registry: submitted count + requests by terminal state
    requests: Dict[str, Any] = field(default_factory=dict)
    queue: Dict[str, Any] = field(default_factory=dict)
    pool: Dict[str, Any] = field(default_factory=dict)
    #: submit→placed latency distribution over the placed requests
    latency: Dict[str, Any] = field(default_factory=dict)
    #: SLO engine verdicts over the windowed ``service_*`` series
    slo: Optional[Dict[str, Any]] = None
    #: requests still non-terminal when the drain budget ran out
    pending: int = 0
    drain_seconds: float = 0.0

    # -- derived --------------------------------------------------------------
    def _state(self, state: str) -> int:
        return int(self.requests.get("by_state", {}).get(state, 0))

    @property
    def placed(self) -> int:
        return self._state("placed")

    @property
    def failed(self) -> int:
        return self._state("failed")

    @property
    def shed(self) -> int:
        return self._state("shed")

    @property
    def rejected(self) -> int:
        return self._state("rejected")

    @property
    def p99(self) -> float:
        return float(self.latency.get("p99", 0.0))

    @property
    def throughput(self) -> float:
        """Placed requests per virtual second of the open-loop window."""
        if self.duration <= 0:
            return 0.0
        return self.placed / self.duration

    @property
    def p99_within_slo(self) -> bool:
        """Did p99 e2e latency land inside the SLOSpec threshold?"""
        return self.placed > 0 and self.p99 <= self.slo_threshold

    @property
    def latency_budget_exhausted(self) -> bool:
        """Did the run burn the whole e2e latency error budget?"""
        if not self.slo:
            return False
        return bool(self.slo.get("latency_exhausted", False))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "users": self.users,
            "duration": _round(self.duration),
            "workers": self.workers,
            "queue_cap": self.queue_cap,
            "backpressure": self.backpressure,
            "work": _round(self.work),
            "slo_threshold": _round(self.slo_threshold),
            "traffic": self.traffic,
            "requests": self.requests,
            "queue": self.queue,
            "pool": self.pool,
            "latency": self.latency,
            "throughput": _round(self.throughput),
            "p99_within_slo": self.p99_within_slo,
            "slo": self.slo,
            "pending": self.pending,
            "drain_seconds": _round(self.drain_seconds),
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary(self) -> str:
        lat = self.latency
        lines = [
            f"service campaign: scheduler={self.scheduler} "
            f"seed={self.seed} users={self.users} "
            f"duration={self.duration:g}s workers={self.workers} "
            f"queue_cap={self.queue_cap or 'unbounded'} "
            f"mode={self.backpressure}",
            f"  traffic:  arrivals={self.traffic.get('arrivals', 0)} "
            f"accepted={self.traffic.get('accepted', 0)}",
            f"  outcomes: placed={self.placed} failed={self.failed} "
            f"shed={self.shed} rejected={self.rejected} "
            f"pending={self.pending}",
            f"  queue:    peak_depth={self.queue.get('peak_depth', 0)} "
            f"deferred={self.queue.get('deferred', 0)}",
            f"  latency:  p50={lat.get('p50', 0.0):.3f}s "
            f"p95={lat.get('p95', 0.0):.3f}s "
            f"p99={lat.get('p99', 0.0):.3f}s "
            f"max={lat.get('max', 0.0):.3f}s "
            f"[threshold {self.slo_threshold:g}s: "
            f"{'OK' if self.p99_within_slo else 'BREACH'}]",
            f"  pool:     busy_fraction="
            f"{self.pool.get('busy_fraction', 0.0):.3f} "
            f"throughput={self.throughput:.3f}/s",
        ]
        if self.slo:
            lines.append(
                f"  slo:      windows={self.slo.get('windows', 0)} "
                f"alerts={self.slo.get('alerts', 0)} "
                f"minutes_lost={self.slo.get('minutes_lost', 0.0)} "
                f"latency_budget="
                f"{'EXHAUSTED' if self.latency_budget_exhausted else 'ok'}")
        return "\n".join(lines)


@dataclass
class ServiceComparison:
    """Shedding on (bounded backlog) vs off (unbounded), same seed."""

    reports: Dict[str, ServiceReport] = field(default_factory=dict)

    def report(self, name: str) -> ServiceReport:
        return self.reports[name]

    @property
    def shedding_protects_slo(self) -> bool:
        """The BENCH gate: the overload surge exhausts the e2e latency
        budget with shedding off, while the bounded run keeps its budget
        *and* p99 inside the threshold."""
        shed = self.reports.get("shedding")
        noshed = self.reports.get("no-shedding")
        if shed is None or noshed is None:
            return False
        return (noshed.latency_budget_exhausted
                and not shed.latency_budget_exhausted
                and shed.p99_within_slo)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shedding_protects_slo": self.shedding_protects_slo,
            "reports": {name: self.reports[name].to_dict()
                        for name in sorted(self.reports)},
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary(self) -> str:
        header = (f"{'variant':<12} {'placed':>7} {'shed':>6} "
                  f"{'pending':>7} {'p99(s)':>8} {'budget':>10}")
        lines = [header, "-" * len(header)]
        for name in sorted(self.reports):
            r = self.reports[name]
            budget = "EXHAUSTED" if r.latency_budget_exhausted else "ok"
            lines.append(
                f"{name:<12} {r.placed:>7} {r.shed:>6} {r.pending:>7} "
                f"{r.p99:>8.3f} {budget:>10}")
        lines.append("shedding protects the e2e latency SLO"
                     if self.shedding_protects_slo else
                     "shedding does NOT protect the e2e latency SLO")
        if "shedding" in self.reports:
            lines += ["", self.reports["shedding"].summary()]
        return "\n".join(lines)


def _latency_stats(requests: Any) -> Dict[str, Any]:
    """Distribution of submit→placed latency over the placed requests
    (the gateway's records, so it is the same with tracing off)."""
    samples = sorted(float(r.e2e_latency) for r in requests
                     if r.e2e_latency is not None)
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0}
    arr = np.asarray(samples)
    return {
        "count": len(samples),
        "mean": _round(float(arr.mean())),
        "p50": _round(float(np.percentile(arr, 50))),
        "p95": _round(float(np.percentile(arr, 95))),
        "p99": _round(float(np.percentile(arr, 99))),
        "max": _round(float(arr[-1])),
    }


def default_model(users: int, duration: float,
                  requests_per_user_hour: float = 0.2,
                  surge_multiplier: float = 8.0) -> TrafficModel:
    """The stock campaign traffic: a gentle diurnal tide plus a
    deterministic overload surge through the middle fifth of the run."""
    return TrafficModel(
        users=users,
        requests_per_user_hour=requests_per_user_hour,
        diurnal_amplitude=0.3,
        burst_multiplier=2.0,
        mean_burst_every=max(duration / 3.0, 1.0),
        mean_burst_length=max(duration / 20.0, 1.0),
        surge_start=duration * 0.4,
        surge_length=duration * 0.2,
        surge_multiplier=surge_multiplier)


def service_report(run: Any) -> ServiceReport:
    """The ServiceReport of a finished ``service`` scenario: the worker
    pool is stopped (the tier stays installed, so ``meta.service`` keeps
    answering), then gateway records and SLO verdicts are joined."""
    p, meta = run.scenario.params, run.meta
    suite = meta.service
    suite.stop()
    report = ServiceReport(
        scheduler=p["scheduler"], seed=p["seed"], users=p["users"],
        duration=p["duration"], workers=p["workers"],
        queue_cap=p["queue_cap"], backpressure=p["backpressure"],
        work=p["work"], slo_threshold=p["slo_threshold"])
    report.traffic = run.traffic.stats()
    report.requests, report.queue, report.pool = suite.report_sections()
    requests = suite.gateway.requests.values()
    report.latency = _latency_stats(requests)
    # the no-shedding overload may not drain before the budget runs out
    report.pending = sum(1 for r in requests if not r.terminal)
    report.drain_seconds = run.drain_s
    results = meta.sampler.evaluate(
        default_service_slos(threshold=p["slo_threshold"]))
    report.slo = meta.sampler.slo_summary(results)
    report.slo["latency_exhausted"] = any(
        r.exhausted for r in results if r.spec.name == "service-e2e-latency")
    return report
