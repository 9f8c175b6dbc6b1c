"""Scenarios: every seeded experiment as one value over one runner.

The paper's RMI is a small core with fixed interfaces that policies plug
into; :mod:`repro.layer` applies that to optional subsystems, and this
module applies it to experiments, after OAR's "small core, high-level
components" (PAPERS.md).  A :class:`Scenario` is data:

* ``spec`` — the :class:`~repro.workload.testbed.TestbedSpec`; its
  ordered ``layers`` are the scenario's install order;
* ``placed`` — whether the Collection and Enactor (and federation
  shards) get network locations in ``dom0``, so queries and
  reservations cost messages that can be lost;
* ``driver`` — :class:`Waves` (closed-loop placement waves) or
  :class:`Traffic` (open-loop service arrivals);
* ``horizon`` — how long the world runs before chaos is removed;
* ``events`` — ``(time, fn)`` pairs scheduled before driving (the game
  day's checkpoint);
* ``idle``, ``drain_time``, ``drain_step`` — the drain: advance in
  steps until ``idle(meta)`` or the budget runs out;
* ``report`` — builds the report from the finished :class:`Run`.

:func:`run_scenario` is the one runner: build, place, install, drive,
advance to the horizon, ``meta.uninstall("chaos")``, drain, report.
The registered scenarios (:data:`SCENARIOS`) are functions from named
parameters to a Scenario; :func:`compare` runs one seeded scenario once
per named set of parameter overrides, and :data:`COMPARISONS` names the
comparisons the committed ledgers and ``legion-sim ... --compare`` run.

Layers are stateful, so a Scenario value runs once;
``scenario.but(**overrides)`` makes a fresh one from the same
parameters.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .bench.scale import scale_datapoint
from .chaos.layer import ChaosLayer, RetryLayer
from .chaos.report import RetryComparison, resilience_report
from .economy.layer import EconomyLayer
from .economy.report import EconomyComparison, economy_report
from .errors import LegionError
from .guardrails.compare import GuardrailsComparison
from .guardrails.layer import GuardrailsLayer
from .obs.report import SamplerLayer
from .recovery.config import RecoveryConfig
from .recovery.gameday import (GamedayComparison, checkpoint_event,
                               default_gameday_plan, gameday_report)
from .scheduler.base import ObjectClassRequest
from .service.config import ServiceConfig
from .service.layer import ServiceLayer
from .service.report import ServiceComparison, default_model, service_report
from .service.slos import E2E_THRESHOLD
from .service.traffic import TrafficGenerator, TrafficModel
from .workload.testbed import (TestbedSpec, build_testbed,
                               implementations_for_all_platforms)

__all__ = ["Scenario", "Waves", "Traffic", "Run", "SCENARIOS",
           "COMPARISONS", "run_scenario", "compare", "campaign"]


@dataclass
class Run:
    """One scenario in flight: the live world and what the driver saw."""

    meta: Any
    scenario: "Scenario"
    #: virtual time the driver started at
    t0: float = 0.0
    #: per user: the Class object and the Scheduler (waves)
    apps: Dict[str, Any] = field(default_factory=dict)
    schedulers: Dict[str, Any] = field(default_factory=dict)
    #: every placement attempt: (user, outcome or None on error, time)
    placements: List[Tuple[str, Any, float]] = field(default_factory=list)
    #: the open-loop TrafficGenerator (traffic)
    traffic: Any = None
    #: set by the game day's checkpoint event once it has run
    checkpoint: Optional[Dict[str, Any]] = None
    #: the chaos layer, after the runner uninstalled it
    chaos: Any = None
    #: host seconds spent driving, and virtual seconds spent draining
    wall_s: float = 0.0
    drain_s: float = 0.0


@dataclass(frozen=True)
class Waves:
    """Closed-loop placement waves: each user gets one Class (``app``,
    suffixed ``-<user>`` for named users) and one Scheduler (one for all
    users when ``shared``); each wave every user asks ``burst`` times
    for ``per_wave`` instances, then ``interval`` virtual seconds pass.
    ``enrol(meta, user, app)`` runs between the two."""

    app: str
    work: float
    waves: int
    per_wave: int
    interval: float
    scheduler: Callable[[Any, str], Any]
    users: Tuple[str, ...] = ("",)
    shared: bool = False
    burst: int = 1
    enrol: Optional[Callable[[Any, str, Any], None]] = None

    def __call__(self, run: Run) -> None:
        meta = run.meta
        sched = None
        for user in self.users:
            app = meta.create_class(
                f"{self.app}-{user}" if user else self.app,
                implementations_for_all_platforms(), work_units=self.work)
            if self.enrol is not None:
                self.enrol(meta, user, app)
            if sched is None or not self.shared:
                sched = self.scheduler(meta, user)
            run.apps[user], run.schedulers[user] = app, sched
        for _wave in range(self.waves):
            for user in self.users:
                request = [ObjectClassRequest(run.apps[user],
                                              count=self.per_wave)]
                for _ in range(self.burst):
                    try:
                        outcome = run.schedulers[user].run(request)
                    except LegionError:
                        outcome = None
                    run.placements.append((user, outcome, meta.now))
            meta.advance(self.interval)


@dataclass(frozen=True)
class Traffic:
    """Open-loop arrivals drawn from ``model`` for ``duration`` virtual
    seconds, submitted to whichever service tier is live (a
    checkpoint/restore replaces it mid-run)."""

    model: TrafficModel
    duration: float

    def __call__(self, run: Run) -> None:
        meta = run.meta
        run.traffic = TrafficGenerator(
            meta.sim, meta.rngs.stream("service", "traffic"), self.model,
            lambda user, priority: meta.service.gateway.submit(
                user=user, priority=priority),
            self.duration)
        run.traffic.start()


def _always(_meta: Any) -> bool:
    return True


@dataclass(frozen=True)
class Scenario:
    """One seeded experiment (see the module docstring)."""

    spec: TestbedSpec
    driver: Callable[[Run], None]
    report: Callable[[Run], Any]
    horizon: float
    placed: bool = True
    events: Tuple[Tuple[float, Callable[[Run], None]], ...] = ()
    idle: Callable[[Any], bool] = _always
    drain_time: float = 0.0
    drain_step: float = 50.0
    #: the registered name and the full parameters it was made from
    name: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    def but(self, **overrides: Any) -> "Scenario":
        """A fresh scenario from the same parameters, ``overrides`` on
        top."""
        return SCENARIOS[self.name](**{**self.params, **overrides})


def run_scenario(scenario: Scenario) -> Any:
    """Build the world, drive it, remove chaos, drain, and return
    ``scenario.report(run)``."""
    spec = scenario.spec
    meta = build_testbed(dataclasses.replace(spec, layers=()))
    if scenario.placed:
        meta.place_collection("dom0")
        meta.place_enactor("dom0")
        if spec.federation_shards:
            meta.place_federation()
    for layer in spec.layers:
        meta.install(layer)
    run = Run(meta, scenario, t0=meta.now)
    for at, event in scenario.events:
        meta.sim.schedule_at(at, functools.partial(event, run))
    started = perf_counter()
    scenario.driver(run)
    end = run.t0 + scenario.horizon
    if meta.now < end:
        meta.advance(end - meta.now)
    run.wall_s = perf_counter() - started
    if meta.chaos is not None:
        run.chaos = meta.uninstall("chaos")
    drain_start = meta.now
    stop = drain_start + scenario.drain_time
    while meta.now < stop and not scenario.idle(meta):
        meta.advance(scenario.drain_step)
    run.drain_s = meta.now - drain_start
    return scenario.report(run)


Variants = Union[Mapping[str, Mapping[str, Any]],
                 Callable[[Mapping[str, Any]],
                          Mapping[str, Mapping[str, Any]]]]


def compare(scenario: Scenario, variants: Variants) -> Dict[str, Any]:
    """Run ``scenario`` once per named set of parameter overrides (a
    mapping, or a function of the scenario's parameters returning one);
    every variant shares every seed, so the reports differ by policy,
    not luck."""
    if callable(variants):
        variants = variants(scenario.params)
    return {name: run_scenario(scenario.but(**overrides))
            for name, overrides in variants.items()}


# -- the registered scenarios ------------------------------------------------
#: name -> ``f(**params) -> Scenario``
SCENARIOS: Dict[str, Callable[..., Scenario]] = {}


def register(fn: Callable[..., Scenario]) -> Callable[..., Scenario]:
    """Register ``fn`` under its name; the Scenarios it makes carry that
    name and their full parameters (defaults included)."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def make(**params: Any) -> Scenario:
        bound = signature.bind(**params)
        bound.apply_defaults()
        return dataclasses.replace(fn(**bound.arguments), name=fn.__name__,
                                   params=dict(bound.arguments))

    SCENARIOS[fn.__name__] = make
    return make


def _scheduler(kind: str, **kwargs: Any) -> Callable[[Any, str], Any]:
    return lambda meta, _user: meta.make_scheduler(kind, **kwargs)


def _no_jobs(meta: Any) -> bool:
    return not any(host.machine.jobs for host in meta.hosts)


def _requests_settled(meta: Any) -> bool:
    return all(r.terminal for r in meta.service.gateway.requests.values())


def _leases_settled(meta: Any) -> bool:
    # an expired lease still owed a requeue counts as pending
    leases = meta.service.leases
    return (_requests_settled(meta) and not leases.active
            and not leases.late_effects)


@register
def chaos(chaos_profile: str = "mixed", chaos_seed: int = 0, seed: int = 0,
          scheduler: str = "irs", waves: int = 6, per_wave: int = 4,
          work: float = 250.0, wave_interval: float = 90.0,
          chaos_horizon: float = 0.0, retry: bool = False,
          guardrails: bool = False, n_domains: int = 3,
          hosts_per_domain: int = 6, platform_mix: int = 3,
          background_load: float = 0.5, shards: int = 0,
          drain_time: float = 4000.0, include_events: bool = True,
          sampler_window: float = 0.0) -> Scenario:
    """Placement waves under a generated fault campaign
    (:class:`~repro.chaos.report.ResilienceReport`).  The fault timeline
    is the same whatever ``retry``/``guardrails`` say, so flipping them
    measures the policy; the horizon defaults to the waves' span."""
    horizon = chaos_horizon or waves * wave_interval
    layers: List[Any] = [SamplerLayer(sampler_window)] if sampler_window \
        else []
    if guardrails:
        layers.append(GuardrailsLayer())
    if retry:
        layers.append(RetryLayer())
    layers.append(ChaosLayer(profile=chaos_profile, chaos_seed=chaos_seed,
                             horizon=horizon))
    return Scenario(
        spec=TestbedSpec(seed=seed, n_domains=n_domains,
                         hosts_per_domain=hosts_per_domain,
                         platform_mix=platform_mix,
                         background_load_mean=background_load,
                         federation_shards=shards, layers=layers),
        driver=Waves("chaos-app", work, waves, per_wave, wave_interval,
                     _scheduler(scheduler)),
        horizon=horizon, idle=_no_jobs, drain_time=drain_time,
        report=resilience_report)


def _load_specs(path: str) -> Any:
    from .obs.slo import specs_from_dict
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return specs_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"bad spec file {path!r}: {exc}") from None


@register
def slo(seed: int = 0, n_domains: int = 2, hosts_per_domain: int = 4,
        platform_mix: int = 2, background_load: float = 0.5,
        waves: int = 6, per_wave: int = 4, work: float = 250.0,
        wave_interval: float = 90.0, scheduler: str = "irs",
        sampler_window: float = 30.0, chaos_profile: str = "",
        chaos_seed: int = 0, chaos_horizon: float = 0.0,
        guardrails: bool = False, retry: bool = False,
        specs: Any = "", include_windows: bool = True, shards: int = 0,
        replication: int = 2, gossip_interval: float = 0.0,
        cache_ttl: float = 0.0) -> Scenario:
    """Placement waves under windowed sampling, on unplaced services;
    the report is the SLO health report over ``specs`` (SLOSpecs or a
    JSON file of them; default: the stock Legion objectives).  The
    chaos horizon defaults to the profile's own, and retries go in
    after chaos."""
    if sampler_window <= 0:
        raise ValueError(f"bad window {sampler_window:g}: must be > 0")
    if isinstance(specs, str):
        specs = _load_specs(specs) if specs else None
    layers: List[Any] = [SamplerLayer(sampler_window)]
    if guardrails:
        layers.append(GuardrailsLayer())
    if chaos_profile:
        layers.append(ChaosLayer(profile=chaos_profile,
                                 chaos_seed=chaos_seed,
                                 horizon=chaos_horizon or None))
    if retry:
        layers.append(RetryLayer())
    title = (f"slo health: {waves} x {per_wave} instances via {scheduler} "
             f"(seed {seed}"
             + (f", chaos {chaos_profile}/{chaos_seed}" if chaos_profile
                else "")
             + (", guardrails" if guardrails else "") + ")")
    return Scenario(
        spec=TestbedSpec(seed=seed, n_domains=n_domains,
                         hosts_per_domain=hosts_per_domain,
                         platform_mix=platform_mix,
                         background_load_mean=background_load,
                         federation_shards=shards,
                         federation_replication=replication,
                         gossip_interval=gossip_interval,
                         federation_cache_ttl=cache_ttl, layers=layers),
        placed=False,
        driver=Waves("cli-app", work, waves, per_wave, wave_interval,
                     _scheduler(scheduler)),
        horizon=waves * wave_interval,
        report=lambda run: run.meta.sampler.health_report(
            specs, title=title, include_windows=include_windows))


@register
def economy(scheduler: str = "economy", mode: str = "cost", seed: int = 0,
            chaos_profile: str = "", chaos_seed: int = 0,
            chaos_horizon: float = 0.0, guardrails: bool = False,
            retry: bool = False, users: int = 2,
            budget: float = 40.0, deadline: float = 900.0, waves: int = 6,
            per_wave: int = 2, work: float = 250.0,
            wave_interval: float = 90.0, deadline_safety: float = 0.6,
            n_domains: int = 3, hosts_per_domain: int = 6,
            platform_mix: int = 3, background_load: float = 0.5,
            drain_time: float = 4000.0) -> Scenario:
    """Per-user placement waves with budgets and deadlines
    (:class:`~repro.economy.report.EconomyReport`).  The economy layer
    meters every scheduler, so costs compare; ``scheduler`` is
    ``"economy"`` (one auction-clearing scheduler per user, ``mode``
    time or cost) or a baseline kind shared by all users."""
    if users < 1:
        raise ValueError("users must be >= 1")
    horizon = chaos_horizon or waves * wave_interval
    layers: List[Any] = [EconomyLayer()]
    if guardrails:
        layers.append(GuardrailsLayer())
    if retry:
        layers.append(RetryLayer())
    if chaos_profile:
        layers.append(ChaosLayer(profile=chaos_profile,
                                 chaos_seed=chaos_seed, horizon=horizon))

    def enrol(meta: Any, user: str, app: Any) -> None:
        meta.economy.budgets.ensure(user, budget=budget, deadline=deadline)
        meta.economy.budgets.register_class(app.loid, user)

    if scheduler == "economy":
        def make(meta: Any, user: str) -> Any:
            return meta.make_scheduler("economy", mode=mode, user=user,
                                       deadline_safety=deadline_safety)
    else:
        make = _scheduler(scheduler, **(
            {"deadline": deadline} if scheduler == "cost" else {}))
    return Scenario(
        spec=TestbedSpec(seed=seed, n_domains=n_domains,
                         hosts_per_domain=hosts_per_domain,
                         platform_mix=platform_mix,
                         background_load_mean=background_load,
                         layers=layers),
        driver=Waves("econ-app", work, waves, per_wave, wave_interval, make,
                     users=tuple(f"u{i}" for i in range(users)),
                     shared=scheduler != "economy", enrol=enrol),
        horizon=horizon, idle=_no_jobs, drain_time=drain_time,
        report=economy_report)


@register
def service(seed: int = 0, users: int = 1_000_000, duration: float = 240.0,
            workers: int = 4, queue_cap: int = 64, backpressure: str = "shed",
            scheduler: str = "irs", work: float = 10.0,
            requests_per_user_hour: float = 0.0036,
            surge_multiplier: float = 12.0,
            slo_threshold: float = E2E_THRESHOLD, n_domains: int = 3,
            hosts_per_domain: int = 6, platform_mix: int = 3,
            host_slots: int = 8, background_load: float = 0.3,
            drain_time: float = 1800.0) -> Scenario:
    """The live service tier under open-loop diurnal/bursty traffic with
    an overload surge, drained until every request is terminal
    (:class:`~repro.service.report.ServiceReport`).  ``queue_cap=0``
    unbounds the backlog: shedding off."""
    config = ServiceConfig(workers=workers, queue_cap=queue_cap,
                           backpressure=backpressure, scheduler=scheduler,
                           work=work)
    return Scenario(
        spec=TestbedSpec(seed=seed, n_domains=n_domains,
                         hosts_per_domain=hosts_per_domain,
                         platform_mix=platform_mix, host_slots=host_slots,
                         background_load_mean=background_load,
                         layers=[SamplerLayer(30.0), ServiceLayer(config)]),
        driver=Traffic(default_model(
            users, duration, requests_per_user_hour=requests_per_user_hour,
            surge_multiplier=surge_multiplier), duration),
        horizon=duration, idle=_requests_settled, drain_time=drain_time,
        drain_step=5.0, report=service_report)


@register
def gameday(seed: int = 0, users: int = 1_000_000, duration: float = 240.0,
            workers: int = 4, queue_cap: int = 64, backpressure: str = "shed",
            scheduler: str = "irs", work: float = 10.0,
            requests_per_user_hour: float = 0.0036,
            surge_multiplier: float = 12.0, kills: int = 2,
            lease_ttl: float = 20.0, heartbeat_interval: float = 5.0,
            scan_interval: float = 5.0,
            checkpoint_at: Optional[float] = None, n_domains: int = 3,
            hosts_per_domain: int = 6, platform_mix: int = 3,
            host_slots: int = 8, background_load: float = 0.3,
            drain_time: float = 1800.0) -> Scenario:
    """The service tier with recovery, under traffic, while the stock
    game-day plan kills workers and a host
    (:class:`~repro.recovery.gameday.GamedayReport`).  ``checkpoint_at``
    (0/None = off) schedules a checkpoint/teardown/restore at the first
    safe point from then on."""
    config = ServiceConfig(workers=workers, queue_cap=queue_cap,
                           backpressure=backpressure, scheduler=scheduler,
                           work=work)
    recovery = RecoveryConfig(lease_ttl=lease_ttl,
                              heartbeat_interval=heartbeat_interval,
                              scan_interval=scan_interval)
    plan = default_gameday_plan(duration, workers, kills=kills)
    return Scenario(
        spec=TestbedSpec(seed=seed, n_domains=n_domains,
                         hosts_per_domain=hosts_per_domain,
                         platform_mix=platform_mix, host_slots=host_slots,
                         background_load_mean=background_load,
                         layers=[SamplerLayer(30.0),
                                 ServiceLayer(config, recovery=recovery),
                                 ChaosLayer(plan=plan)]),
        driver=Traffic(default_model(
            users, duration, requests_per_user_hour=requests_per_user_hour,
            surge_multiplier=surge_multiplier), duration),
        horizon=duration,
        events=((float(checkpoint_at), checkpoint_event),)
        if checkpoint_at else (),
        idle=_leases_settled, drain_time=drain_time, drain_step=5.0,
        report=gameday_report)


@register
def scale(hosts: int = 64, waves: int = 4, per_wave: int = 6, seed: int = 0,
          scheduler: str = "irs", wave_interval: float = 60.0) -> Scenario:
    """One size of the scale ledger: bursts of two back-to-back requests
    per wave (the second exercises the viable-hosts cache, the advance
    between waves forces revalidation) on a four-domain testbed
    (:class:`~repro.bench.scale.ScaleDatapoint`)."""
    if hosts % 4:
        raise ValueError(f"size {hosts} not divisible by 4 domains")
    return Scenario(
        spec=TestbedSpec(seed=seed, n_domains=4, hosts_per_domain=hosts // 4,
                         platform_mix=3, background_load_mean=0.5),
        placed=False,
        driver=Waves("scale-app", 100.0, waves, per_wave, wave_interval,
                     _scheduler(scheduler), burst=2),
        horizon=waves * wave_interval, report=scale_datapoint)


# -- the named comparisons ---------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """Variants of one registered scenario, and what joins their
    reports (a comparison class whose ``to_dict()`` is the ledger
    format)."""

    scenario: str
    variants: Variants
    join: Callable[[Dict[str, Any]], Any]


def _shedding(params: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    if params["queue_cap"] <= 0:
        raise ValueError("comparison needs a bounded queue_cap for the "
                         "shedding variant")
    return {"shedding": {}, "no-shedding": {"queue_cap": 0}}


def _restore(params: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {"straight": {"checkpoint_at": None},
            "restored": {"checkpoint_at": params["checkpoint_at"]
                         or 0.75 * params["duration"]}}


COMPARISONS: Dict[str, Comparison] = {
    "retry": Comparison("chaos", {"off": {"retry": False},
                                  "retry": {"retry": True}},
                        RetryComparison),
    "guardrails": Comparison("chaos", {
        "off": {"retry": False, "guardrails": False},
        "retries": {"retry": True, "guardrails": False},
        "guardrails": {"retry": True, "guardrails": True}},
        GuardrailsComparison),
    "baselines": Comparison("economy", {
        kind: {"scheduler": kind}
        for kind in ("economy", "random", "irs", "cost")}, EconomyComparison),
    "shedding": Comparison("service", _shedding, ServiceComparison),
    "restore": Comparison("gameday", _restore, GamedayComparison),
}


def campaign(scenario: str = "", comparison: str = "", **params: Any) -> Any:
    """The registered ``scenario`` run once with ``params`` — or, given
    a ``comparison`` name, each of its variants, joined."""
    if comparison:
        named = COMPARISONS[comparison]
        return named.join(compare(SCENARIOS[named.scenario](**params),
                                  named.variants))
    return run_scenario(SCENARIOS[scenario](**params))
