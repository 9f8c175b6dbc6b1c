"""The three seeded workloads, each run as repeatable passes.

A *pass* is a fixed amount of work chosen by the seed alone, so every
pass of one seed does exactly the same thing in virtual time; the runner
repeats passes to fill its measuring time and checks that each repeat
reproduces the first pass's digest.  Each workload reaches the simulator
only through its public entry points: ``build_testbed``,
``Metasystem``, ``Scheduler.run``, ``meta.advance`` and ``run_gameday``.

* ``placement`` — one caller in a closed loop: an IRS ``Scheduler.run``
  call every virtual second, on the half second.  The Collection and
  Enactor sit in ``dom0`` so every query and reservation pays transport
  RPC, and requests alternate between a portable and a single-platform
  class so the viable-hosts cache holds two queries.
* ``churn`` — a 1024-host world whose hosts re-assess every 30 virtual
  seconds under background load walks; the runner advances virtual time
  and places a burst of calls every two virtual minutes.  Re-assessment
  and Collection writes carry the load.
* ``gameday`` — open-loop traffic through gateway, queue and worker pool
  with journal, leases and Supervisor on, while chaos kills workers,
  crashes a host and spikes message loss.  Odd-numbered passes
  checkpoint and restore the service tier mid-day; their behaviour must
  match the straight passes byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.service.slos import E2E_THRESHOLD
from spantrace import SpanRecorder, Target, install

__all__ = ["PassResult", "WORKLOADS", "E2E_THRESHOLD", "digest_diff",
           "placement_pass", "churn_pass", "gameday_pass"]

#: placement: closed-loop calls per pass, reservation window per call
#: (short, so capacity recycles), and calls per rate window
PLACEMENT_CALLS = 1000
PLACEMENT_RESERVATION = 60.0
PLACEMENT_WINDOW = 100

#: churn: bursts per pass, calls per burst, virtual seconds between
#: bursts; each burst and the advance after it is one rate window
CHURN_BURSTS = 10
CHURN_BURST_CALLS = 50
CHURN_INTERVAL = 120.0

#: gameday: consecutive seeded days per pass, and the day's shape
GAMEDAY_DAYS = 4
GAMEDAY = dict(duration=400.0, users=1_500_000, workers=8,
               hosts_per_domain=16, surge_multiplier=2.0, kills=4)

#: iterations of the calibration loop, and its host ms on the reference
#: host (an x86-64 VM at 2.0 GHz running CPython 3.11).  Host-time
#: figures are scaled to that host: a shared VM's speed can swing by
#: 30-40% for minutes at a time, and the loop, timed right before and
#: after each window, swings with it while running no simulator code.
CALIB_LOOPS = 30_000
CALIB_REF_MS = 3.0


def calib_ms() -> float:
    """Host ms of a fixed pure-Python loop that runs no simulator code."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return (perf_counter() - t0) * 1e3


def _scale(before_ms: float, after_ms: float) -> float:
    """Factor taking host seconds measured between two calibrations to
    reference-host seconds."""
    return 2.0 * CALIB_REF_MS / (before_ms + after_ms)


class PassResult:
    """What one pass measured and produced."""

    def __init__(self) -> None:
        #: (host s, scale to the reference host) of each set-up (testbed
        #: build + warm-up)
        self.setups: List[tuple] = []
        #: host seconds of the measured work, set-up excluded
        self.host_s = 0.0
        #: the measured work cut into short windows, each (host s,
        #: virtual s, ok Scheduler.run calls, terminal requests, scale to
        #: the reference host); rates are medians over windows
        self.windows: List[tuple] = []
        #: host seconds of each outermost Scheduler.run call, and the
        #: scale of the window it ran in
        self.call_s: List[float] = []
        self.call_scale: List[float] = []
        #: Scheduler.run outcomes: calls, ok ones, schedule computations
        self.calls = 0
        self.calls_ok = 0
        self.schedule_tries = 0
        #: user requests submitted, and the virtual submit-to-placed
        #: latency of each placed one
        self.submitted = 0
        self.e2e_vs: List[float] = []
        #: operations attempted, and those whose result failed a check
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: deterministic outputs: part name -> value or hash
        self.digest: Dict[str, Any] = {}
        #: the metasystems and schedulers of the pass (kept when asked)
        self.metas: List[Any] = []
        self.schedulers: List[Any] = []
        #: the pass checkpointed and restored the service tier mid-run
        self.restored = False
        #: Scheduler.run calls made while warming up (part of set-up)
        self.warm_calls = 0
        #: the pass's spans, and the wrap targets that were not found
        self.recorder: Optional[SpanRecorder] = None
        self.missing: List[str] = []


def _hash(doc: Any) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _world_digest(meta: Any) -> Dict[str, Any]:
    """Virtual time, kernel events, messages and Collection records."""
    coll = meta.collection
    return {
        "virtual_s": meta.now,
        "events": meta.sim.events_processed,
        "messages": meta.transport.messages_sent,
        "collection": _hash([[str(m), coll.record_of(m).attributes,
                              coll.record_of(m).updated_at]
                             for m in coll.members()]),
    }


def digest_diff(a: Dict[str, Any], b: Dict[str, Any],
                ignore: tuple = ()) -> List[str]:
    """Names of the digest parts that differ."""
    return sorted(k for k in set(a) | set(b)
                  if k not in ignore and a.get(k) != b.get(k))


# -- probes: the only wrappers installed in untraced runs --------------------
class Probes:
    """Scheduler.run outcomes and the testbeds a pass builds."""

    def __init__(self) -> None:
        #: (ok, schedule computations) of each Scheduler.run call
        self.runs: List[tuple] = []
        self.schedulers: Dict[int, Any] = {}
        self.built: List[Any] = []

    def targets(self) -> List[Target]:
        def before_run(args, _kwargs) -> None:
            self.schedulers.setdefault(id(args[0]), args[0])

        def after_run(_args, _kwargs, outcome) -> None:
            self.runs.append((bool(outcome.ok), outcome.schedule_tries))

        def after_build(_args, _kwargs, meta) -> None:
            self.built.append(meta)

        return [
            Target("scheduler.run", "repro.scheduler.base:Scheduler.run",
                   before=before_run, after=after_run),
            Target("testbed.build",
                   "repro.workload.testbed:build_testbed",
                   after=after_build),
        ]


def _run_pass(body: Callable[[PassResult, Probes, SpanRecorder], None],
              targets: List[Target], keep: bool) -> PassResult:
    """Run one pass with ``targets`` (probes included) wrapped."""
    gc.collect()
    result = PassResult()
    probes = Probes()
    recorder = result.recorder = SpanRecorder()
    with install(recorder, probes.targets() + targets) as wrapped:
        result.missing = wrapped.missing
        body(result, probes, recorder)
    # warm-up placements belong to set-up, not to the samples
    result.call_s = recorder.durations("scheduler.run")[result.warm_calls:]
    runs = probes.runs[result.warm_calls:]
    result.calls = len(runs)
    result.calls_ok = sum(ok for ok, _tries in runs)
    result.schedule_tries = sum(tries for _ok, tries in runs)
    if keep:
        result.metas = list(probes.built)
        result.schedulers = list(probes.schedulers.values())
    return result


def _live_check(meta: Any, class_obj: Any, outcome: Any) -> Optional[str]:
    """None if every LOID an ok outcome created is a live placed
    instance, else what is wrong."""
    if not outcome.created:
        return "ok outcome created nothing"
    for loid in outcome.created:
        instance = class_obj.instances.get(loid)
        if instance is None or not instance.is_active \
                or instance.host_loid is None:
            return f"{loid} is not an active instance"
        host = meta.resolve(instance.host_loid)
        if loid not in host.placed:
            return f"{loid} is not placed on {instance.host_loid}"
    return None


def _closed_loop(result: PassResult, meta: Any, sched: Any,
                 plan: List[Any], gap_after: Callable[[int, float], float],
                 reservation: float, window: int) -> None:
    """Place each request of ``plan`` in turn; check and record it.

    Every ``window`` calls (with the virtual gaps after them) close one
    rate window."""
    from repro.scheduler.base import ObjectClassRequest
    outcomes = []
    cal0 = calib_ms()
    t0, v0, ok0 = perf_counter(), meta.now, 0
    for i, class_obj in enumerate(plan):
        outcome = sched.run([ObjectClassRequest(class_obj, count=1)],
                            reservation_duration=reservation)
        result.attempted += 1
        result.submitted += 1
        if outcome.ok:
            problem = _live_check(meta, class_obj, outcome)
            if problem is not None:
                result.failed += 1
                result.problems.append(f"call {i}: {problem}")
            result.e2e_vs.append(outcome.elapsed)
        outcomes.append([outcome.ok, [str(loid) for loid in outcome.created],
                         outcome.schedule_tries, outcome.enact_tries,
                         outcome.elapsed])
        ok0 += outcome.ok
        gap = gap_after(i, meta.now)
        if gap:
            meta.advance(gap)
        if (i + 1) % window == 0:
            host = perf_counter() - t0
            cal1 = calib_ms()
            scale = _scale(cal0, cal1)
            result.host_s += host
            result.windows.append((host, meta.now - v0, ok0, window, scale))
            result.call_scale.extend([scale] * window)
            cal0 = cal1
            t0, v0, ok0 = perf_counter(), meta.now, 0
    result.digest["outcomes"] = _hash(outcomes)


# -- placement ---------------------------------------------------------------
def placement_pass(seed: int, targets: List[Target] = (),
                   keep: bool = False,
                   index: int = 0, tracing: str = "spans",
                   calls: int = PLACEMENT_CALLS) -> PassResult:
    def body(result: PassResult, _probes: Probes,
             recorder: SpanRecorder) -> None:
        # imported here, inside the pass, so the wrapped build is bound
        from repro.objects.class_object import Implementation
        from repro.scheduler.base import ObjectClassRequest
        from repro.workload.testbed import (
            TestbedSpec, build_testbed, implementations_for_all_platforms)
        cal = calib_ms()
        t0 = perf_counter()
        meta = build_testbed(TestbedSpec(
            seed=seed, n_domains=4, hosts_per_domain=24, host_slots=8,
            platform_mix=3, background_load_mean=0.5, tracing=tracing))
        meta.place_collection("dom0")
        meta.place_enactor("dom0")
        portable = meta.create_class(
            "portable", implementations_for_all_platforms(),
            work_units=20.0)
        single = meta.create_class(
            "sparc-only", [Implementation("sparc", "SunOS")],
            work_units=20.0)
        sched = meta.make_scheduler("irs")
        # warm-up: one re-assessment cycle, then one placement per class
        # so the query plans and the viable-hosts cache are filled
        meta.advance(30.0)
        for class_obj in (portable, single):
            sched.run([ObjectClassRequest(class_obj)],
                      reservation_duration=PLACEMENT_RESERVATION)
        result.warm_calls = len(recorder.durations("scheduler.run"))
        setup = perf_counter() - t0
        result.setups.append((setup, _scale(cal, calib_ms())))
        # one call per virtual second, starting on the half second: the
        # hosts' re-assessment sweeps fire on whole seconds, so they run
        # between calls rather than inside one (churn carries them)
        meta.advance(math.floor(meta.now) + 0.5 - meta.now)
        _closed_loop(result, meta, sched,
                     [portable if i % 2 == 0 else single
                      for i in range(calls)],
                     lambda _i, now: math.floor(now) + 1.5 - now,
                     PLACEMENT_RESERVATION, PLACEMENT_WINDOW)
        result.digest.update(_world_digest(meta))

    return _run_pass(body, list(targets), keep)


# -- churn -------------------------------------------------------------------
def churn_pass(seed: int, targets: List[Target] = (), keep: bool = False,
               index: int = 0) -> PassResult:
    def body(result: PassResult, _probes: Probes,
             recorder: SpanRecorder) -> None:
        from repro.scheduler.base import ObjectClassRequest
        from repro.workload.testbed import (
            TestbedSpec, build_testbed, implementations_for_all_platforms)
        cal = calib_ms()
        t0 = perf_counter()
        meta = build_testbed(TestbedSpec(
            seed=seed, n_domains=4, hosts_per_domain=256, host_slots=8,
            platform_mix=3, background_load_mean=0.5,
            reassess_interval=30.0))
        meta.place_collection("dom0")
        meta.place_enactor("dom0")
        app = meta.create_class("churn-app",
                                implementations_for_all_platforms(),
                                work_units=100.0)
        sched = meta.make_scheduler("irs")
        meta.advance(30.0)
        sched.run([ObjectClassRequest(app)])
        result.warm_calls = len(recorder.durations("scheduler.run"))
        setup = perf_counter() - t0
        result.setups.append((setup, _scale(cal, calib_ms())))
        _closed_loop(result, meta, sched,
                     [app] * (CHURN_BURSTS * CHURN_BURST_CALLS),
                     lambda i, _now: (CHURN_INTERVAL
                                      if (i + 1) % CHURN_BURST_CALLS == 0
                                      else 0.0),
                     3600.0, CHURN_BURST_CALLS)
        result.digest.update(_world_digest(meta))

    return _run_pass(body, list(targets), keep)


# -- gameday -----------------------------------------------------------------
def gameday_days(seed: int) -> List[int]:
    """The day seeds a run seed stands for (disjoint across run seeds)."""
    return [seed * GAMEDAY_DAYS + k for k in range(GAMEDAY_DAYS)]


def gameday_pass(seed: int, targets: List[Target] = (), keep: bool = False,
                 index: int = 0) -> PassResult:
    from repro.recovery.gameday import run_gameday
    duration = GAMEDAY["duration"]
    checkpoint_at = duration * 0.75 if index % 2 else None

    def body(result: PassResult, probes: Probes,
             recorder: SpanRecorder) -> None:
        result.restored = checkpoint_at is not None
        days = []
        for day_seed in gameday_days(seed):
            # the previous day's world is garbage now; collect it outside
            # the timed region
            gc.collect()
            runs0 = len(probes.runs)
            cal = calib_ms()
            t0 = perf_counter()
            report = run_gameday(seed=day_seed, checkpoint_at=checkpoint_at,
                                 **GAMEDAY)
            elapsed = perf_counter() - t0
            scale = _scale(cal, calib_ms())
            setup = recorder.durations("testbed.build")[-1]
            host = elapsed - setup
            meta = probes.built[-1]
            gateway = meta.service.gateway
            terminal = 0
            for request in gateway.requests.values():
                result.submitted += 1
                terminal += request.terminal
                if request.e2e_latency is not None:
                    result.e2e_vs.append(request.e2e_latency)
            runs = probes.runs[runs0:]
            result.host_s += host
            result.setups.append((setup, scale))
            result.windows.append((host, meta.now, sum(
                ok for ok, _tries in runs), terminal, scale))
            result.call_scale.extend([scale] * len(runs))
            day = _world_digest(meta)
            day["requests"] = _hash([r.to_dict()
                                     for r in gateway.requests.values()])
            day["report"] = _hash(report.core_json())
            days.append(day)
            if not keep:
                probes.built.pop()
            result.attempted += gateway.submitted
            result.failed += report.lost + report.duplicates
            if not report.passed:
                result.problems.append(
                    f"day seed {day_seed}: game-day verdict failed "
                    f"(kills={report.worker_kills} lost={report.lost} "
                    f"duplicates={report.duplicates} "
                    f"recovered={report.recovered})")
            if checkpoint_at is not None and report.checkpoint is None:
                result.problems.append(
                    f"day seed {day_seed}: no checkpoint was captured")
        result.digest.update({part: [day[part] for day in days]
                              for part in days[0]})

    return _run_pass(body, list(targets), keep)


#: name -> (pass function, minimum passes per run)
WORKLOADS: Dict[str, tuple] = {
    "placement": (placement_pass, 1),
    "churn": (churn_pass, 1),
    # a straight pass and a checkpoint/restore pass, at least
    "gameday": (gameday_pass, 2),
}
