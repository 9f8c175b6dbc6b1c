"""``legion-sim`` — command-line driver for simulated metasystem scenarios.

Real Legion shipped user tools (``legion_ls``, ``legion_run``, ...); this
module provides their simulated analogues over a reproducible testbed:

.. code-block:: console

   $ legion-sim hosts --domains 2 --hosts 4
   $ legion-sim context --domains 2 --hosts 4
   $ legion-sim query '$host_load < 1 and $host_arch == "sparc"'
   $ legion-sim run --count 6 --scheduler irs --work 200
   $ legion-sim run --count 4 --trace-out trace.json
   $ legion-sim bench --scheduler random --scheduler load --count 8
   $ legion-sim metrics --count 4 --format table
   $ legion-sim trace critical-path --count 4
   $ legion-sim trace chrome --count 4 --out trace.json
   $ legion-sim run --shards 3 --replication 2 --count 4
   $ legion-sim federation --shards 3 --gossip-interval 30 --wait
   $ legion-sim run --chaos-profile hosts --chaos-seed 7 --wait
   $ legion-sim chaos --chaos-profile lossy --compare
   $ legion-sim chaos --chaos-profile mixed --retry --out report.json
   $ legion-sim chaos --chaos-profile hosts --retry --guardrails
   $ legion-sim guardrails --compare --out comparison.json
   $ legion-sim scale --sizes 16,32
   $ legion-sim metrics --quantiles p50,p90,p99
   $ legion-sim trace steps --count 6
   $ legion-sim slo --window 30 --chaos-profile hosts --chaos-seed 1
   $ legion-sim slo --guardrails --chaos-profile hosts --out slo.json
   $ legion-sim slo --compare --chaos-profile hosts
   $ legion-sim run --count 4 --scheduler cost
   $ legion-sim economy --mode cost --users 3 --budget 100
   $ legion-sim economy --mode time --chaos-profile lossy --retry
   $ legion-sim economy --compare --out comparison.json
   $ legion-sim serve --users 1000000 --duration 240 --workers 4
   $ legion-sim serve --queue-cap 0 --allow-exhausted
   $ legion-sim serve --compare --out comparison.json
   $ legion-sim gameday --seed 7 --kills 2
   $ legion-sim gameday --checkpoint-at 180 --lease-ttl 20
   $ legion-sim gameday --compare --out comparison.json
   $ legion-sim ledger check
   $ legion-sim ledger write service gameday

``repro-cli`` is an alias of the same entry point.

Every invocation builds the same seeded testbed (``--seed``), so outputs
are reproducible and scriptable.  The campaign subcommands (chaos,
guardrails, slo, economy, serve, gameday) share one handler over
:mod:`repro.scenario`: their flags are named after the scenario's
parameters, and ``--compare`` runs the subcommand's comparison instead
of one scenario.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..bench.harness import ExperimentTable
from ..bench import ledger
from ..chaos.layer import ChaosLayer
from ..errors import LegionError
from ..metasystem import Metasystem
from ..scenario import COMPARISONS, SCENARIOS, campaign
from ..scheduler.base import ObjectClassRequest
from ..service.config import BACKPRESSURE_MODES
from ..workload.applications import wait_for_completion
from ..workload.testbed import (
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
)

__all__ = ["main", "build_parser"]


def _build_meta(args: argparse.Namespace) -> Metasystem:
    profile = getattr(args, "chaos_profile", "")
    chaos = ChaosLayer(profile=profile, chaos_seed=args.chaos_seed,
                       horizon=args.chaos_horizon or None) if profile else None
    return build_testbed(TestbedSpec(
        n_domains=args.n_domains,
        hosts_per_domain=args.hosts_per_domain,
        platform_mix=args.platform_mix,
        background_load_mean=args.background_load,
        seed=args.seed,
        federation_shards=args.shards,
        federation_replication=args.replication,
        gossip_interval=args.gossip_interval,
        federation_cache_ttl=args.cache_ttl,
        layers=[chaos] if chaos else []))


def _build_workload(args: argparse.Namespace, out, kind: str = ""):
    """Seeded testbed + the standard ``cli-app`` class + a scheduler —
    the setup every workload subcommand (run / trace / metrics /
    federation / bench) shares.  Returns ``(meta, app, scheduler)``, or
    ``None`` after printing the error when the scheduler kind is
    unknown (callers translate that into exit status 2)."""
    meta = _build_meta(args)
    app = meta.create_class("cli-app",
                            implementations_for_all_platforms(),
                            work_units=args.work)
    try:
        scheduler = meta.make_scheduler(kind or args.scheduler)
    except ValueError as exc:
        print(str(exc), file=out)
        return None
    return meta, app, scheduler


def _write_out(path: str, doc: dict, what: str, out) -> None:
    """Write ``--out`` (when given) in the ledger byte form."""
    if path:
        ledger.write_json(path, doc)
        print(f"wrote {what} to {path}", file=out)


# -- flag groups, declared once; dests are scenario parameter names ----------
SCHEDULERS = ("random | irs | load | mct | round-robin | kofn | cost | "
              "economy")


def _testbed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domains", dest="n_domains", type=int, default=2,
                   help="administrative domains (default 2)")
    p.add_argument("--hosts", dest="hosts_per_domain", type=int, default=4,
                   help="hosts per domain (default 4)")
    p.add_argument("--platforms", dest="platform_mix", type=int, default=2,
                   help="distinct platforms in the mix (default 2)")
    p.add_argument("--load", dest="background_load", type=float,
                   default=0.5, help="mean background load (default 0.5)")
    p.add_argument("--seed", type=int, default=0,
                   help="experiment seed (default 0)")
    p.add_argument("--shards", type=int, default=0,
                   help="federate the Collection into N shards "
                        "(default 0 = one monolithic Collection)")
    p.add_argument("--replication", type=int, default=2,
                   help="replicas per record when federated (default 2)")
    p.add_argument("--gossip-interval", type=float, default=0.0,
                   help="anti-entropy sweep period in virtual seconds "
                        "(default 0 = gossip off)")
    p.add_argument("--cache-ttl", type=float, default=0.0,
                   help="federation query-cache TTL in virtual seconds "
                        "(default 0 = cache off)")


def _workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--work", type=float, default=200.0)
    p.add_argument("--scheduler", default="irs", help=SCHEDULERS)
    p.add_argument("--wait", action="store_true",
                   help="advance virtual time until completion")


def _wave_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--waves", type=int, default=6,
                   help="placement waves to attempt (default 6)")
    p.add_argument("--count", dest="per_wave", type=int, default=4,
                   help="instances requested per wave (default 4)")
    p.add_argument("--work", type=float, default=250.0,
                   help="work units per instance (default 250)")
    p.add_argument("--wave-interval", type=float, default=90.0,
                   help="virtual seconds between waves (default 90)")
    p.add_argument("--scheduler", default="irs", help=SCHEDULERS)


def _chaos_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chaos-profile", default="",
                   help="arm a fault-injection campaign (light | hosts | "
                        "partitions | lossy | mixed | heavy)")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="campaign seed (independent of --seed)")
    p.add_argument("--chaos-horizon", type=float, default=0.0,
                   help="stop injecting after this much virtual time "
                        "(default: the scenario's)")


def _layer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retry", action="store_true",
                   help="enable the RetryPolicy resilience layer")
    p.add_argument("--guardrails", action="store_true",
                   help="enable the guardrails self-healing layer")


def _traffic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--users", type=int, default=1_000_000,
                   help="traffic population size; arrival cost is "
                        "O(requests), not O(users) (default 1000000)")
    p.add_argument("--duration", type=float, default=240.0,
                   help="open-loop traffic window in virtual seconds "
                        "(default 240)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker daemons draining the placement queue "
                        "(default 4)")
    p.add_argument("--queue-cap", type=int, default=64,
                   help="bounded backlog size; 0 = unbounded, i.e. "
                        "shedding off (default 64)")
    p.add_argument("--backpressure", choices=BACKPRESSURE_MODES,
                   default="shed",
                   help="what a full backlog does to a new submit "
                        "(default shed)")
    p.add_argument("--scheduler", default="irs", help=SCHEDULERS)
    p.add_argument("--work", type=float, default=10.0,
                   help="work units per placed service instance "
                        "(default 10)")
    p.add_argument("--rate", dest="requests_per_user_hour", type=float,
                   default=0.0036,
                   help="requests per user per hour (default 0.0036 — "
                        "1 req/s at a million users)")
    p.add_argument("--surge", dest="surge_multiplier", type=float,
                   default=12.0,
                   help="overload surge rate multiplier through the "
                        "middle fifth of the run (default 12)")
    p.add_argument("--host-slots", type=int, default=8,
                   help="reservation slots per host (default 8)")


def _events_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", dest="include_events", action="store_true",
                   help="include per-fault event logs in --out JSON")


def _allow_exhausted_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--allow-exhausted", action="store_true",
                   help="exit 0 even when an error budget is exhausted")


def _slo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", dest="sampler_window", type=float,
                   default=30.0,
                   help="sampling window in virtual seconds (default 30)")
    p.add_argument("--spec", dest="specs", default="", metavar="FILE",
                   help="JSON file of SLO objectives ({\"slos\": [...]}; "
                        "default: the stock Legion objectives)")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format (default table)")
    p.add_argument("--no-windows", dest="include_windows",
                   action="store_false",
                   help="omit per-window verdict rows from the report")
    _allow_exhausted_flag(p)


def _economy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("time", "cost"), default="cost",
                   help="economy optimization mode: minimize completion "
                        "time within budget, or cost within deadline "
                        "(default cost)")
    p.add_argument("--users", type=int, default=2,
                   help="concurrent users, each with their own budget, "
                        "deadline, and application class (default 2)")
    p.add_argument("--budget", type=float, default=40.0,
                   help="per-user budget in currency units (default 40)")
    p.add_argument("--deadline", type=float, default=900.0,
                   help="per-user experiment deadline in virtual seconds "
                        "from first submission (default 900)")
    p.add_argument("--deadline-safety", type=float, default=0.6,
                   help="fraction of the remaining deadline a host's "
                        "estimated completion must fit within "
                        "(default 0.6)")


def _serve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slo-threshold", type=float, default=30.0,
                   help="e2e latency SLO threshold in virtual seconds "
                        "(default 30)")
    _allow_exhausted_flag(p)


def _gameday_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kills", type=int, default=2,
                   help="worker crashes injected inside the surge "
                        "(default 2; the pass gate requires >= 2)")
    p.add_argument("--lease-ttl", type=float, default=20.0,
                   help="request-ownership lease TTL in virtual seconds "
                        "(default 20)")
    p.add_argument("--heartbeat-interval", type=float, default=5.0,
                   help="worker lease-renewal period (default 5)")
    p.add_argument("--scan-interval", type=float, default=5.0,
                   help="Supervisor expired-lease scan period (default 5)")
    p.add_argument("--checkpoint-at", type=float, default=0.0,
                   help="from this virtual time on, poll for a safe point, "
                        "then checkpoint/teardown/restore the tier mid-run "
                        "(default 0 = off; with --compare, 0.75 x "
                        "duration)")


def cmd_hosts(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    table = ExperimentTable("hosts", ["name", "domain", "arch", "os",
                                      "cpus", "speed", "load",
                                      "slots free"])
    for host in meta.hosts:
        spec = host.machine.spec
        table.add(host.machine.name, host.domain, spec.arch, spec.os_name,
                  spec.cpus, spec.speed,
                  round(host.machine.load_average, 2), host.free_slots)
    table.print(out)
    return 0


def cmd_vaults(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    table = ExperimentTable("vaults", ["name", "domain", "capacity (GB)",
                                       "OPRs"])
    for vault in meta.vaults:
        table.add(vault.location.node_id, vault.location.domain,
                  vault.capacity_bytes / 1e9, vault.opr_count())
    table.print(out)
    return 0


def cmd_context(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    for path, loid in meta.context.walk():
        print(f"{path:32s} {loid}", file=out)
    return 0


def cmd_query(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    try:
        records = meta.collection.query(args.expression)
    except Exception as exc:
        print(f"query error: {exc}", file=out)
        return 2
    for record in records:
        print(f"{record.get('host_name', '?'):16s} {record.member}",
              file=out)
    print(f"{len(records)} record(s)", file=out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    workload = _build_workload(args, out)
    if workload is None:
        return 2
    meta, app, scheduler = workload
    outcome = scheduler.run([ObjectClassRequest(app, count=args.count)])
    if not outcome.ok:
        print(f"placement failed: {outcome.detail}", file=out)
        return 1
    print(f"placed {len(outcome.created)} instance(s) via "
          f"{args.scheduler} in {outcome.elapsed * 1e3:.1f} virtual ms "
          f"({outcome.collection_queries} Collection queries)", file=out)
    for mapping in outcome.feedback.reserved_entries:
        print(f"  {mapping}", file=out)
    if args.wait:
        n, t = wait_for_completion(meta, app, outcome.created)
        print(f"{n}/{len(outcome.created)} completed by virtual "
              f"t={t:.1f}s", file=out)
    if meta.chaos is not None:
        stats = meta.uninstall("chaos").injector.stats()
        print(f"chaos: {sum(stats['injected'].values())} fault(s) "
              f"injected, {stats['jobs_lost']} job(s) lost, "
              f"{len(stats['residual_faults'])} residual after teardown",
              file=out)
    if args.trace:
        from ..bench.sequence import protocol_trace
        print(file=out)
        print(protocol_trace(meta.spans, limit=args.trace), file=out)
    if args.trace_out:
        from ..obs.trace_export import chrome_trace_json, spans_to_jsonl
        if args.trace_out.endswith(".jsonl"):
            text = spans_to_jsonl(meta.spans.spans)
        else:
            text = chrome_trace_json(meta.spans.spans, indent=2)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(meta.spans.spans)} span(s) covering "
              f"{len(meta.spans.traces())} trace(s) to {args.trace_out}",
              file=out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    """Run a seeded workload and analyse/export its span traces."""
    from ..obs.trace_export import (
        aggregate_step_latencies,
        chrome_trace_json,
        render_critical_path_report,
        render_step_aggregate,
        render_step_table,
        render_tree,
        spans_to_jsonl,
    )
    workload = _build_workload(args, out)
    if workload is None:
        return 2
    meta, app, scheduler = workload
    outcome = scheduler.run([ObjectClassRequest(app, count=args.count)])
    if outcome.ok and args.wait:
        wait_for_completion(meta, app, outcome.created)
    spans = meta.spans.spans
    if args.mode == "tree":
        text = render_tree(spans)
    elif args.mode == "summary":
        text = render_step_table(
            spans,
            title=f"span latency: {args.count} x {args.work:.0f}-unit "
                  f"tasks via {args.scheduler} (seed {args.seed})")
    elif args.mode == "critical-path":
        text = render_critical_path_report(spans)
    elif args.mode == "steps":
        text = render_step_aggregate(
            aggregate_step_latencies(spans),
            title=f"cross-trace step latency: {args.count} x "
                  f"{args.work:.0f}-unit tasks via {args.scheduler} "
                  f"(seed {args.seed})")
    else:  # chrome
        text = chrome_trace_json(spans, indent=2)
    if args.out:
        if args.out.endswith(".jsonl") and args.mode == "chrome":
            text = spans_to_jsonl(spans)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.mode} output for {len(meta.spans.traces())} "
              f"trace(s) to {args.out}", file=out)
    else:
        print(text, file=out)
    return 0 if outcome.ok else 1


def _parse_quantiles(text: str) -> tuple:
    """Parse ``p50,p90,p99``-style quantile lists (bare floats work too)."""
    quantiles = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            q = float(token[1:]) / 100.0 if token.lower().startswith("p") \
                else float(token)
        except ValueError:
            raise ValueError(f"bad quantile {token!r}: expected e.g. "
                             f"p50,p90,p99") from None
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile {token!r} out of range (0, 1)")
        quantiles.append(q)
    if not quantiles:
        raise ValueError("no quantiles given")
    return tuple(quantiles)


def cmd_metrics(args: argparse.Namespace, out) -> int:
    """Run a seeded workload and render the metrics snapshot."""
    from ..obs import (
        build_snapshot,
        render_report,
        snapshot_to_json,
        snapshot_to_prometheus,
    )
    workload = _build_workload(args, out)
    if workload is None:
        return 2
    meta, app, scheduler = workload
    outcome = scheduler.run([ObjectClassRequest(app, count=args.count)])
    if outcome.ok and args.wait:
        wait_for_completion(meta, app, outcome.created)
    try:
        quantiles = _parse_quantiles(args.quantiles)
    except ValueError as exc:
        print(str(exc), file=out)
        return 2
    snapshot = build_snapshot(meta.metrics)
    if args.format == "json":
        print(snapshot_to_json(snapshot, indent=2), file=out)
    elif args.format == "prom":
        print(snapshot_to_prometheus(snapshot), end="", file=out)
    else:
        print(render_report(
            snapshot,
            title=f"metrics: {args.count} x {args.work:.0f}-unit tasks "
                  f"via {args.scheduler} (seed {args.seed})",
            quantiles=quantiles), file=out)
    return 0 if outcome.ok else 1


def cmd_bench(args: argparse.Namespace, out) -> int:
    table = ExperimentTable(
        f"scheduler comparison: {args.count} x {args.work:.0f}-unit tasks",
        ["scheduler", "ok", "makespan (s)", "sched latency (ms)"])
    for kind in args.scheduler or ["random", "irs", "load"]:
        workload = _build_workload(args, out, kind=kind)
        if workload is None:
            return 2
        meta, app, scheduler = workload
        outcome = scheduler.run([ObjectClassRequest(app,
                                                    count=args.count)])
        makespan = float("nan")
        if outcome.ok:
            n, t = wait_for_completion(meta, app, outcome.created)
            if n == len(outcome.created):
                makespan = t
        table.add(kind, outcome.ok, makespan, outcome.elapsed * 1e3)
    table.print(out)
    return 0


def cmd_federation(args: argparse.Namespace, out) -> int:
    """Run a seeded federated workload and print ring/gossip stats."""
    if args.shards < 2:
        args.shards = 3  # this subcommand only makes sense federated
    workload = _build_workload(args, out)
    if workload is None:
        return 2
    meta, app, scheduler = workload
    outcome = scheduler.run([ObjectClassRequest(app, count=args.count)])
    if outcome.ok and args.wait:
        wait_for_completion(meta, app, outcome.created)

    router = meta.collection
    ring = router.ring
    table = ExperimentTable(
        f"ring layout: {args.shards} shards, replication "
        f"{router.replication} (seed {args.seed})",
        ["shard", "vnodes", "arc %", "members", "home members"])
    fractions = ring.arc_fractions()
    layout = ring.layout()
    for shard in meta.collection_shards:
        home = sum(1 for m in shard.collection.members()
                   if shard.is_home(m))
        table.add(shard.shard_id, layout[shard.shard_id],
                  round(100.0 * fractions[shard.shard_id], 1),
                  len(shard), home)
    table.print(out)

    print(file=out)
    placement = ExperimentTable(
        "replica placement (hosts)",
        ["member", "home", "replicas"])
    for host in meta.hosts:
        plist = ring.preference_list(str(host.loid), router.replication)
        placement.add(host.machine.name, plist[0], " ".join(plist[1:]))
    placement.print(out)

    print(file=out)
    print("query routing:", file=out)
    print(f"  queries served      {router.queries_served}", file=out)
    print(f"  partial queries     {router.partial_queries}", file=out)
    print(f"  healthy shards      {len(router.healthy_shards())}/"
          f"{len(router.shards)}", file=out)
    cache = router.cache_stats()
    print(f"  cache hit ratio     {cache['hit_ratio']:.2f} "
          f"({cache['hit']:.0f} hits / {cache['miss']:.0f} misses / "
          f"{cache['expired']:.0f} expired)", file=out)
    print(f"  mean staleness      {router.mean_staleness():.1f}s",
          file=out)
    if meta.gossip is not None:
        print("gossip:", file=out)
        print(f"  rounds              {meta.gossip.rounds}", file=out)
        print(f"  records exchanged   {meta.gossip.records_exchanged}",
              file=out)
        print(f"  bytes exchanged     {meta.gossip.bytes_exchanged}",
              file=out)
    else:
        print("gossip: disabled (--gossip-interval 0)", file=out)
    return 0 if outcome.ok else 1


# -- the campaign subcommands: one handler over repro.scenario ---------------
def _residual_faults(result: Any, args: argparse.Namespace) -> List[str]:
    reports = result.reports.values() if args.compare else [result]
    worst = max(len(report.residual_faults) for report in reports)
    return [f"{worst} residual fault(s) survived teardown"] if worst else []


def _guardrails_problems(result: Any, args: argparse.Namespace) -> List[str]:
    if not args.compare:
        return _residual_faults(result, args)
    if ledger.survival_not_regressed(result.to_dict()):
        return []
    return [f"guardrails regressed survival by "
            f"{-100.0 * result.survival_delta:.1f} percentage points"]


def _slo_problems(result: Any, args: argparse.Namespace) -> List[str]:
    if args.allow_exhausted:
        return []
    if args.compare:
        doc = result.to_dict()
        if ledger.guardrails_budgets_intact(doc):
            return []
        return [f"{doc['modes']['guardrails']['slo']['exhausted']} error "
                f"budget(s) exhausted with guardrails on"]
    if ledger.budgets_intact(result):
        return []
    return [f"error budget exhausted ({result['minutes_lost']:g} SLO "
            f"minutes lost)"]


def _economy_problems(result: Any, args: argparse.Namespace) -> List[str]:
    if not args.compare:
        return []
    doc = result.to_dict()
    if ledger.economy_beats_baselines(doc):
        return []
    losses = [base for base, won in doc["gate"].items() if not won]
    return [f"economy does not beat {', '.join(losses)} on both "
            f"deadline-miss rate and total cost"]


def _serve_problems(result: Any, args: argparse.Namespace) -> List[str]:
    if args.compare:
        if ledger.shedding_protects_slo(result.to_dict()):
            return []
        return ["shedding does not protect the e2e latency SLO under this "
                "overload"]
    if result.latency_budget_exhausted and not args.allow_exhausted:
        return ["e2e latency error budget exhausted"]
    return []


def _gameday_problems(result: Any, args: argparse.Namespace) -> List[str]:
    if args.compare:
        return [f"gameday gate {gate} failed"
                for gate in ledger.LEDGERS["gameday"].failed(
                    result.to_dict())]
    return [] if result.passed else ["game-day verdict failed"]


def _show_slo(result: Any, args: argparse.Namespace) -> str:
    from ..obs.report import health_report_to_json, render_health_report
    if args.compare:
        return result.summary()
    if args.format == "json":
        return health_report_to_json(result)
    return render_health_report(result)


@dataclass(frozen=True)
class CampaignCommand:
    """A campaign subcommand: the scenario it runs, the comparison
    ``--compare`` runs instead, its flag groups and defaults, and the
    gates its exit status checks."""

    scenario: str
    comparison: str
    help: str
    compare_help: str
    flags: Tuple[Callable[[argparse.ArgumentParser], None], ...]
    problems: Callable[[Any, argparse.Namespace], List[str]]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    show: Callable[[Any, argparse.Namespace], str] = \
        lambda result, _args: result.summary()


TRAFFIC_WORLD = dict(n_domains=3, hosts_per_domain=6, platform_mix=3,
                     background_load=0.3)

#: campaign subcommand -> what it runs
CAMPAIGNS = {
    "chaos": CampaignCommand(
        "chaos", "retry",
        "run a seeded fault-injection campaign and report survival",
        "run the identical campaign retry-off and retry-on",
        (_testbed_flags, _wave_flags, _chaos_flags, _layer_flags),
        _residual_faults,
        dict(chaos_profile="mixed")),
    "guardrails": CampaignCommand(
        "chaos", "guardrails",
        "a chaos campaign with guardrails and retries on (default "
        "profile hosts, chaos seed 1)",
        "run it off / retries-only / guardrails+retries; exit nonzero if "
        "guardrails regress survival",
        (_testbed_flags, _wave_flags, _chaos_flags, _events_flag),
        _guardrails_problems,
        dict(chaos_profile="hosts", chaos_seed=1, retry=True,
             guardrails=True)),
    "slo": CampaignCommand(
        "slo", "guardrails",
        "run placement waves under windowed sampling and report SLO "
        "health: error budgets, burn-rate alerts, exemplar traces",
        "run the identical chaos campaign off / retries / guardrails and "
        "compare SLO minutes lost (needs --chaos-profile)",
        (_testbed_flags, _wave_flags, _chaos_flags, _layer_flags,
         _slo_flags),
        _slo_problems, dict(include_events=False), _show_slo),
    "economy": CampaignCommand(
        "economy", "baselines",
        "run a computational-economy campaign: budgets, deadlines, market "
        "pricing, and reservation auctions",
        "replay it under the economy and the random/irs/cost baselines; "
        "exit nonzero unless the economy beats random and irs on both "
        "deadline-miss rate and total cost",
        (_testbed_flags, _wave_flags, _chaos_flags, _layer_flags,
         _economy_flags),
        _economy_problems, dict(scheduler="economy", per_wave=2)),
    "serve": CampaignCommand(
        "service", "shedding",
        "run the live service tier under seeded open-loop traffic: "
        "gateway, bounded placement queue, workers, SLO verdicts",
        "run the identical overload with the bounded backlog on then off; "
        "exit nonzero unless shedding keeps p99 inside the SLO while the "
        "unbounded run exhausts its error budget",
        (_testbed_flags, _traffic_flags, _serve_flags), _serve_problems,
        TRAFFIC_WORLD),
    "gameday": CampaignCommand(
        "gameday", "restore",
        "run a recovery game day: chaos kills workers under live traffic; "
        "gates on zero lost requests and zero duplicate placements",
        "run it straight through and with a mid-run checkpoint/restore; "
        "exit nonzero unless both pass and their report cores are "
        "byte-identical",
        (_testbed_flags, _traffic_flags, _gameday_flags),
        _gameday_problems, TRAFFIC_WORLD),
}


def cmd_campaign(args: argparse.Namespace, out) -> int:
    """Run the subcommand's scenario (or, with ``--compare``, its
    comparison) with the flags its parameters name, print it, write
    ``--out``, and exit 1 if a gate failed (2 on a usage error)."""
    entry = CAMPAIGNS[args.command]
    comparison = entry.comparison if args.compare else ""
    scenario = COMPARISONS[comparison].scenario if comparison \
        else entry.scenario
    wanted = inspect.signature(SCENARIOS[scenario]).parameters
    params = {k: v for k, v in vars(args).items() if k in wanted}
    try:
        result = campaign(scenario, comparison, **params)
    except (LegionError, ValueError) as exc:
        print(f"{args.command} error: {exc}", file=out)
        return 2
    print(entry.show(result, args), file=out)
    _write_out(args.out, result if isinstance(result, dict)
               else result.to_dict(),
               f"{args.command} {'comparison' if comparison else 'report'}",
               out)
    problems = entry.problems(result, args)
    for problem in problems:
        print(f"ERROR: {problem}", file=out)
    return 1 if problems else 0


def cmd_scale(args: argparse.Namespace, out) -> int:
    """Run the scale campaign and print its placement and query-engine
    tables; ``legion-sim ledger check|write scale`` owns the committed
    BENCH_scale.json ledger and its speed gate."""
    from ..bench import scale as scale_bench
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        print(f"bad --sizes {args.sizes!r}: expected comma-separated "
              f"integers", file=out)
        return 2
    try:
        report = scale_bench.build_report(
            sizes=sizes, waves=args.waves, per_wave=args.count,
            seed=args.seed, scheduler=args.scheduler,
            members=args.members, reps=args.reps)
    except (LegionError, ValueError) as exc:
        print(f"scale error: {exc}", file=out)
        return 2
    scale_bench.placement_table(report["sizes"]).print(out)
    scale_bench.engine_table(report["query_engines"]).print(out)
    _write_out(args.out, report, "scale ledger", out)
    return 0


def cmd_ledger(args: argparse.Namespace, out) -> int:
    """Check or regenerate committed ledgers (``repro.bench.ledger``)."""
    unknown = [name for name in args.names if name not in ledger.LEDGERS]
    if unknown:
        print(f"unknown ledger(s) {', '.join(unknown)}; expected any of "
              f"{', '.join(ledger.LEDGERS)}", file=out)
        return 2
    chosen = [ledger.LEDGERS[name]
              for name in args.names or ledger.LEDGERS]
    if args.action == "write":
        for entry in chosen:
            print(f"wrote {ledger.write(entry)}", file=out)
        return 0
    problems = [p for entry in chosen for p in ledger.check(entry)]
    for problem in problems:
        print(f"ERROR: {problem}", file=out)
    if not problems:
        print(f"ledger check passed: "
              f"{', '.join(entry.name for entry in chosen)}", file=out)
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legion-sim",
        description="Drive a simulated Legion metasystem from the "
                    "command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hosts", help="list simulated hosts")
    _testbed_flags(p)
    p.set_defaults(fn=cmd_hosts)

    p = sub.add_parser("vaults", help="list vaults")
    _testbed_flags(p)
    p.set_defaults(fn=cmd_vaults)

    p = sub.add_parser("context", help="walk the context space")
    _testbed_flags(p)
    p.set_defaults(fn=cmd_context)

    p = sub.add_parser("query", help="query the Collection")
    _testbed_flags(p)
    p.add_argument("expression", help="Collection query expression")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("run", help="schedule instances of a class")
    _testbed_flags(p)
    _workload_flags(p)
    p.add_argument("--trace", type=int, default=0, metavar="N",
                   help="print a sequence diagram of the first N "
                        "protocol invocations")
    p.add_argument("--trace-out", default="", metavar="FILE",
                   help="export span traces to FILE (Chrome trace-event "
                        "JSON; a .jsonl suffix dumps one span per line)")
    _chaos_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("metrics",
                       help="run a workload and export the metrics "
                            "snapshot")
    _testbed_flags(p)
    _workload_flags(p)
    p.add_argument("--format", choices=("table", "json", "prom"),
                   default="table",
                   help="output format (default table)")
    p.add_argument("--quantiles", default="p50,p90", metavar="LIST",
                   help="histogram quantile columns for the table "
                        "format, e.g. p50,p90,p99 (default p50,p90)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("trace",
                       help="run a workload and analyse its span traces")
    p.add_argument("mode",
                   choices=("tree", "summary", "critical-path", "steps",
                            "chrome"),
                   help="tree = ASCII trace trees, summary = per-step "
                        "latency table, critical-path = dominant step "
                        "per request, steps = cross-trace per-step "
                        "count/mean/p95 aggregate, chrome = trace-event "
                        "JSON")
    _testbed_flags(p)
    _workload_flags(p)
    p.add_argument("--out", default="", metavar="FILE",
                   help="write output to FILE instead of stdout "
                        "(chrome mode + .jsonl suffix dumps spans as "
                        "JSONL)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("federation",
                       help="run a federated workload and print ring "
                            "layout, replica placement, and "
                            "gossip/staleness stats")
    _testbed_flags(p)
    _workload_flags(p)
    p.set_defaults(fn=cmd_federation)

    for command, entry in CAMPAIGNS.items():
        p = sub.add_parser(command, help=entry.help)
        for flags in entry.flags:
            flags(p)
        p.add_argument("--compare", action="store_true",
                       help=entry.compare_help)
        p.add_argument("--out", default="", metavar="FILE",
                       help="write the report (with --compare, the "
                            "comparison) JSON to FILE")
        p.set_defaults(fn=cmd_campaign, **entry.defaults)

    p = sub.add_parser("scale",
                       help="run the scale campaign: placement waves vs "
                            "system size and the query-engine microbench")
    p.add_argument("--sizes", default="64,256,1024",
                   help="comma-separated total host counts, each "
                        "divisible by 4 (default 64,256,1024)")
    p.add_argument("--waves", type=int, default=4,
                   help="placement waves per size (default 4)")
    p.add_argument("--count", type=int, default=6,
                   help="instances requested per wave (default 6)")
    p.add_argument("--seed", type=int, default=0,
                   help="experiment seed (default 0)")
    p.add_argument("--scheduler", default="irs", help=SCHEDULERS)
    p.add_argument("--members", type=int, default=4096,
                   help="member count for the query-engine microbench "
                        "(default 4096)")
    p.add_argument("--reps", type=int, default=20,
                   help="timing repetitions per engine (default 20)")
    p.add_argument("--out", default="", metavar="FILE",
                   help="write the scale ledger JSON to FILE")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("ledger",
                       help="check or regenerate the committed "
                            "BENCH_*.json ledgers")
    p.add_argument("action", choices=("check", "write"),
                   help="check = regenerate twice, byte-compare, diff "
                        "against the committed file and evaluate every "
                        "gate; write = regenerate the committed files")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help=f"ledgers to act on (default all: "
                        f"{', '.join(ledger.LEDGERS)})")
    p.set_defaults(fn=cmd_ledger)

    p = sub.add_parser("bench", help="compare schedulers on one workload")
    _testbed_flags(p)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--work", type=float, default=200.0)
    p.add_argument("--scheduler", action="append",
                   help="repeatable; default random, irs, load")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
