"""The scale campaign: the ``BENCH_scale.json`` speed ledger.

Legion was "intended to connect many thousands, perhaps millions, of
hosts"; this harness measures how fast the *simulator itself* runs as the
testbed grows, so performance work on the hot paths (compiled query
plans, the Scheduler's viable-hosts cache, the kernel dispatch loop) is
pinned by a committed ledger instead of anecdotes.

Two measurements feed the ledger:

* **placement scale** — for each system size, the seeded ``scale``
  scenario (:mod:`repro.scenario`) runs a fixed sequence of placement
  waves; the datapoint records both the *deterministic* outcome
  (placements, instances, virtual seconds, kernel events, messages,
  Collection queries, viable-cache hits) and the *machine-dependent*
  speed (wall seconds, events/sec);
* **query engines** — the E19a selective query evaluated over one large
  member set by all three engines: the tree-walking evaluator, the
  compiled closure plan, and the inverted-index Collection.

The split matters for ``legion-sim ledger check scale``
(:mod:`repro.bench.ledger`): it fails if any *deterministic* field
drifted from the committed datapoint (the ledger is stale — someone
changed behaviour without regenerating) or if events/sec fell below
``DEFAULT_MIN_RATIO`` times the committed speed (a real performance
regression, with a generous tolerance for machine variance).  All
wall-clock numbers come from the monotonic :func:`time.perf_counter`.
Regenerate the committed ledger with ``legion-sim ledger write scale``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Dict, Sequence

from ..collection.collection import Collection
from ..collection.indexing import IndexedCollection
from ..collection.query.compile import compile_query
from ..collection.query.evaluate import QueryFunctions, matches
from ..collection.query.parser import parse
from ..naming.loid import LOID
from .harness import ExperimentTable

__all__ = [
    "SCALE_QUERY",
    "DEFAULT_SIZES",
    "DEFAULT_MIN_RATIO",
    "ScaleDatapoint",
    "QueryEngineBench",
    "fill_hosts",
    "scale_datapoint",
    "run_query_engines",
    "build_report",
    "placement_table",
    "engine_table",
]

#: the E19a "realistic big-system query": selective (platform + site),
#: every clause on the compiled fast path
SCALE_QUERY = ('$host_arch == "sparc" and $site == "site4" '
               'and $host_up == true and $host_load < 2')

#: committed-ledger system sizes (total hosts)
DEFAULT_SIZES = (64, 256, 1024)

#: regenerated events/sec may drop to this fraction of the committed
#: value before the ledger check fails — generous, because machines vary
DEFAULT_MIN_RATIO = 0.3

#: fields of a datapoint that must reproduce bit-for-bit on any machine
DETERMINISTIC_FIELDS = (
    "hosts", "waves", "per_wave", "seed", "scheduler", "placements",
    "instances", "virtual_s", "events", "messages", "collection_queries",
    "viable_cache_hits",
)


@dataclass
class ScaleDatapoint:
    """One system size's ledger entry (see DETERMINISTIC_FIELDS)."""

    hosts: int
    waves: int
    per_wave: int
    seed: int
    scheduler: str
    placements: int
    instances: int
    virtual_s: float
    events: int
    messages: int
    collection_queries: int
    viable_cache_hits: int
    #: machine-dependent: monotonic wall seconds for the wave loop
    wall_s: float
    #: machine-dependent: kernel events dispatched per wall second
    events_per_s: float


@dataclass
class QueryEngineBench:
    """The E19a query evaluated by all three engines (us/query)."""

    members: int
    matching: int
    reps: int
    treewalk_us: float
    compiled_us: float
    indexed_us: float
    compiled_speedup: float
    indexed_speedup: float


def fill_hosts(coll: Collection, n: int) -> None:
    """Populate a Collection with the E19a synthetic host records."""
    coll.require_auth = False
    archs = [("sparc", "SunOS"), ("mips", "IRIX"), ("x86", "Linux"),
             ("alpha", "OSF1")]
    for i in range(n):
        arch, os_name = archs[i % 4]
        coll.join(LOID(("d", "host", f"h{i}")), {
            "host_arch": arch, "host_os_name": os_name,
            "site": f"site{i % 64}",
            "host_up": True, "host_load": float(i % 4),
        })


# -- placement scale ---------------------------------------------------------
def scale_datapoint(run: Any) -> ScaleDatapoint:
    """One size's datapoint from a finished ``scale`` scenario
    (:mod:`repro.scenario`).  The testbed dispatches no events and sends
    no messages before the waves start, so the kernel and transport
    totals are the waves' own."""
    p, meta = run.scenario.params, run.meta
    placed = [outcome for _user, outcome, _at in run.placements
              if outcome is not None and outcome.ok]
    sched = run.schedulers[""]
    events = meta.sim.events_processed
    return ScaleDatapoint(
        hosts=p["hosts"], waves=p["waves"], per_wave=p["per_wave"],
        seed=p["seed"], scheduler=p["scheduler"], placements=len(placed),
        instances=sum(len(outcome.created) for outcome in placed),
        virtual_s=meta.now - run.t0, events=events,
        messages=meta.transport.messages_sent,
        collection_queries=sched.collection_queries,
        viable_cache_hits=sched.viable_cache_hits,
        wall_s=run.wall_s,
        events_per_s=(events / run.wall_s if run.wall_s > 0 else 0.0))


# -- query engines -----------------------------------------------------------
def run_query_engines(members: int = 4096,
                      reps: int = 20) -> QueryEngineBench:
    """Time tree-walk vs compiled vs indexed on the E19a query.

    The tree-walk and compiled loops evaluate the identical attribute
    mappings, so the ratio isolates the engine; the indexed row times the
    full ``IndexedCollection.query`` (candidate narrowing + compiled
    residual evaluation).
    """
    scan = Collection(LOID(("d", "svc", "scale-scan")))
    idx = IndexedCollection(LOID(("d", "svc", "scale-idx")))
    fill_hosts(scan, members)
    fill_hosts(idx, members)
    matching = len(scan.query(SCALE_QUERY))
    assert matching == len(idx.query(SCALE_QUERY))

    ast = parse(SCALE_QUERY)
    fns = QueryFunctions()
    plan = compile_query(ast, fns)
    records = [scan.record_of(m).attributes for m in scan.members()]

    def timed(once, n=reps) -> float:
        once()  # warm caches outside the timed region
        t0 = perf_counter()
        for _ in range(n):
            once()
        return (perf_counter() - t0) / n * 1e6

    treewalk_us = timed(
        lambda: [r for r in records if matches(ast, r, fns)])
    plan_matches = plan.matches
    compiled_us = timed(
        lambda: [r for r in records if plan_matches(r)])
    indexed_us = timed(lambda: idx.query(SCALE_QUERY))
    return QueryEngineBench(
        members=members, matching=matching, reps=reps,
        treewalk_us=treewalk_us, compiled_us=compiled_us,
        indexed_us=indexed_us,
        compiled_speedup=(treewalk_us / compiled_us
                          if compiled_us > 0 else float("inf")),
        indexed_speedup=(treewalk_us / indexed_us
                         if indexed_us > 0 else float("inf")))


# -- the ledger --------------------------------------------------------------
def build_report(sizes: Sequence[int] = DEFAULT_SIZES,
                 waves: int = 4, per_wave: int = 6, seed: int = 0,
                 scheduler: str = "irs", members: int = 4096,
                 reps: int = 20) -> Dict[str, Any]:
    """Assemble the full BENCH_scale.json document."""
    from ..scenario import run_scenario, scale
    points = [run_scenario(scale(hosts=n, waves=waves, per_wave=per_wave,
                                 seed=seed, scheduler=scheduler))
              for n in sizes]
    engines = run_query_engines(members=members, reps=reps)
    return {
        "schema": 1,
        "min_ratio": DEFAULT_MIN_RATIO,
        "query": SCALE_QUERY,
        "sizes": [asdict(p) for p in points],
        "query_engines": asdict(engines),
    }


# -- rendering ---------------------------------------------------------------
def placement_table(points: Sequence[Dict[str, Any]]) -> ExperimentTable:
    table = ExperimentTable(
        "scale — placement waves vs system size",
        ["hosts", "placements", "instances", "virtual s", "events",
         "messages", "queries", "cache hits", "wall s", "events/s"])
    for p in points:
        table.add(p["hosts"], p["placements"], p["instances"],
                  p["virtual_s"], p["events"], p["messages"],
                  p["collection_queries"], p["viable_cache_hits"],
                  p["wall_s"], p["events_per_s"])
    return table


def engine_table(engines: Dict[str, Any]) -> ExperimentTable:
    table = ExperimentTable(
        f"scale — E19a query engines at {engines['members']} members "
        f"(wall us/query)",
        ["engine", "us/query", "speedup vs tree-walk"])
    table.add("tree-walk", engines["treewalk_us"], 1.0)
    table.add("compiled", engines["compiled_us"],
              engines["compiled_speedup"])
    table.add("indexed", engines["indexed_us"],
              engines["indexed_speedup"])
    return table
