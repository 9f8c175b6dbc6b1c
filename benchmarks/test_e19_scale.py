"""E19 (extension) — metasystem scale: towards "thousands of hosts".

Legion's stated ambition was thousands-to-millions of hosts.  Both
measurements now run through the :mod:`repro.bench.scale` harness — the
same code that regenerates the committed ``BENCH_scale.json`` ledger and
backs the CI ``scale-smoke`` job — so the experiment tables here and the
ledger can never drift apart.  All wall-clock timing inside the harness
uses the monotonic :func:`time.perf_counter`.

(a) **Query engine cost** vs member count: the tree-walking evaluator
    against the compiled closure plan and the inverted-index Collection
    on the selective E19a query — compiled keeps per-record cost flat
    and the index keeps per-query cost flat;
(b) **placement waves** vs system size: the seeded ``scale`` scenario
    runs the ledger's fixed wave sequence at each size; placement cost must stay sub-linear in total
    hosts for fixed request sizes, and the viable-hosts cache must
    absorb the burst lookups.
"""

from dataclasses import asdict

from conftest import run_once

from repro.bench import ExperimentTable
from repro.bench.scale import placement_table, run_query_engines
from repro.scenario import run_scenario, scale


def query_scaling() -> ExperimentTable:
    table = ExperimentTable(
        "E19a — query cost vs members: tree-walk vs compiled vs indexed "
        "(wall us/query)",
        ["members", "matching", "tree-walk", "compiled", "indexed",
         "compiled x", "indexed x"])
    rows = []
    for n in (256, 1024, 4096):
        bench = run_query_engines(members=n, reps=20)
        table.add(n, bench.matching, bench.treewalk_us,
                  bench.compiled_us, bench.indexed_us,
                  bench.compiled_speedup, bench.indexed_speedup)
        rows.append(bench)
    table._rows = rows
    return table


def scheduling_scaling() -> ExperimentTable:
    points = [asdict(run_scenario(scale(hosts=n, seed=19)))
              for n in (64, 256, 1024)]
    table = placement_table(points)
    table._rows = points
    return table


def run():
    return query_scaling(), scheduling_scaling()


def test_e19_scale(benchmark):
    a, b = run_once(benchmark, run)
    a.print()
    b.print()
    # engine ordering holds at every scale (avoid asserting on exact
    # wall-clock ratios, which jitter; the CI smoke job owns the
    # regression tolerance against the committed ledger)
    for bench in a._rows:
        assert bench.compiled_us < bench.treewalk_us
        assert bench.indexed_us < bench.treewalk_us / 5.0
    # the acceptance floor: compiled is decisively faster at 4096 members
    assert a._rows[-1].compiled_speedup >= 2.0
    for point in b._rows:
        # every wave placed, and the burst lookups ran on the cache
        assert point["placements"] == point["waves"] * 2
        assert point["viable_cache_hits"] >= point["waves"]
        # 1024-host placements complete in interactive wall time
        assert point["wall_s"] < 5.0
