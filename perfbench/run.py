#!/usr/bin/env python3
"""Run one benchmark workload of the Legion RMS simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload placement|churn|gameday \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: it repeats seeded passes
of the workload for ``--seconds`` host seconds with only two probes
wrapped (``Scheduler.run`` timing and testbed capture).  ``--trace 1``
builds the per-layer table: one untraced reference pass, then the same
pass with every layer's entry points wrapped, whose spans are written to
``perfbench/out/spans-<workload>-seed<N>.json``.  Both modes check the
outputs (see ``perfbench/METRICS.md``), print every metric by name with
its unit, and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, and 2
when the program to measure (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: the untraced loop stops adding passes after this many, whatever the time
MAX_PASSES = 200
#: placement calls per leg of the tracing-mode comparison, and its repeats
LEG_CALLS = 300
LEG_REPEATS = 3
#: calibration loops timed for bench.calib_ms
CALIB_REPEATS = 15


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _compare(first: Any, other: Any, label: str) -> List[str]:
    """Digest parts that differ between two passes of one seed.

    A checkpoint/restore adds kernel wake-ups of its own (the restored
    daemons' first polls), so a restored pass may differ from a straight
    one in its event count alone."""
    ignore = ("events",) if first.restored != other.restored else ()
    from workloads import digest_diff
    return [f"{label}: digest part {part!r} differs"
            for part in digest_diff(first.digest, other.digest, ignore)]


def untraced(workload: str, seed: int, seconds: float
             ) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    from workloads import E2E_THRESHOLD, WORKLOADS
    run_pass, min_passes = WORKLOADS[workload]
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MAX_PASSES and (
            len(passes) < min_passes or perf_counter() < deadline):
        passes.append(run_pass(seed, index=len(passes)))
    first = passes[0]
    problems = [p for r in passes for p in r.problems]
    for i, other in enumerate(passes[1:], start=1):
        problems += _compare(first, other, f"pass {i} vs pass 0")
    # host times scaled to the reference host (see workloads.CALIB_REF_MS)
    call_ms = [c * k * 1e3 for r in passes
               for c, k in zip(r.call_s, r.call_scale)]
    setups = [s * k for r in passes for s, k in r.setups]
    windows = [(host * k, virt, ok, done)
               for r in passes for host, virt, ok, done, k in r.windows]
    e2e = first.e2e_vs
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "placements_per_s": statistics.median(
            ok / host for host, _virt, ok, _done in windows),
        "placement_p50_ms": percentile(call_ms, 50),
        "placement_p99_ms": percentile(call_ms, 99),
        "placement_ok_ratio": first.calls_ok / max(first.calls, 1),
        "sim_s_per_s": statistics.median(
            virt / host for host, virt, _ok, _done in windows),
        "requests_per_s": statistics.median(
            done / host for host, _virt, _ok, done in windows),
        "request_slo_ratio": (sum(1 for v in e2e if v <= E2E_THRESHOLD)
                              / max(first.submitted, 1)),
        "e2e_p50_vs": percentile(e2e, 50),
        "e2e_p99_vs": percentile(e2e, 99),
    }
    raw = [w for r in passes for w in r.windows]
    unscaled = (
        statistics.median(ok / host for host, _v, ok, _d, _k in raw),
        statistics.median(virt / host for host, virt, _o, _d, _k in raw),
        statistics.median(s for r in passes for s, _k in r.setups))
    info = {
        "unscaled placements_per_s, sim_s_per_s, setup_s":
            "%.6g, %.6g, %.6g" % unscaled,
        "passes": len(passes),
        "rate windows": len(windows),
        "host speed vs reference (median window scale)":
            f"{statistics.median(w[-1] for w in raw):.3f}",
        "placement samples (host ms)": len(call_ms),
        "setup samples": len(setups),
        "e2e samples (virtual s)": len(e2e),
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
    }
    return metrics, info, problems


def tracing_mode_leg(seed: int) -> Tuple[float, List[str]]:
    """Placement throughput with ``tracing="off"`` over ``"spans"``,
    and a check that the two modes behave identically."""
    from workloads import placement_pass
    rates: Dict[str, List[float]] = {"off": [], "spans": []}
    digests: Dict[str, Any] = {}
    for _ in range(LEG_REPEATS):
        for mode in ("off", "spans"):
            result = placement_pass(seed, tracing=mode, calls=LEG_CALLS)
            rates[mode].append(result.calls_ok / result.host_s)
            digests.setdefault(mode, result)
    problems = _compare(digests["off"], digests["spans"],
                        'placement tracing="off" vs "spans"')
    ratio = statistics.median(rates["off"]) / statistics.median(
        rates["spans"])
    return ratio, problems


def traced(workload: str, seed: int
           ) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    from layers import LayerCounters, per_layer_metrics, self_time_shares
    from workloads import WORKLOADS, calib_ms
    run_pass, _min_passes = WORKLOADS[workload]
    # pass 1, not 0: on gameday it is the pass that checkpoints
    reference = run_pass(seed, index=1)
    counters = LayerCounters()
    result = run_pass(seed, targets=counters.targets(), keep=True, index=1)
    problems = reference.problems + result.problems
    problems += _compare(reference, result, "traced vs untraced pass")
    metrics = per_layer_metrics(result, counters)
    metrics["bench.trace_overhead_ratio"] = (
        (result.host_s + sum(s for s, _k in result.setups))
        / (reference.host_s + sum(s for s, _k in reference.setups)))
    metrics["obs.tracing_cost_ratio"], leg_problems = tracing_mode_leg(seed)
    problems += leg_problems
    metrics["bench.calib_ms"] = statistics.median(
        calib_ms() for _ in range(CALIB_REPEATS))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(result.recorder.to_json(result.missing))
    info: Dict[str, Any] = {
        "spans written": f"{len(result.recorder)} to "
                         f"{spans_path.relative_to(ROOT)}",
        "attempted": reference.attempted + result.attempted,
        "failed": reference.failed + result.failed,
    }
    if result.missing:
        info["wrap targets not wrapped"] = "; ".join(result.missing)
    for group, share in self_time_shares(result).items():
        info[f"self-time share: {group}"] = f"{share:.3f}"
    return metrics, info, problems


def import_all(package: str) -> None:
    """Import every module of ``package`` up front, so no pass pays a
    first import and every subclass exists before wrappers go in."""
    import importlib
    import pkgutil
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("placement", "churn", "gameday"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the simulator source ({src / 'repro'}) is "
              f"missing; run from a full checkout", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import_all("repro")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        metrics, info, problems = traced(args.workload, args.seed)
    else:
        metrics, info, problems = untraced(args.workload, args.seed,
                                           args.seconds)

    bad = sorted(set(metrics) ^ set(units))
    bad += [n for n in metrics if not NAME_RE.match(n)]
    bad += [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: metrics do not match BENCHMARK.json "
              f"{section}: {bad}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    failed = info["failed"] + (1 if problems and not info["failed"] else 0)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(info["attempted"]),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
