"""One contract for every committed ``BENCH_*.json`` ledger.

The ledgers in the repo root are the simulator's measured results: each
is a seeded campaign's report, committed so a reader can cite the
number and CI can see it drift.  This module states, once per ledger:

* its file, ``BENCH_<name>.json``;
* its generator — a report builder and the keyword arguments it is
  called with, written once as a constant (tests import them from here);
  for every ledger but ``scale`` the builder is
  :func:`repro.scenario.campaign` and the arguments name a registered
  scenario or comparison plus its parameters;
* its commands — the ``legion-sim`` argv that writes the same document
  with ``--out`` (per top-level key for ``slo``, whose two halves come
  from two commands);
* its deterministic part — the whole document, except that the scale
  ledger's wall-clock timings stay out (only its
  :data:`~repro.bench.scale.DETERMINISTIC_FIELDS` count);
* its gates — named predicates over the fresh document and the
  committed one.

:func:`check` runs a ledger's generator twice and byte-compares the
deterministic parts, diffs the fresh document against the committed
file, and evaluates every gate; it returns one line per problem, each
naming its ledger.  :func:`write` regenerates the committed file.
``legion-sim ledger check|write [NAME ...]`` drives both, and CI runs
``ledger check`` once per ledger.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Tuple,
                    Union)

from ..scenario import campaign
from . import scale

__all__ = [
    "Ledger",
    "LEDGERS",
    "dump",
    "write_json",
    "check",
    "write",
]

Doc = Dict[str, Any]
#: ``gate(fresh, committed) -> bool``
Gate = Callable[[Doc, Optional[Doc]], bool]


def dump(doc: Doc) -> str:
    """The byte form of every ledger and every CLI ``--out`` report."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: Union[str, Path], doc: Doc) -> None:
    Path(path).write_text(dump(doc), encoding="utf-8")


@dataclass(frozen=True)
class Ledger:
    """One committed ledger: file, generator, deterministic part, gates."""

    name: str
    #: report builder; returns a dict or an object with ``to_dict()``
    run: Callable[..., Any]
    kwargs: Mapping[str, Any]
    gates: Mapping[str, Gate]
    #: the byte-compared projection (``None``: the whole document)
    deterministic: Optional[Callable[[Doc], Any]] = None
    #: document key ("" for the whole document) -> the ``legion-sim``
    #: argv whose ``--out`` writes it
    commands: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def file(self) -> str:
        return f"BENCH_{self.name}.json"

    def generate(self) -> Doc:
        report = self.run(**self.kwargs)
        return report if isinstance(report, dict) else report.to_dict()

    def part(self, doc: Doc) -> str:
        return dump(doc if self.deterministic is None
                    else self.deterministic(doc))

    def failed(self, fresh: Doc,
               committed: Optional[Doc] = None) -> List[str]:
        """Names of the gates ``fresh`` does not pass."""
        return [name for name, gate in self.gates.items()
                if not gate(fresh, committed)]


def _first_diff(committed: str, fresh: str) -> str:
    pairs = zip(committed.splitlines(), fresh.splitlines())
    for n, (old, new) in enumerate(pairs, 1):
        if old != new:
            return f"line {n}: {old.strip()!r} -> {new.strip()!r}"
    return "the end"


def check(ledger: Ledger, root: Union[str, Path] = ".") -> List[str]:
    """Every problem with one committed ledger, one line each."""
    fresh = ledger.generate()
    problems = []
    first, second = ledger.part(fresh), ledger.part(ledger.generate())
    if first != second:
        problems.append(f"{ledger.name}: nondeterministic, two runs differ "
                        f"at {_first_diff(first, second)}")
    path = Path(root) / ledger.file
    try:
        text = path.read_text(encoding="utf-8")
        committed = json.loads(text)
    except (OSError, ValueError) as exc:
        return problems + [f"{ledger.name}: cannot read {path}: {exc}"]
    if ledger.deterministic is not None:
        text = ledger.part(committed)
    if text != first:
        problems.append(
            f"{ledger.name}: {ledger.file} is stale at "
            f"{_first_diff(text, first)}; regenerate with "
            f"`legion-sim ledger write {ledger.name}`")
    problems += [f"{ledger.name}: gate {name} failed"
                 for name in ledger.failed(fresh, committed)]
    return problems


def write(ledger: Ledger, root: Union[str, Path] = ".") -> Path:
    path = Path(root) / ledger.file
    write_json(path, ledger.generate())
    return path


# -- conditions the CLI exit statuses share with the gates -------------------
def no_residual_faults(report: Doc) -> bool:
    return not report["faults"]["residual_faults"]


def survival_not_regressed(comparison: Doc) -> bool:
    return comparison["benefit"]["survival_delta"] >= 0


def budgets_intact(health: Doc) -> bool:
    return bool(health["healthy"])


def guardrails_budgets_intact(comparison: Doc) -> bool:
    return not comparison["modes"]["guardrails"]["slo"]["exhausted"]


def economy_beats_baselines(comparison: Doc) -> bool:
    return (comparison["economy_beats_baselines"]
            and sorted(comparison["gate"]) == ["irs", "random"])


def shedding_protects_slo(comparison: Doc) -> bool:
    return bool(comparison["shedding_protects_slo"])


# -- generators and gate helpers --------------------------------------------
def _slo(health: Mapping[str, Any], guardrails: Mapping[str, Any]) -> Doc:
    return {"health": campaign("slo", **health),
            "guardrails": campaign(comparison="guardrails",
                                   **guardrails).to_dict()}


def _beats(baseline: str) -> Gate:
    def gate(doc: Doc, _committed: Optional[Doc]) -> bool:
        econ, base = (doc["reports"][name] for name in ("economy", baseline))
        return (doc["gate"][baseline]
                and econ["deadline_miss_rate"] < base["deadline_miss_rate"]
                and econ["total_cost"] < base["total_cost"])
    return gate


def _scale_part(doc: Doc) -> List[Doc]:
    return [{key: point[key] for key in scale.DETERMINISTIC_FIELDS}
            for point in doc["sizes"]]


def _speed_holds(doc: Doc, committed: Optional[Doc]) -> bool:
    """Fresh events/sec at each size stays >= DEFAULT_MIN_RATIO (0.3)
    times the committed speed: a generous floor, since machines vary."""
    base = {p["hosts"]: p["events_per_s"] for p in committed["sizes"]}
    return all(p["events_per_s"] >= scale.DEFAULT_MIN_RATIO
               * base.get(p["hosts"], 0.0) for p in doc["sizes"])


#: the slo ledger's world, shared by its two commands
_SLO_WORLD = ("--chaos-profile", "hosts", "--chaos-seed", "1", "--domains",
              "3", "--hosts", "6", "--platforms", "3", "--waves", "8")


#: gates over a service comparison's bounded ("shedding") run
def _shed(pred: Callable[[Doc], bool]) -> Gate:
    return lambda doc, _c: pred(doc["reports"]["shedding"])


#: gates over a game day's uninterrupted run
def _straight(pred: Callable[[Doc], bool]) -> Gate:
    return lambda doc, _c: pred(doc["reports"]["straight"]["recovery"])


#: every committed ledger, by name
LEDGERS: Dict[str, Ledger] = {ledger.name: ledger for ledger in (
    Ledger(
        "chaos", campaign,
        dict(scenario="chaos", chaos_profile="lossy", chaos_seed=9, seed=0,
             n_domains=2, hosts_per_domain=4, platform_mix=2,
             background_load=0.5, waves=6, per_wave=3, work=250.0,
             wave_interval=90.0, scheduler="irs", shards=0,
             guardrails=False, retry=True),
        {"no_residual_faults": lambda d, _c: no_residual_faults(d),
         "faults_injected":
             lambda d, _c: sum(d["faults"]["injected"].values()) > 0,
         "faults_reverted":
             lambda d, _c: d["faults"]["injected"] == d["faults"]["reverted"],
         "retry_enabled": lambda d, _c: d["retry_enabled"]},
        commands={"": ("chaos", "--chaos-profile", "lossy", "--chaos-seed",
                       "9", "--waves", "6", "--count", "3", "--retry")}),
    Ledger(
        "guardrails", campaign,
        dict(comparison="guardrails", chaos_profile="hosts", chaos_seed=1,
             seed=0, scheduler="irs", waves=6, per_wave=4, work=250.0,
             wave_interval=90.0, n_domains=3, hosts_per_domain=6,
             platform_mix=2, background_load=0.5, shards=0,
             include_events=False),
        {"survival_not_regressed": lambda d, _c: survival_not_regressed(d),
         "wastes_fewer_reservations":
             lambda d, _c: d["benefit"]["wasted_delta"] > 0,
         "guardrails_improve":
             lambda d, _c: d["benefit"]["guardrails_improve"],
         "guardrails_mode_on":
             lambda d, _c: d["modes"]["guardrails"]["guardrails"]["enabled"],
         "retries_mode_guardrails_off": lambda d, _c:
             not d["modes"]["retries"]["guardrails"]["enabled"]},
        commands={"": ("guardrails", "--compare", "--domains", "3",
                       "--hosts", "6")}),
    Ledger(
        "slo", _slo,
        dict(health=dict(seed=0, n_domains=3, hosts_per_domain=6,
                         platform_mix=3, background_load=0.5, waves=8,
                         per_wave=4, work=250.0, wave_interval=90.0,
                         scheduler="irs", sampler_window=30.0,
                         chaos_profile="hosts", chaos_seed=1,
                         guardrails=True, retry=True),
             guardrails=dict(chaos_profile="hosts", chaos_seed=1, seed=0,
                             n_domains=3, hosts_per_domain=6,
                             platform_mix=3, background_load=0.5, waves=8,
                             per_wave=4, work=250.0, wave_interval=90.0,
                             scheduler="irs", shards=0,
                             include_events=False, sampler_window=30.0)),
        {"healthy": lambda d, _c: budgets_intact(d["health"]),
         "sampler_captured_windows":
             lambda d, _c: d["health"]["sampler"]["windows"] > 0,
         "stock_objectives":
             lambda d, _c: [s["spec"]["name"] for s in d["health"]["slos"]]
             == ["placement-latency", "placement-success",
                 "reservation-success"],
         "critical_steps": lambda d, _c: bool(d["health"]["critical_steps"]),
         "chaos_costs_slo_minutes":
             lambda d, _c: d["guardrails"]["benefit"]["slo_minutes_off"] > 0,
         "guardrails_save_slo_minutes":
             lambda d, _c: d["guardrails"]["benefit"]["slo_minutes_guardrails"]
             < d["guardrails"]["benefit"]["slo_minutes_off"],
         "guardrails_budgets_intact":
             lambda d, _c: guardrails_budgets_intact(d["guardrails"])},
        commands={
            "health": ("slo", *_SLO_WORLD, "--guardrails", "--retry"),
            "guardrails": ("slo", *_SLO_WORLD, "--compare")}),
    Ledger(
        "scale", scale.build_report,
        dict(sizes=scale.DEFAULT_SIZES, waves=4, per_wave=6, seed=0,
             scheduler="irs", members=4096, reps=20),
        {"events_per_s_ratio": _speed_holds,
         "compiled_speedup":
             lambda d, _c: d["query_engines"]["compiled_speedup"] >= 2.0,
         "committed_compiled_speedup":
             lambda _d, c: c["query_engines"]["compiled_speedup"] >= 2.0,
         "committed_sizes": lambda _d, c: len(c["sizes"]) >= 3},
        deterministic=_scale_part, commands={"": ("scale",)}),
    Ledger(
        "economy", campaign,
        dict(comparison="baselines", mode="cost", seed=0, n_domains=3,
             hosts_per_domain=8, platform_mix=3, background_load=0.5,
             waves=8, per_wave=2, work=250.0, wave_interval=90.0,
             chaos_profile="lossy", chaos_seed=0, guardrails=True,
             retry=True, users=3, budget=100.0, deadline=800.0,
             deadline_safety=0.5),
        {"economy_beats_baselines":
             lambda d, _c: economy_beats_baselines(d),
         "beats_random": _beats("random"),
         "beats_irs": _beats("irs"),
         "within_budget":
             lambda d, _c: d["reports"]["economy"]["cost_overrun"] == 0,
         "auction_cleared": lambda d, _c:
             d["reports"]["economy"]["auction"]["cleared_rounds"] > 0},
        commands={"": ("economy", "--compare", "--chaos-profile", "lossy",
                       "--guardrails", "--retry", "--waves", "8",
                       "--users", "3", "--domains", "3", "--hosts", "8",
                       "--platforms", "3", "--deadline", "800",
                       "--budget", "100", "--deadline-safety", "0.5")}),
    Ledger(
        "service", campaign,
        dict(comparison="shedding", queue_cap=64, seed=7, n_domains=3,
             hosts_per_domain=6, platform_mix=3, background_load=0.3,
             work=10.0, scheduler="irs", users=1_000_000, duration=240.0,
             workers=4, backpressure="shed", requests_per_user_hour=0.0036,
             surge_multiplier=12.0, slo_threshold=30.0, host_slots=8),
        {"shedding_protects_slo": lambda d, _c: shedding_protects_slo(d),
         "overload_exhausts_unbounded": lambda d, _c:
             d["reports"]["no-shedding"]["slo"]["latency_exhausted"],
         "shedding_keeps_budget":
             _shed(lambda r: not r["slo"]["latency_exhausted"]),
         "p99_within_slo": _shed(lambda r: r["p99_within_slo"]),
         "p99_under_threshold":
             _shed(lambda r: r["latency"]["p99"] <= r["slo_threshold"]),
         "sheds_requests": _shed(lambda r: r["queue"]["shed"] > 0),
         "no_failed_requests": _shed(
             lambda r: r["requests"]["by_state"].get("failed", 0) == 0)},
        commands={"": ("serve", "--compare", "--seed", "7")}),
    Ledger(
        "gameday", campaign,
        dict(comparison="restore", checkpoint_at=None, seed=7,
             users=1_000_000, duration=240.0, workers=4, queue_cap=64,
             backpressure="shed", scheduler="irs", work=10.0,
             requests_per_user_hour=0.0036, surge_multiplier=12.0, kills=2,
             lease_ttl=20.0, heartbeat_interval=5.0, scan_interval=5.0,
             n_domains=3, hosts_per_domain=6, platform_mix=3, host_slots=8,
             background_load=0.3),
        {"passed": lambda d, _c: d["passed"] and all(
             r["passed"] for r in d["reports"].values()),
         "byte_identical": lambda d, _c: d["byte_identical"],
         "worker_kills": _straight(lambda r: r["worker_kills"] >= 2),
         "none_lost": _straight(lambda r: r["lost"] == 0),
         "no_duplicates": _straight(lambda r: r["duplicates"] == 0),
         "orphan_recovered": _straight(lambda r: r["recovered"] > 0)},
        commands={"": ("gameday", "--compare", "--seed", "7")}),
)}
