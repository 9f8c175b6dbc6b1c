"""Determinism regression: identical seeded runs, identical telemetry.

Two runs of the same seeded workload must produce byte-identical metrics
snapshots and equal trace counts — the property every experiment table
in benchmarks/ relies on, now pinned against regressions from new
instrumentation.  The scale snapshot at the bottom extends the guarantee
across *process boundaries* at metasystem scale (1000 hosts) with the
compiled-query and viable-hosts caches enabled.
"""

import hashlib
import json
import os
import subprocess
import sys

from repro import Metasystem, ObjectClassRequest
from repro.obs import (
    chrome_trace_json,
    json_to_snapshot,
    render_tree,
    spans_to_jsonl,
)
from repro.workload import (
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
    wait_for_completion,
)

#: every subsystem the tentpole instruments must show up in a real run
REQUIRED_FAMILIES = (
    "collection_queries_total",       # Collection query path
    "enactor_step_seconds",           # 13-step protocol latency
    "host_reservations_granted_total",  # reservations
    "transport_messages_total",       # transport
    "sim_events_processed",           # kernel events
)

#: span-event categories counted per run (only the transport and the
#: Enactor record span events)
TRACE_KEYS = ("net", "enactor")


def _placement_meta(seed: int):
    """One seeded end-to-end workload: two placements, then the jobs run
    to completion."""
    meta = build_testbed(TestbedSpec(
        n_domains=2, hosts_per_domain=3, platform_mix=2,
        background_load_mean=0.4, seed=seed))
    app = meta.create_class("det-app",
                            implementations_for_all_platforms(),
                            work_units=120.0)
    created = []
    for kind in ("irs", "random"):
        outcome = meta.make_scheduler(kind).run(
            [ObjectClassRequest(app, count=3)])
        assert outcome.ok
        created.extend(outcome.created)
    wait_for_completion(meta, app, created)
    meta.advance(3600.0)
    return meta


def _run_workload(seed: int):
    """Returns (metrics json, counts, chrome trace json, span jsonl) of
    :func:`_placement_meta`."""
    meta = _placement_meta(seed)
    counts = {key: sum(event[1] == key for span in meta.spans.spans
                       for event in span.events)
              for key in TRACE_KEYS}
    return (meta.metrics.to_json(), counts,
            chrome_trace_json(meta.spans.spans),
            spans_to_jsonl(meta.spans.spans))


def _run_federated_workload(seed: int):
    """A federated run with gossip + query cache enabled; returns the
    telemetry exports that must be byte-identical across runs."""
    meta = build_testbed(TestbedSpec(
        n_domains=2, hosts_per_domain=3, platform_mix=2,
        background_load_mean=0.4, seed=seed,
        federation_shards=3, federation_replication=2,
        gossip_interval=45.0, federation_cache_ttl=30.0))
    app = meta.create_class("det-app",
                            implementations_for_all_platforms(),
                            work_units=120.0)
    outcome = meta.make_scheduler("irs").run(
        [ObjectClassRequest(app, count=3)])
    assert outcome.ok
    wait_for_completion(meta, app, outcome.created)
    meta.advance(600.0)
    gossip = (meta.gossip.rounds, meta.gossip.records_exchanged,
              meta.gossip.bytes_exchanged)
    return (meta.metrics.to_json(), gossip,
            chrome_trace_json(meta.spans.spans),
            spans_to_jsonl(meta.spans.spans))


# ---------------------------------------------------------------------------
# cross-process scale snapshot
# ---------------------------------------------------------------------------

#: pinned digest of the 1k-host scale run below.  If a change legitimately
#: alters placement or event accounting at scale, regenerate with
#:     PYTHONPATH=src python tests/test_determinism.py
#: and update this constant (the bench ledger BENCH_scale.json will need
#: regenerating too — see docs/architecture.md).
SCALE_SNAPSHOT = (
    "85f13c11b6ea02c72dbe29b95637356ee5f9f2ec16b966fc897ae3f32a760c1a")


def _scale_digest() -> str:
    """Digest of one seeded IRS run over a 1000-host testbed.

    Exercises the hot-path machinery this PR added — compiled query
    plans, the viable-hosts cache (the back-to-back second run must hit
    it), slotted records/events — and folds placements, kernel event
    counts, virtual time, and transport traffic into one value that any
    process on any run must reproduce exactly.
    """
    meta = build_testbed(TestbedSpec(
        n_domains=4, hosts_per_domain=250, platform_mix=3,
        background_load_mean=0.0, seed=100))
    app = meta.create_class("snap-app",
                            implementations_for_all_platforms(),
                            work_units=60.0)
    sched = meta.make_scheduler("irs")
    first = sched.run([ObjectClassRequest(app, count=8)])
    second = sched.run([ObjectClassRequest(app, count=8)])
    assert first.ok and second.ok
    assert sched.viable_cache_hits >= 1  # the burst ran on the cache
    meta.advance(120.0)
    payload = "|".join((
        ",".join(str(loid) for loid in first.created + second.created),
        str(meta.sim.events_processed),
        repr(meta.sim.now),
        str(meta.transport.messages_sent),
        str(meta.collection.plans_compiled),
        str(sched.viable_cache_hits),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: pinned digest of the re-assessment-heavy run below: every Collection
#: record (attributes in insertion order, ``updated_at``,
#: ``update_count``) plus the Collection's mutation counters and the
#: metrics snapshot.  The host re-assessment → Collection push path must
#: reproduce it exactly; regenerate with
#:     PYTHONPATH=src python -c "import tests.test_determinism as t; \
#: print(t._reassess_digest())"
#: only for a change that is meant to alter what hosts publish.
REASSESS_SNAPSHOT = (
    "9b8c62b1b31a3ae4b49fd3a21445c62143da5c4880bc81a1c198dc2e39950c69")


def _reassess_digest() -> str:
    """Digest of a 4×64-host world with load walks and 30 s
    re-assessment, a small placement burst, run for 600 virtual s."""
    meta = build_testbed(TestbedSpec(
        n_domains=4, hosts_per_domain=64, platform_mix=3,
        background_load_mean=0.5, reassess_interval=30.0, seed=11))
    app = meta.create_class("reassess-app",
                            implementations_for_all_platforms(),
                            work_units=200.0)
    meta.advance(30.0)
    outcome = meta.make_scheduler("irs").run(
        [ObjectClassRequest(app, count=8)])
    assert outcome.ok
    meta.advance(570.0)
    collection = meta.collection
    records = [[str(loid), list(record.attributes.items()),
                record.updated_at, record.update_count]
               for loid, record in sorted(collection._records.items())]
    payload = json.dumps([records, collection.mutation_version,
                          collection.updates_applied,
                          meta.metrics.to_json()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: pinned sha256 of the span exports — Chrome trace JSON, JSONL and the
#: ``legion-sim trace tree`` text — of two seeded runs: the placement
#: workload above and the service campaign with chaos and guardrails of
#: ``tests/test_spans.py``.  Run-to-run determinism alone cannot catch a
#: tracer change that alters span IDs, order, statuses, timestamps or
#: attribute values; these pins do.  Regenerate with
#:     PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
#: import test_determinism as t; print(t._span_export_digests())"
#: only for a change that is meant to alter what spans record.
SPAN_EXPORT_SNAPSHOTS = {
    "placement": (
        "02673a6d9013871756358caeb5ed0a277339905888a1c94a040064369ec94f73"),
    "service": (
        "060af66b3ed0e20c9d8b2b0a719c3f47f38ff3fb5f84c1b7e37995fc228a3cad"),
}


def _span_export_digest(spans) -> str:
    payload = "\n".join((chrome_trace_json(spans), spans_to_jsonl(spans),
                         render_tree(spans)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _span_export_digests() -> dict:
    from test_spans import _service_run
    service_meta, _run = _service_run("spans")
    return {
        "placement": _span_export_digest(_placement_meta(1234).spans.spans),
        "service": _span_export_digest(service_meta.spans.spans),
    }


class TestDeterminism:
    def test_identical_seeds_identical_snapshots(self):
        json_a, counts_a, chrome_a, jsonl_a = _run_workload(seed=1234)
        json_b, counts_b, chrome_b, jsonl_b = _run_workload(seed=1234)
        assert json_a == json_b  # byte-identical export
        assert counts_a == counts_b
        assert all(counts_a.values())  # both categories recorded events
        assert chrome_a == chrome_b  # byte-identical span exports too
        assert jsonl_a == jsonl_b

    def test_different_seeds_diverge(self):
        json_a, _, chrome_a, _ = _run_workload(seed=1)
        json_b, _, chrome_b, _ = _run_workload(seed=2)
        assert json_a != json_b
        assert chrome_a != chrome_b

    def test_federated_runs_identical(self):
        """Same seed ⇒ byte-identical telemetry with sharding, gossip,
        and the query cache all active."""
        json_a, gossip_a, chrome_a, jsonl_a = _run_federated_workload(77)
        json_b, gossip_b, chrome_b, jsonl_b = _run_federated_workload(77)
        assert json_a == json_b
        assert gossip_a == gossip_b
        assert chrome_a == chrome_b
        assert jsonl_a == jsonl_b
        # the federation actually did something in this workload
        assert gossip_a[0] > 0  # gossip rounds
        snapshot = json_to_snapshot(json_a)
        names = {m["name"] for m in snapshot["metrics"]}
        for family in ("federation_shard_queries_total",
                       "federation_gossip_rounds_total",
                       "federation_shard_members",
                       "federation_result_staleness_seconds"):
            assert family in names, family

    def test_snapshot_covers_required_families(self):
        text, _, _, _ = _run_workload(seed=7)
        snapshot = json_to_snapshot(text)
        names = {m["name"] for m in snapshot["metrics"]}
        missing = [f for f in REQUIRED_FAMILIES if f not in names]
        assert not missing, f"metric families missing: {missing}"
        # and the snapshot is non-trivial: some series actually moved
        assert any(
            s.get("value") or s.get("count")
            for m in snapshot["metrics"] for s in m["series"])


class TestSpanExportSnapshots:
    def test_pinned_span_export_digests(self):
        """Span IDs, order, timestamps, statuses, attributes and events
        export byte-identically to the pinned runs."""
        assert _span_export_digests() == SPAN_EXPORT_SNAPSHOTS


class TestReassessSnapshot:
    def test_pinned_reassess_digest(self):
        """Host re-assessment publishes byte-identical records, record
        timestamps, mutation counters and metrics."""
        assert _reassess_digest() == REASSESS_SNAPSHOT


class TestCrossProcessScaleSnapshot:
    def test_pinned_digest_in_process(self):
        """The 1k-host run reproduces the committed digest (caches on)."""
        assert _scale_digest() == SCALE_SNAPSHOT

    def test_digest_stable_across_processes(self):
        """A fresh interpreter — different hash seed, import order, and
        allocator state — must still land on the pinned digest."""
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == SCALE_SNAPSHOT


if __name__ == "__main__":
    print(_scale_digest())
