"""Tests for the legion-sim command-line tools."""

import io
import json

import pytest

from repro.tools import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestHostsAndVaults:
    def test_hosts_table(self):
        code, text = run_cli("hosts", "--domains", "2", "--hosts", "3")
        assert code == 0
        assert "dom0-ws0" in text
        assert "dom1-ws2" in text
        assert text.count("\n") >= 6 + 3  # 6 rows + header/sep/title

    def test_vaults_table(self):
        code, text = run_cli("vaults", "--domains", "2")
        assert code == 0
        assert "dom0-vault0" in text
        assert "dom1-vault0" in text


class TestContext:
    def test_walk_lists_bindings(self):
        code, text = run_cli("context", "--domains", "1", "--hosts", "2")
        assert code == 0
        assert "/hosts/dom0-ws0" in text
        assert "/etc/Collection" in text


class TestQuery:
    def test_valid_query(self):
        code, text = run_cli("query", "--domains", "1", "--hosts", "4",
                             "$host_up == true")
        assert code == 0
        assert "4 record(s)" in text

    def test_syntax_error_exit_code(self):
        code, text = run_cli("query", "((($")
        assert code == 2
        assert "query error" in text


class TestRun:
    def test_run_places_instances(self):
        code, text = run_cli("run", "--count", "3", "--scheduler",
                             "random", "--load", "0")
        assert code == 0
        assert "placed 3 instance(s)" in text

    def test_run_wait_reports_completion(self):
        code, text = run_cli("run", "--count", "2", "--work", "50",
                             "--wait", "--load", "0")
        assert code == 0
        assert "2/2 completed" in text

    def test_unknown_scheduler(self):
        code, text = run_cli("run", "--scheduler", "sorcery")
        assert code == 2
        assert "unknown scheduler" in text


class TestTraceExport:
    RUN = ("run", "--seed", "0", "--count", "4", "--scheduler", "irs",
           "--wait", "--trace-out")

    def test_chrome_trace_is_valid_with_complete_events(self, tmp_path):
        from repro.obs import validate_chrome_trace
        path = tmp_path / "trace.json"
        code, _ = run_cli(*self.RUN, str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        assert any(e["ph"] == "X" for e in obj["traceEvents"])

    def test_jsonl_export_has_spans(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        code, _ = run_cli(*self.RUN, str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert sum(1 for line in lines if json.loads(line)) > 0


class TestLedgerCommand:
    def test_write_then_check_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("ledger", "write", "chaos")
        assert code == 0 and "wrote BENCH_chaos.json" in text
        code, text = run_cli("ledger", "check", "chaos")
        assert code == 0
        assert "ledger check passed: chaos" in text

    def test_unknown_ledger_is_a_usage_error(self):
        code, text = run_cli("ledger", "check", "nosuch")
        assert code == 2
        assert "unknown ledger(s) nosuch" in text


class TestMetrics:
    def test_table_covers_instrumented_families(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0")
        assert code == 0
        for family in ("collection_queries_total", "enactor_step_seconds",
                       "host_reservations_granted_total",
                       "transport_messages_total", "sim_events_processed"):
            assert family in text

    def test_json_format_parses(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--format", "json")
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["metrics"]

    def test_prom_format(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--format", "prom")
        assert code == 0
        assert "# TYPE transport_messages_total counter" in text
        assert 'transport_messages_total{kind="sent"}' in text

    def test_deterministic_across_invocations(self):
        a = run_cli("metrics", "--count", "2", "--seed", "5", "--load",
                    "0", "--format", "json")
        b = run_cli("metrics", "--count", "2", "--seed", "5", "--load",
                    "0", "--format", "json")
        assert a == b

    def test_unknown_scheduler(self):
        code, text = run_cli("metrics", "--scheduler", "sorcery")
        assert code == 2
        assert "unknown scheduler" in text


class TestMetricsQuantiles:
    def test_custom_quantile_columns(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--quantiles", "p50,p90,p99")
        assert code == 0
        header = text.splitlines()[1]
        for col in ("p50", "p90", "p99"):
            assert col in header

    def test_bare_float_quantiles_accepted(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--quantiles", "0.25,0.75")
        assert code == 0
        assert "p25" in text and "p75" in text

    def test_bad_quantiles_are_usage_errors(self):
        for bad in ("bogus", "p0", "p100", ","):
            code, text = run_cli("metrics", "--quantiles", bad)
            assert code == 2, bad


class TestTraceSteps:
    def test_steps_mode_aggregates_across_traces(self):
        code, text = run_cli("trace", "steps", "--count", "3",
                             "--work", "50", "--load", "0", "--wait")
        assert code == 0
        assert "cross-trace step latency" in text
        assert "placement" in text
        header = text.splitlines()[1]
        for col in ("step", "count", "errors", "mean_s", "p95_s",
                    "max_s", "self_s"):
            assert col in header

    def test_steps_deterministic(self):
        args = ("trace", "steps", "--count", "2", "--seed", "3",
                "--load", "0", "--wait")
        assert run_cli(*args) == run_cli(*args)


class TestSLOCommand:
    CHAOS = ("--chaos-profile", "hosts", "--chaos-seed", "1")

    def test_healthy_run_exits_zero(self):
        code, text = run_cli("slo", "--waves", "3", "--load", "0",
                             "--no-windows")
        assert code == 0
        assert "overall: HEALTHY" in text
        assert "slo placement-latency" in text
        assert "slo placement-success" in text
        assert "slo reservation-success" in text

    def test_chaotic_run_exhausts_budget_and_exits_nonzero(self):
        code, text = run_cli("slo", *self.CHAOS, "--no-windows")
        assert code == 1
        assert "BUDGET EXHAUSTED" in text
        assert "ERROR: error budget exhausted" in text

    def test_allow_exhausted_suppresses_failure(self):
        code, text = run_cli("slo", *self.CHAOS, "--allow-exhausted",
                             "--no-windows")
        assert code == 0

    def test_json_output_is_byte_deterministic(self):
        args = ("slo", *self.CHAOS, "--format", "json",
                "--allow-exhausted")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b
        doc = json.loads(a[1])
        assert doc["slos"] and "minutes_lost" in doc

    def test_out_writes_report_json(self, tmp_path):
        path = tmp_path / "slo.json"
        code, text = run_cli("slo", "--waves", "2", "--load", "0",
                             "--out", str(path), "--no-windows")
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["healthy"]
        assert f"wrote SLO health report to {path}" in text

    def test_custom_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"slos": [
            {"name": "lenient", "kind": "latency", "target": 0.5,
             "metric": "placement_seconds", "threshold": 10.0}]}))
        code, text = run_cli("slo", "--waves", "2", "--load", "0",
                             "--spec", str(path), "--no-windows")
        assert code == 0
        assert "slo lenient" in text
        assert "placement-latency" not in text

    def test_usage_errors(self, tmp_path):
        code, _ = run_cli("slo", "--window", "0")
        assert code == 2
        code, _ = run_cli("slo", "--spec", str(tmp_path / "missing.json"))
        assert code == 2
        code, _ = run_cli("slo", "--scheduler", "sorcery")
        assert code == 2

    def test_compare_guardrails_reduces_slo_damage(self):
        code, text = run_cli(
            "slo", "--compare-guardrails", *self.CHAOS,
            "--domains", "3", "--hosts", "6", "--platforms", "3",
            "--waves", "8")
        assert code == 0
        assert "slo minutes lost" in text
        lost = {}
        for line in text.splitlines():
            if "slo minutes lost" in line:
                for part in line.split(":")[1].split(","):
                    mode, value = part.split()
                    lost[mode] = float(value)
        # the acceptance criterion: chaos consumes SLO budget and
        # guardrails measurably reduces the damage
        assert lost["off"] > 0
        assert lost["guardrails"] < lost["off"]


class TestBench:
    def test_bench_compares_schedulers(self):
        code, text = run_cli("bench", "--count", "3", "--work", "50",
                             "--scheduler", "random", "--scheduler",
                             "mct", "--load", "0")
        assert code == 0
        assert "random" in text
        assert "mct" in text

    def test_determinism_across_invocations(self):
        a = run_cli("run", "--count", "2", "--seed", "9", "--load", "0")
        b = run_cli("run", "--count", "2", "--seed", "9", "--load", "0")
        assert a == b


class TestFederationCommand:
    def test_prints_ring_and_gossip_stats(self):
        code, text = run_cli("federation", "--shards", "3",
                             "--replication", "2",
                             "--gossip-interval", "30",
                             "--cache-ttl", "60", "--wait")
        assert code == 0
        for needle in ("ring layout: 3 shards, replication 2",
                       "shard0", "shard1", "shard2", "replica placement",
                       "cache hit ratio", "gossip", "rounds"):
            assert needle in text, needle

    def test_federated_run_and_metric_families(self):
        flags = ("--seed", "0", "--count", "4", "--scheduler", "irs",
                 "--wait", "--shards", "3", "--replication", "2",
                 "--gossip-interval", "30")
        code, text = run_cli("run", *flags)
        assert code == 0
        assert "placed 4 instance(s)" in text
        code, text = run_cli("metrics", *flags, "--format", "json")
        assert code == 0
        names = {m["name"] for m in json.loads(text)["metrics"]}
        for family in ("federation_shard_queries_total",
                       "federation_shard_writes_total",
                       "federation_gossip_rounds_total",
                       "federation_shard_members"):
            assert family in names, family

    def test_defaults_to_three_shards(self):
        code, text = run_cli("federation")
        assert code == 0
        assert "3 shards" in text

    def test_run_accepts_federation_flags(self):
        code, text = run_cli("run", "--count", "3", "--scheduler",
                             "random", "--load", "0", "--shards", "3")
        assert code == 0
        assert "placed 3 instance(s)" in text

    def test_federated_run_matches_monolithic_placements(self):
        _, mono = run_cli("run", "--count", "3", "--scheduler", "irs",
                          "--seed", "4")
        _, fed = run_cli("run", "--count", "3", "--scheduler", "irs",
                         "--seed", "4", "--shards", "3",
                         "--replication", "2")
        mono_lines = [ln for ln in mono.splitlines()
                      if ln.startswith("  ")]
        fed_lines = [ln for ln in fed.splitlines() if ln.startswith("  ")]
        assert mono_lines == fed_lines

    def test_determinism_across_invocations(self):
        args = ("federation", "--shards", "3", "--gossip-interval", "20",
                "--seed", "9", "--wait")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second


class TestEconomyCommand:
    def test_run_accepts_cost_scheduler(self):
        code, text = run_cli("run", "--count", "2", "--scheduler", "cost")
        assert code == 0
        assert "placed 2 instance(s) via cost" in text

    def test_run_accepts_economy_scheduler(self):
        code, text = run_cli("run", "--count", "2",
                             "--scheduler", "economy")
        assert code == 0
        assert "placed 2 instance(s) via economy" in text

    def test_single_report(self):
        code, text = run_cli("economy", "--users", "2", "--waves", "2",
                             "--count", "1", "--domains", "2",
                             "--hosts", "3")
        assert code == 0
        assert "economy campaign: scheduler=economy" in text
        assert "deadline:" in text and "auction:" in text
        assert "user u0:" in text and "user u1:" in text

    def test_report_out_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("economy", "--users", "2", "--waves", "2", "--count",
                "1", "--domains", "2", "--hosts", "3", "--mode", "time")
        code, _ = run_cli(*args, "--out", str(a))
        assert code == 0
        run_cli(*args, "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("economy", "--mode", "frugal")
