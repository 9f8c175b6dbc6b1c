"""Tests for the ledger contract (repro.bench.ledger).

The contract tests use tiny toy ledgers so they stay fast; only the two
quick campaigns check their committed files for real.
"""

import dataclasses
import itertools
from pathlib import Path

import pytest

from repro.bench import scale
from repro.bench.ledger import LEDGERS, Ledger, check, write, write_json

ROOT = Path(__file__).resolve().parent.parent


def toy(run, **gates):
    return Ledger("toy", run, {}, gates)


class TestContract:
    def test_nondeterministic_generator_is_reported(self, tmp_path):
        counter = itertools.count()
        ledger = toy(lambda: {"value": next(counter)})
        write(ledger, tmp_path)
        problems = check(ledger, tmp_path)
        assert problems[0].startswith("toy: nondeterministic")

    def test_changed_value_is_reported_stale(self, tmp_path):
        ledger = toy(lambda: {"a": 1, "b": [2, 3]})
        path = write(ledger, tmp_path)
        assert check(ledger, tmp_path) == []
        path.write_text(path.read_text().replace("3", "4"))
        [problem] = check(ledger, tmp_path)
        assert problem.startswith("toy: BENCH_toy.json is stale at line")
        assert "legion-sim ledger write toy" in problem

    def test_false_gate_is_reported_by_name(self, tmp_path):
        ledger = toy(lambda: {"ok": False},
                     always=lambda d, c: True,
                     must_be_ok=lambda d, c: d["ok"])
        write(ledger, tmp_path)
        assert check(ledger, tmp_path) == ["toy: gate must_be_ok failed"]


def scale_doc(events_per_s, events=2367):
    points = [dict({key: 0 for key in scale.DETERMINISTIC_FIELDS},
                   hosts=hosts, events=events, wall_s=1e4 / events_per_s,
                   events_per_s=events_per_s)
              for hosts in scale.DEFAULT_SIZES]
    return {"sizes": points, "query_engines": {"compiled_speedup": 5.0}}


class TestScaleLedger:
    def fake(self, *docs):
        docs = iter(docs)
        return dataclasses.replace(LEDGERS["scale"],
                                   run=lambda: next(docs), kwargs={})

    def test_wall_clock_fields_are_only_ratio_gated(self, tmp_path):
        write_json(tmp_path / "BENCH_scale.json", scale_doc(1000.0))
        # two runs and the committed file differ only in wall-clock fields
        ledger = self.fake(scale_doc(900.0), scale_doc(400.0))
        assert check(ledger, tmp_path) == []
        ledger = self.fake(scale_doc(200.0), scale_doc(900.0))
        assert check(ledger, tmp_path) == [
            "scale: gate events_per_s_ratio failed"]

    def test_deterministic_field_drift_is_stale(self, tmp_path):
        write_json(tmp_path / "BENCH_scale.json", scale_doc(1000.0))
        ledger = self.fake(scale_doc(1000.0, events=2368),
                           scale_doc(1000.0, events=2368))
        [problem] = check(ledger, tmp_path)
        assert problem.startswith("scale: BENCH_scale.json is stale")


class TestRegistry:
    def test_names_exactly_the_committed_ledgers(self):
        assert sorted(ledger.file for ledger in LEDGERS.values()) == \
            sorted(path.name for path in ROOT.glob("BENCH_*.json"))

    def test_ci_matrix_checks_every_ledger(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert f"ledger: [{', '.join(LEDGERS)}]" in ci

    @pytest.mark.parametrize("name", ["chaos", "slo"])
    def test_committed_ledger_is_fresh(self, name):
        assert check(LEDGERS[name], ROOT) == []
