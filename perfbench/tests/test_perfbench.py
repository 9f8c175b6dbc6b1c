"""Tests of the benchmark itself: span arithmetic, names, and output.

Run from the repository root with ``python3 -m pytest perfbench/tests``
(add ``-m 'not slow'`` to skip the churn and gameday end-to-end runs).
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from spantrace import SpanRecorder, Target, install, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def _module(name: str, source: str, clock: FakeClock) -> types.ModuleType:
    """A throwaway module, registered so ``install`` can find it."""
    module = types.ModuleType(name)
    module.clock = clock
    exec(source, module.__dict__)
    sys.modules[name] = module
    return module


SOURCE = '''
def inner():
    clock.tick(5)

def outer():
    clock.tick(1)
    inner()
    clock.tick(2)
    inner()
    clock.tick(3)

def rec(n):
    clock.tick(1)
    if n:
        rec(n - 1)

def boom():
    clock.tick(4)
    raise ValueError("boom")

def gen():
    yield 1

class Base:
    def work(self):
        clock.tick(2)

class Child(Base):
    def work(self):
        clock.tick(1)
        super().work()
'''


@pytest.fixture
def traced_module():
    clock = FakeClock()
    module = _module("perfbench_test_target", SOURCE, clock)
    yield module, clock
    del sys.modules["perfbench_test_target"]


def _targets(*pairs):
    return [Target(name, f"perfbench_test_target:{attr}")
            for name, attr in pairs]


def test_nested_calls_subtract_children(traced_module):
    module, clock = traced_module
    recorder = SpanRecorder(clock)
    with install(recorder, _targets(("outer", "outer"),
                                    ("inner", "inner"))):
        module.outer()
    times = self_times(recorder)
    assert times["outer"] == (1, 16.0, 6.0)
    assert times["inner"] == (2, 10.0, 10.0)
    assert list(recorder.parents) == [-1, 0, 0]


def test_recursion_counts_one_entry(traced_module):
    module, clock = traced_module
    recorder = SpanRecorder(clock)
    with install(recorder, _targets(("rec", "rec"))):
        module.rec(2)
    # three nested spans of one name: one entry, no time counted twice
    assert len(recorder) == 3
    assert self_times(recorder)["rec"] == (1, 3.0, 3.0)
    assert recorder.durations("rec") == [3.0]


def test_raising_call_closes_its_span(traced_module):
    module, clock = traced_module
    recorder = SpanRecorder(clock)
    with install(recorder, _targets(("boom", "boom"), ("inner", "inner"))):
        with pytest.raises(ValueError):
            module.boom()
        module.inner()
    assert recorder.errors == [0]
    assert self_times(recorder)["boom"] == (1, 4.0, 4.0)
    # the stack unwound: the next call is a root, not a child of boom
    assert recorder.parents[1] == -1


def test_override_calling_super_is_one_entry(traced_module):
    module, clock = traced_module
    recorder = SpanRecorder(clock)
    with install(recorder, _targets(("work", "Base.work"))):
        module.Child().work()
        module.Base().work()
    assert self_times(recorder)["work"] == (2, 5.0, 5.0)


def test_install_restores_and_reports_missing(traced_module):
    module, clock = traced_module
    original = module.inner
    recorder = SpanRecorder(clock)
    with install(recorder, _targets(("inner", "inner"), ("gen", "gen"),
                                    ("nope", "no_such_function"))) as w:
        assert module.inner is not original
        assert list(module.gen()) == [1]
    assert module.inner is original
    assert len(w.missing) == 2
    assert any("generator" in m for m in w.missing)
    assert any("no_such_function" in m for m in w.missing)


def test_function_wrapped_where_callers_bound_it(traced_module):
    module, clock = traced_module
    # a second module of the same package that copied the binding at
    # import time
    copy = _module("perfbench_test_target.caller",
                   "from perfbench_test_target import inner\n"
                   "def call():\n    inner()\n", clock)
    try:
        recorder = SpanRecorder(clock)
        with install(recorder, _targets(("inner", "inner"))):
            copy.call()
        assert self_times(recorder)["inner"] == (1, 5.0, 5.0)
    finally:
        del sys.modules["perfbench_test_target.caller"]


def test_spans_json_roundtrip(traced_module):
    module, clock = traced_module
    recorder = SpanRecorder(clock)
    with install(recorder, _targets(("outer", "outer"),
                                    ("inner", "inner"))):
        module.outer()
    doc = json.loads(recorder.to_json(["x: missing"]))
    assert doc["names"] == ["outer", "inner"]
    assert doc["spans"][1] == [1, 1.0, 6.0, 0]
    assert doc["missing_targets"] == ["x: missing"]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_unique():
    spec = _spec()
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in spec[section]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.match(n) for n in names), names
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert UNIT_RE.match(metric["unit"])
            assert metric["better"] in ("higher", "lower")
    assert {"setup_s"} <= {m["name"] for m in spec["end_to_end"]}


def test_layer_targets_exist():
    """Every wrap target of the layer table resolves in the simulator."""
    import run
    from layers import LayerCounters
    from workloads import Probes
    run.import_all("repro")
    recorder = SpanRecorder()
    targets = Probes().targets() + LayerCounters().targets()
    with install(recorder, targets) as wrapped:
        assert wrapped.missing == []


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [
    "placement",
    pytest.param("churn", marks=pytest.mark.slow),
    pytest.param("gameday", marks=pytest.mark.slow),
])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_simulator():
    """A directory holding only BENCHMARK.json and perfbench/ makes the
    runner fail without printing a result."""
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "placement",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
