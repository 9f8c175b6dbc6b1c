"""The scenario runner (repro.scenario): one runner, registered scenarios
as data, and comparisons as named parameter overrides."""

import dataclasses

import pytest

import repro.scenario
from repro.recovery.gameday import run_gameday
from repro.scenario import (COMPARISONS, SCENARIOS, chaos, compare,
                            run_scenario)

#: a small world per registered scenario, chaos armed wherever it can be
SMALL = {
    "chaos": dict(chaos_profile="light", chaos_seed=1, waves=2,
                  per_wave=2, n_domains=2, hosts_per_domain=3),
    "slo": dict(chaos_profile="light", chaos_seed=1, waves=2),
    "economy": dict(chaos_profile="light", users=1, waves=2, per_wave=1,
                    n_domains=2, hosts_per_domain=3),
    "service": dict(users=2000, duration=30.0, workers=2, queue_cap=8,
                    requests_per_user_hour=3.6, n_domains=1,
                    hosts_per_domain=4, platform_mix=2),
    "gameday": dict(users=2000, duration=40.0, workers=2, queue_cap=8,
                    requests_per_user_hour=3.6, surge_multiplier=8.0,
                    lease_ttl=6.0, heartbeat_interval=2.0,
                    scan_interval=2.0, n_domains=1, hosts_per_domain=4,
                    platform_mix=2),
    "scale": dict(hosts=16, waves=1),
}


def finished(scenario):
    """Run ``scenario`` and return its Run (the report builder still
    runs, so whatever it does to the world happens)."""
    runs = []

    def report(run):
        runs.append(run)
        return scenario.report(run)

    run_scenario(dataclasses.replace(scenario, report=report))
    return runs[0]


def test_every_registered_scenario_has_a_small_world():
    assert sorted(SMALL) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_scenario_leaves_chaos_installed(name):
    run = finished(SCENARIOS[name](**SMALL[name]))
    assert run.meta.chaos is None
    assert "chaos" not in run.meta.layers
    if name in ("chaos", "slo", "economy", "gameday"):
        # chaos was armed, and the runner took it out
        assert run.chaos is not None and run.chaos.injector.torn_down
        assert run.chaos.injector.stats()["residual_faults"] == []


def test_gateway_stays_live_after_a_game_day():
    """perfbench reads ``meta.service.gateway`` after run_gameday."""
    run = finished(SCENARIOS["gameday"](**SMALL["gameday"]))
    gateway = run.meta.service.gateway
    assert gateway.requests
    assert all(request.terminal for request in gateway.requests.values())


def test_run_gameday_builds_one_testbed(monkeypatch):
    built = []
    real = repro.scenario.build_testbed
    monkeypatch.setattr(repro.scenario, "build_testbed",
                        lambda spec: built.append(spec) or real(spec))
    report = run_gameday(seed=3, checkpoint_at=30.0, **SMALL["gameday"])
    assert len(built) == 1
    assert report.checkpoint is not None
    assert report.lost == 0 and report.duplicates == 0


def test_layers_install_in_spec_order_after_placement():
    scenario = SCENARIOS["gameday"](**SMALL["gameday"])
    run = finished(scenario)
    # chaos is uninstalled at the horizon; the rest keep spec order
    assert list(run.meta.layers) == ["sampler", "service"]
    assert [layer.name for layer in scenario.spec.layers] == \
        ["sampler", "service", "chaos"]
    assert run.meta.collection.location is not None
    assert run.meta.enactor.location is not None


def test_but_keeps_every_parameter():
    scenario = chaos(seed=4, waves=3)
    again = scenario.but()
    assert again.params == scenario.params
    assert again.params["seed"] == 4 and again.params["retry"] is False
    assert scenario.but(retry=True).params["retry"] is True
    # layers are stateful: a fresh scenario carries fresh ones
    assert again.spec.layers[0] is not scenario.spec.layers[0]


def test_compare_runs_each_variant_on_the_same_seeds():
    reports = compare(chaos(**SMALL["chaos"]),
                      {"a": {}, "b": {}, "retry": {"retry": True}})
    assert list(reports) == ["a", "b", "retry"]
    assert reports["a"].to_json() == reports["b"].to_json()
    assert reports["retry"].retry_enabled
    assert reports["retry"].faults_planned == reports["a"].faults_planned


def test_comparisons_name_registered_scenarios():
    for comparison in COMPARISONS.values():
        assert comparison.scenario in SCENARIOS
