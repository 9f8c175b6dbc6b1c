"""Tests for the layer contract (repro.layer) and Metasystem.install.

Every optional subsystem is switched on the same way; these tests hold
each one to the same contract: one install per name, the same wiring
for hosts added before and after the install, a clean uninstall, and
checkpoint audits built from the installed layers.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro import MachineSpec, Metasystem
from repro.chaos import ChaosLayer, RetryLayer
from repro.economy import EconomyConfig, EconomyLayer
from repro.errors import LegionError, RecoveryError
from repro.guardrails import GuardrailsLayer
from repro.layer import SHIPPED_LAYERS, Layer
from repro.obs.report import SamplerLayer
from repro.recovery import RecoveryConfig, capture_checkpoint, restore_service
from repro.recovery.checkpoint import AUDIT_KEYS
from repro.scenario import economy, run_scenario
from repro.service import ServiceConfig, ServiceLayer
from repro.workload.testbed import TestbedSpec, build_testbed

#: name -> factory of a fresh, small instance of every shipped layer
LAYERS = {
    "guardrails": GuardrailsLayer,
    "economy": EconomyLayer,
    "retries": RetryLayer,
    "sampler": lambda: SamplerLayer(30.0),
    "chaos": lambda: ChaosLayer(profile="hosts", chaos_seed=1),
    "service": lambda: ServiceLayer(ServiceConfig(workers=1, queue_cap=4)),
}


def small_meta(seed=3, hosts=2):
    meta = Metasystem(seed=seed)
    meta.add_domain("d")
    for i in range(hosts):
        meta.add_unix_host(f"h{i}", "d",
                           MachineSpec(arch="sparc", os_name="SunOS"),
                           slots=4)
    meta.add_vault("d")
    return meta


class TestContract:
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_layer_names_match_their_keys(self, name):
        assert LAYERS[name]().name == name

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_second_install_raises(self, name):
        meta = small_meta()
        first = meta.install(LAYERS[name]())
        with pytest.raises(LegionError):
            meta.install(LAYERS[name]())
        assert meta.layers[name] is first
        assert getattr(meta, name) is first

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_uninstall_detaches_and_allows_a_fresh_install(self, name):
        meta = small_meta()
        pushes = [len(h._push_targets) for h in meta.hosts]
        shed_suspect = meta.enactor.shed_suspect
        first = meta.install(LAYERS[name]())
        meta.advance(10.0)
        assert meta.uninstall(name) is first
        assert name not in meta.layers
        assert getattr(meta, name) is None
        assert [len(h._push_targets) for h in meta.hosts] == pushes
        assert meta.enactor.shed_suspect == shed_suspect
        fresh = LAYERS[name]()
        if name == "service":
            # the placed app class is world state: a new tier reuses it
            fresh.app = first.app
        second = meta.install(fresh)
        meta.advance(10.0)
        assert getattr(meta, name) is second

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_audit_is_json_safe(self, name):
        meta = small_meta()
        layer = meta.install(LAYERS[name]())
        meta.advance(5.0)
        audit = layer.audit()
        assert json.loads(json.dumps(audit, sort_keys=True)) == audit

    def test_uninstall_unknown_raises(self):
        with pytest.raises(LegionError):
            small_meta().uninstall("guardrails")

    def test_known_layer_reads_none_until_installed(self):
        meta = small_meta()
        assert set(SHIPPED_LAYERS) == set(LAYERS)
        assert all(getattr(meta, name) is None for name in LAYERS)
        with pytest.raises(AttributeError):
            meta.no_such_thing

    def test_absent_layer_reads_none_without_importing_its_package(self):
        # a fresh interpreter that imports only the top-level package
        code = ("from repro import Metasystem; "
                "m = Metasystem(seed=0); "
                f"assert all(getattr(m, n) is None for n in {SHIPPED_LAYERS!r})")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_default_hooks_are_no_ops(self):
        class Bare(Layer):
            name = "bare"

        meta = small_meta()
        layer = meta.install(Bare())
        meta.add_unix_host("late", "d")
        assert layer.audit() == {}
        assert meta.uninstall("bare") is layer

    def test_testbed_spec_installs_in_list_order(self):
        meta = build_testbed(TestbedSpec(
            n_domains=1, hosts_per_domain=2, platform_mix=1,
            layers=[SamplerLayer(30.0), EconomyLayer(), GuardrailsLayer(),
                    RetryLayer()]))
        assert list(meta.layers) == ["sampler", "economy", "guardrails",
                                     "retries"]


def _guardrails_wiring(layer, host):
    """Admission controller set, host watched by the monitor."""
    return (host.admission is layer.admission,
            str(host.loid) in layer.monitor.snapshot())


def _economy_wiring(layer, host):
    """Ledger attached, host enrolled (its market ask published)."""
    return (host.billing is not None,
            host.attributes.get("host_ask_price") == host.price > 0)


class TestLateHosts:
    @pytest.mark.parametrize("name,wiring", [
        ("guardrails", _guardrails_wiring),
        ("economy", _economy_wiring),
    ])
    def test_hosts_before_and_after_install_are_wired_alike(self, name,
                                                            wiring):
        meta = small_meta(hosts=1)
        early = meta.hosts[0]
        layer = meta.install(LAYERS[name]())
        late = meta.add_unix_host("late", "d",
                                  MachineSpec(arch="sparc", os_name="SunOS"))
        assert all(wiring(layer, early))
        assert wiring(layer, late) == wiring(layer, early)


class TestEconomyReadsInstalledLayer:
    def test_make_scheduler_uses_installed_economy(self):
        meta = small_meta()
        layer = meta.install(EconomyLayer(EconomyConfig(default_budget=7.0)))
        sched = meta.make_scheduler("economy", user="u")
        assert meta.economy is layer
        assert sched.budgets is layer.budgets
        assert layer.budgets.account("u").budget == 7.0

    def test_make_scheduler_installs_one_economy(self):
        meta = small_meta()
        first = meta.make_scheduler("economy", user="a")
        second = meta.make_scheduler("economy-time", user="b")
        assert first.budgets is second.budgets is meta.economy.budgets

    def test_economy_scenario_meters_with_its_spec_layer(self):
        layer = EconomyLayer(EconomyConfig(repricing_jitter=0.0))
        scenario = economy(seed=0, n_domains=1, hosts_per_domain=3,
                           platform_mix=1, users=1, waves=1, per_wave=1,
                           work=20.0, drain_time=200.0)
        scenario = dataclasses.replace(scenario, spec=dataclasses.replace(
            scenario.spec, layers=[layer]))
        report = run_scenario(scenario)
        assert layer.ledger.total > 0
        assert report.total_cost == round(layer.ledger.total, 6)


def _diverge_breakers(meta):
    meta.guardrails.board.record_failure(meta.hosts[0].location)


def _diverge_health(meta):
    meta.guardrails.monitor.note_outcome(str(meta.hosts[0].location), False)


def _diverge_budgets(meta):
    meta.economy.budgets.ensure("late-user", budget=1.0, deadline=10.0)


class TestRestoreAudit:
    def _checkpointed(self):
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=3, platform_mix=2,
            background_load_mean=0.2,
            layers=[EconomyLayer(), GuardrailsLayer()]))
        suite = meta.install(ServiceLayer(
            ServiceConfig(workers=1, queue_cap=16),
            recovery=RecoveryConfig(lease_ttl=5.0, heartbeat_interval=2.0,
                                    scan_interval=2.0)))
        meta.advance(3.0)  # workers reach their idle grid (quiescent)
        checkpoint = capture_checkpoint(meta)
        meta.uninstall("service")
        return meta, suite, checkpoint

    def test_audit_holds_every_installed_layer(self):
        _meta, _suite, checkpoint = self._checkpointed()
        assert sorted(checkpoint.audit) == sorted(AUDIT_KEYS)
        assert all(checkpoint.audit[key] is not None for key in AUDIT_KEYS)

    def test_unchanged_world_restores(self):
        meta, suite, checkpoint = self._checkpointed()
        restored = restore_service(meta, checkpoint, suite.app)
        assert meta.service is restored

    @pytest.mark.parametrize("diverge", [
        _diverge_breakers, _diverge_health, _diverge_budgets,
    ], ids=["breakers", "health", "budgets"])
    def test_diverged_world_is_refused(self, diverge):
        meta, suite, checkpoint = self._checkpointed()
        diverge(meta)
        with pytest.raises(RecoveryError, match="diverged"):
            restore_service(meta, checkpoint, suite.app)
        assert "service" not in meta.layers
