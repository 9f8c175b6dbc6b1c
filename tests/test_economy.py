"""Tests for the computational-economy layer: budgets, market, auctions,
economic scheduling, and the seeded campaign runner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.accounting.ledger import ChargeRecord
from repro.economy import (
    Ask,
    BudgetManager,
    EconomyComparison,
    EconomyConfig,
    EconomyLayer,
    SealedBidAuction,
)
from repro.errors import BudgetExceededError
from repro.scenario import compare, economy, run_scenario
from repro.workload import wait_for_completion


def charge(instance="i0", cls="c0", cycles=10.0, price=0.01):
    return ChargeRecord(time=0.0, host_loid="h0", instance_loid=instance,
                        class_loid=cls, cycles=cycles,
                        price_per_cycle=price)


class TestBudgetManager:
    def test_hold_release_math(self):
        budgets = BudgetManager()
        account = budgets.create_user("a", budget=10.0, deadline=100.0)
        budgets.hold("a", 4.0)
        assert account.committed == pytest.approx(4.0)
        assert account.available == pytest.approx(6.0)
        budgets.release("a", 4.0)
        assert account.committed == pytest.approx(0.0)
        assert account.refunded == pytest.approx(4.0)

    def test_hold_past_budget_rejected(self):
        budgets = BudgetManager()
        budgets.create_user("a", budget=10.0, deadline=100.0)
        budgets.hold("a", 9.0)
        with pytest.raises(BudgetExceededError):
            budgets.hold("a", 2.0)
        assert budgets.rejections == 1
        assert budgets.account("a").committed == pytest.approx(9.0)

    def test_bound_charge_pays_cleared_rate_and_frees_hold(self):
        budgets = BudgetManager()
        account = budgets.create_user("a", budget=10.0, deadline=100.0)
        budgets.hold("a", 2.0)               # rate 0.02 x 100 work
        budgets.bind_instance("i0", "a", rate=0.02, hold=2.0)
        # metered at a *different* host price: the bound rate must win
        budgets.on_charge(charge(instance="i0", cycles=100.0, price=0.05))
        assert account.spent == pytest.approx(2.0)   # 100 x 0.02
        assert account.committed == pytest.approx(0.0)
        assert budgets.binding_of("i0") == ("a", 0.02)

    def test_unbound_charge_attributed_via_class(self):
        budgets = BudgetManager()
        account = budgets.create_user("a", budget=10.0, deadline=100.0)
        budgets.register_class("c0", "a")
        budgets.on_charge(charge(cls="c0", cycles=50.0, price=0.02))
        assert account.spent == pytest.approx(1.0)

    def test_unknown_class_charge_ignored(self):
        budgets = BudgetManager()
        budgets.create_user("a", budget=10.0, deadline=100.0)
        budgets.on_charge(charge(cls="mystery"))
        assert budgets.total_spent == pytest.approx(0.0)

    def test_ensure_is_idempotent(self):
        budgets = BudgetManager()
        first = budgets.ensure("a", budget=10.0, deadline=100.0)
        again = budgets.ensure("a", budget=99.0, deadline=1.0)
        assert again is first
        assert again.budget == pytest.approx(10.0)
        with pytest.raises(ValueError):
            budgets.create_user("a")


class TestAuction:
    def test_second_price_pays_runner_up(self):
        auction = SealedBidAuction(pricing="second")
        result = auction.clear([Ask("h0", 0.01), Ask("h1", 0.03)])
        assert str(result.winner.host_loid) == "h0"
        assert result.clearing_price == pytest.approx(0.03)
        assert result.min_ask == pytest.approx(0.01)

    def test_first_price_pays_own_ask(self):
        auction = SealedBidAuction(pricing="first")
        result = auction.clear([Ask("h0", 0.01), Ask("h1", 0.03)])
        assert result.clearing_price == pytest.approx(0.01)

    def test_single_bidder_pays_own_ask(self):
        auction = SealedBidAuction(pricing="second")
        result = auction.clear([Ask("h0", 0.02)])
        assert result.clearing_price == pytest.approx(0.02)

    def test_ceiling_excludes_and_caps(self):
        auction = SealedBidAuction(pricing="second")
        result = auction.clear([Ask("h0", 0.01), Ask("h1", 0.50)],
                               ceiling=0.10)
        # the runner-up's ask exceeds the ceiling, so it never enters the
        # round: the sole feasible bidder pays its own ask
        assert result.n_asks == 1
        assert result.clearing_price == pytest.approx(0.01)
        empty = auction.clear([Ask("h0", 0.20)], ceiling=0.10)
        assert not empty.cleared

    def test_tie_breaks_by_loid_string(self):
        auction = SealedBidAuction(pricing="second")
        result = auction.clear([Ask("hB", 0.01), Ask("hA", 0.01)])
        assert str(result.winner.host_loid) == "hA"

    def test_efficiency_tracks_second_price_premium(self):
        auction = SealedBidAuction(pricing="second")
        auction.clear([Ask("h0", 0.01), Ask("h1", 0.02)])
        assert auction.efficiency == pytest.approx(0.5)
        assert auction.to_dict()["cleared_rounds"] == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 99),
                              st.floats(0.001, 1.0, allow_nan=False)),
                    min_size=1, max_size=8),
           st.floats(0.001, 2.0, allow_nan=False))
    def test_clearing_is_deterministic_and_bounded(self, raw, ceiling):
        asks = [Ask(f"h{i}", round(p, 6)) for i, p in raw]
        a = SealedBidAuction(pricing="second").clear(asks, ceiling=ceiling)
        b = SealedBidAuction(pricing="second").clear(asks, ceiling=ceiling)
        feasible = [x for x in asks if x.price <= ceiling]
        if not feasible:
            assert not a.cleared and not b.cleared
            return
        best = min(feasible, key=lambda x: x.sort_key)
        assert a.winner.host_loid == b.winner.host_loid \
            == best.host_loid
        assert a.clearing_price == b.clearing_price
        assert best.price <= a.clearing_price <= ceiling + 1e-9


class TestBudgetInvariant:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 100.0, allow_nan=False),
           st.lists(st.tuples(st.floats(0.0, 50.0, allow_nan=False),
                              st.floats(0.0, 1.0, allow_nan=False),
                              st.sampled_from(["release", "charge"])),
                    max_size=20))
    def test_spend_plus_holds_never_exceed_budget(self, budget, ops):
        """The economy's money conservation law: however holds, refunds,
        and metered charges interleave, ``spent + committed <= budget``
        as long as metered cycles never exceed the held work."""
        budgets = BudgetManager()
        account = budgets.create_user("u", budget=budget, deadline=1e9)
        work = 100.0
        for i, (hold, cycles_frac, action) in enumerate(ops):
            try:
                budgets.hold("u", hold)
            except BudgetExceededError:
                continue
            if action == "release":
                budgets.release("u", hold)
            else:
                rate = hold / work
                budgets.bind_instance(f"i{i}", "u", rate=rate, hold=hold)
                budgets.on_charge(charge(instance=f"i{i}",
                                         cycles=cycles_frac * work,
                                         price=rate * 3.0))
            assert (account.spent + account.committed
                    <= account.budget + 1e-6)
            assert account.overrun == pytest.approx(0.0)


@pytest.fixture
def econ():
    """Cheap-slow and pricey-fast hosts under a jitter-free market."""
    meta = Metasystem(seed=11)
    meta.add_domain("d")
    for i, speed in enumerate([1.0, 1.0, 4.0, 4.0]):
        meta.add_unix_host(f"h{i}", "d",
                           MachineSpec(arch="sparc", os_name="SunOS",
                                       speed=speed),
                           slots=4)
    meta.add_vault("d")
    suite = meta.install(EconomyLayer(EconomyConfig(repricing_jitter=0.0)))
    app = meta.create_class("A", [Implementation("sparc", "SunOS")],
                            work_units=100.0)
    return meta, app, suite


class TestMarket:
    def test_speed_premium_prices_hardware(self, econ):
        meta, _app, suite = econ
        slow, fast = meta.hosts[0], meta.hosts[2]
        assert suite.market.base_ask_for(slow) == pytest.approx(0.01)
        assert suite.market.base_ask_for(fast) == pytest.approx(0.04)
        assert slow.price == pytest.approx(0.01)

    def test_ask_published_into_collection(self, econ):
        meta, _app, _suite = econ
        record = meta.collection.query("$host_ask_price <= 0.01")[0]
        assert record.get("host_ask_price") == pytest.approx(0.01)

    def test_reprice_tracks_load_with_floor(self, econ):
        meta, _app, suite = econ
        host = meta.hosts[0]
        host.machine.load_walk = None
        host.machine.set_background_load(2.0)
        suite.market.reprice()
        # 0.01 x (1 + 0.25 x 2.0), no jitter
        assert host.price == pytest.approx(0.015)
        host.machine.set_background_load(0.0)
        suite.market.reprice()
        assert host.price >= 0.005  # floored at base/2
        assert host.price == pytest.approx(0.01)

    def test_note_award_bumps_ask_not_billing_rate(self, econ):
        meta, _app, suite = econ
        host = meta.hosts[0]
        before = host.price
        suite.market.note_award(host.loid)
        assert host.price == pytest.approx(before)  # metered rate fixed
        assert host.attributes.get("host_ask_price") == \
            pytest.approx(before * 1.25)
        assert suite.market.awards == 1


class TestEconomyScheduler:
    def test_cost_mode_buys_cheapest_feasible(self, econ):
        meta, app, _suite = econ
        sched = meta.make_scheduler("economy", mode="cost", user="alice")
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        cheap = {meta.hosts[0].loid, meta.hosts[1].loid}
        hosts = [m.host_loid for m in rl.masters[0].entries]
        assert set(hosts) <= cheap
        # risk spreading: two awards land on two distinct hosts
        assert len(set(hosts)) == 2

    def test_time_mode_buys_fastest_affordable(self, econ):
        meta, app, _suite = econ
        sched = meta.make_scheduler("economy-time", user="bob")
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        fast = {meta.hosts[2].loid, meta.hosts[3].loid}
        for m in rl.masters[0].entries:
            assert m.host_loid in fast

    def test_tight_deadline_drains_cost_mode_to_fast_hosts(self, econ):
        meta, app, suite = econ
        # 100 units at speed 1 takes 100 s; a 60 s deadline with the
        # default 0.6 safety admits only the 4x hosts (25 s)
        suite.budgets.create_user("carol", budget=100.0, deadline=60.0)
        sched = meta.make_scheduler("economy", mode="cost", user="carol",
                                    deadline_safety=0.6)
        rl = sched.compute_schedule([ObjectClassRequest(app, 1)])
        fast = {meta.hosts[2].loid, meta.hosts[3].loid}
        assert rl.masters[0].entries[0].host_loid in fast

    def test_unaffordable_placement_rejected_and_refunded(self, econ):
        meta, app, suite = econ
        # 0.5 budget / 100 work = 0.005 affordable rate < 0.01 ask
        suite.budgets.create_user("poor", budget=0.5, deadline=1e9)
        sched = meta.make_scheduler("economy", user="poor")
        with pytest.raises(BudgetExceededError):
            sched.compute_schedule([ObjectClassRequest(app, 1)])
        assert suite.budgets.account("poor").committed == \
            pytest.approx(0.0)

    def test_end_to_end_bills_at_cleared_rate(self, econ):
        meta, app, suite = econ
        sched = meta.make_scheduler("economy", mode="cost", user="alice")
        outcome = sched.run([ObjectClassRequest(app, 2)])
        assert outcome.ok
        account = suite.budgets.account("alice")
        assert account.committed > 0  # holds ride until the charge lands
        wait_for_completion(meta, app, outcome.created)
        # reverse-Vickrey: round 1 clears at the other cheap host's 0.01
        # ask; round 2 (risk-spread to the remaining cheap host) pays the
        # fast runner-up's 0.04 — 100 x 0.01 + 100 x 0.04
        assert account.spent == pytest.approx(5.0, rel=1e-3)
        assert account.committed == pytest.approx(0.0)
        assert account.spent <= account.budget

    def test_escalation_raises_ceiling_under_deadline_pressure(self, econ):
        meta, app, suite = econ
        suite.budgets.create_user("dave", budget=100.0, deadline=200.0)
        sched = meta.make_scheduler("economy", user="dave")
        sched.run([ObjectClassRequest(app, 1)])
        assert sched.bid_ceiling_factor() == pytest.approx(1.0 / 1.5)
        meta.advance(150.0)  # past the 0.5 escalation onset
        assert sched.bid_ceiling_factor() > 1.0 / 1.5


class TestCampaign:
    KW = dict(seed=3, users=2, budget=50.0, deadline=600.0, waves=2,
              per_wave=1, work=150.0, wave_interval=60.0, n_domains=2,
              hosts_per_domain=3, platform_mix=2)

    def test_report_is_deterministic(self):
        a = run_scenario(economy(**self.KW))
        b = run_scenario(economy(**self.KW))
        assert a.to_json() == b.to_json()
        assert a.instances_requested == 4
        assert a.auction is not None

    def test_never_overspends_any_budget(self):
        report = run_scenario(economy(**self.KW))
        for user, stats in report.per_user.items():
            assert stats["overrun"] == pytest.approx(0.0)
            assert stats["spent"] <= self.KW["budget"] + 1e-6
        assert report.cost_overrun == pytest.approx(0.0)

    def test_comparison_gate_fields(self):
        cmp = EconomyComparison(compare(economy(**self.KW), {
            "economy": {}, "random": {"scheduler": "random"}}))
        data = cmp.to_dict()
        assert set(data["reports"]) == {"economy", "random"}
        assert isinstance(data["economy_beats_baselines"], bool)
        assert "random" in data["gate"]
        # baseline runs share the economy's metered world
        assert data["reports"]["random"]["total_cost"] > 0
