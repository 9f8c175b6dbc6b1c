"""EconomyLayer: the computational economy's wiring onto a Metasystem."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..accounting.ledger import Ledger
from ..layer import Layer
from .auction import SealedBidAuction
from .budget import BudgetManager
from .config import EconomyConfig
from .market import Market

__all__ = ["EconomyLayer"]


class EconomyLayer(Layer):
    """A metering :class:`~repro.accounting.ledger.Ledger` on every
    Host, a repricing :class:`~repro.economy.market.Market` publishing
    ``host_ask_price``, per-user budgets charged through the ledger, and
    the sealed-bid auction economic schedulers clear through.  Market
    jitter draws only from the ``("economy", "market")`` stream, so
    installing the economy never perturbs other seeded streams."""

    name = "economy"

    def __init__(self, config: Optional[EconomyConfig] = None):
        self.config = config if config is not None else EconomyConfig()

    def install(self, meta: Any) -> None:
        config = self.config
        self.meta = meta
        self.ledger = Ledger(clock=lambda: meta.sim.now)
        self.budgets = budgets = BudgetManager(clock=lambda: meta.sim.now,
                                               metrics=meta.metrics)
        budgets.attach_ledger(self.ledger)
        self.market = Market(
            meta.sim, rng=meta.rngs.stream("economy", "market"),
            base_price=config.base_price,
            speed_premium=config.speed_premium,
            load_factor=config.load_factor,
            util_factor=config.util_factor,
            repricing_interval=config.repricing_interval,
            repricing_jitter=config.repricing_jitter,
            demand_bump=config.demand_bump,
            metrics=meta.metrics, spans=meta.spans)
        self.auction = SealedBidAuction(pricing=config.auction_pricing,
                                        metrics=meta.metrics)
        self.market.start()
        meta.metrics.gauge_fn("economy_budget_committed",
                              lambda: budgets.total_committed,
                              help="funds held against pending placements")

    def on_host(self, host: Any, credential: Any) -> None:
        self.ledger.attach(host)
        self.market.enroll(host)

    def audit(self) -> Dict[str, Any]:
        return {"budgets": self.budgets.to_dict()}

    def teardown(self) -> None:
        self.market.stop()
        for host in self.meta.hosts:
            host.billing = None
