"""Computational-economy scheduling: budgets, deadlines, auctions.

ROADMAP item 3 — a Nimrod/G-style economy layered on the accounting
seed.  Hosts publish ask prices discovered by a seeded market daemon
(:mod:`~repro.economy.market`), reservations clear through sealed-bid
auctions (:mod:`~repro.economy.auction`), users spend finite budgets
against deadlines (:mod:`~repro.economy.budget`), and two
optimization-mode schedulers bid inside the budget/deadline box
(:mod:`~repro.economy.sched`).  The ``economy`` scenario
(:mod:`repro.scenario`) and its report (:mod:`~repro.economy.report`)
evaluate the economy against the Random/IRS baselines, GridSim-style.

Switch it on with ``meta.install(EconomyLayer(config))``
(:mod:`~repro.economy.layer`) or ``TestbedSpec(layers=[EconomyLayer()])``;
drive it from the CLI with ``legion-sim economy``.
"""

from __future__ import annotations

from .auction import Ask, AuctionResult, SealedBidAuction
from .budget import BudgetManager, UserAccount
from .config import EconomyConfig
from .layer import EconomyLayer
from .market import Market
from .report import EconomyComparison, EconomyReport
from .sched import EconomyScheduler

__all__ = [
    "Ask",
    "AuctionResult",
    "BudgetManager",
    "EconomyComparison",
    "EconomyConfig",
    "EconomyReport",
    "EconomyLayer",
    "EconomyScheduler",
    "Market",
    "SealedBidAuction",
    "UserAccount",
]

