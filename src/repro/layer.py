"""The layer contract: how an optional subsystem plugs into a Metasystem.

The paper's RMI is a small set of core objects with fixed interfaces
that new policies plug into without changing the core.  Optional
subsystems follow the same rule: each is a :class:`Layer`, switched on
with :meth:`Metasystem.install <repro.metasystem.Metasystem.install>`
and off with :meth:`~repro.metasystem.Metasystem.uninstall`.  OAR's
"small core, separate modules" design (PAPERS.md) is the model: a
layer's wiring lives in its own package and touches the core only
through these hooks, each a no-op by default.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["Layer", "SHIPPED_LAYERS"]

#: the names of the layers this package ships: each reads as
#: ``meta.<name>``, or None while no layer of that name is installed
SHIPPED_LAYERS = ("guardrails", "economy", "retries", "sampler", "chaos",
                  "service")


class Layer:
    """An optional subsystem with one lifecycle."""

    #: the key the layer is installed under; ``meta.<name>`` reads it
    name: str = ""

    def install(self, meta: Any) -> None:
        """Build the layer's parts and hook them onto ``meta``."""

    def on_host(self, host: Any, credential: Any) -> None:
        """Wire one Host Object: every host present at install, then
        each later one before its periodic re-assessment starts
        (``credential`` is its Collection credential)."""

    def audit(self) -> Dict[str, Any]:
        """Deterministic world-side state, keyed by name: a service
        checkpoint records it and restore verifies it."""
        return {}

    def teardown(self) -> None:
        """Stop the layer's daemons and unhook it from the core."""
