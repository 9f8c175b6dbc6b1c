"""The per-layer table: what a traced pass wraps and what it reports.

Each ``src/repro/<module>`` layer is entered through a few public
functions; a traced pass wraps them (see ``spantrace``) and this module
turns the spans, plus the counters the simulator already keeps, into the
``per_layer`` metrics of ``BENCHMARK.json``.  ``perfbench/METRICS.md``
says which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

from typing import Any, Dict, List

from spantrace import Target, self_times

__all__ = ["LayerCounters", "SELF_TIME_GROUPS", "per_layer_metrics",
           "self_time_shares"]

_MISSING = object()


class LayerCounters:
    """Counts gathered by hooks on the wrapped calls of one pass."""

    def __init__(self) -> None:
        self.query_results = 0
        self.updates_useful = 0
        self.reservation_rounds_ok = 0

    def targets(self) -> List[Target]:
        def note_results(_args, _kwargs, records) -> None:
            self.query_results += len(records)

        def note_useful(args, kwargs) -> None:
            # an update is useful when it changes at least one attribute
            coll, member = args[0], args[1]
            attributes = args[2] if len(args) > 2 else kwargs["attributes"]
            if member not in coll:
                self.updates_useful += 1
                return
            stored = coll.record_of(member).attributes
            if any(stored.get(k, _MISSING) != v
                   for k, v in attributes.items()):
                self.updates_useful += 1

        def note_grant(_args, _kwargs, feedback) -> None:
            self.reservation_rounds_ok += bool(feedback.ok)

        return [
            Target("sim.run_until", "repro.sim.kernel:Simulator.run_until"),
            Target("net.invoke", "repro.net.transport:Transport.invoke"),
            Target("net.invoke",
                   "repro.net.transport:Transport.parallel_invoke"),
            Target("collection.query",
                   "repro.collection.collection:Collection.query",
                   after=note_results),
            Target("collection.update",
                   "repro.collection.collection:Collection.update_entry",
                   before=note_useful),
            Target("scheduler.compute",
                   "repro.scheduler.base:Scheduler.compute_schedule"),
            Target("enactor.reserve",
                   "repro.enactor.enactor:Enactor.make_reservations",
                   after=note_grant),
            Target("enactor.enact",
                   "repro.enactor.enactor:Enactor.enact_schedule"),
            Target("hosts.reassess",
                   "repro.hosts.host_object:HostObject.reassess"),
            Target("hosts.reserve",
                   "repro.hosts.host_object:HostObject.make_reservation"),
            Target("hosts.start",
                   "repro.hosts.host_object:HostObject.start_object"),
            Target("hosts.start",
                   "repro.hosts.host_object:HostObject.start_objects"),
            Target("objects.attr_update",
                   "repro.objects.attributes:AttributeDatabase.update"),
            Target("objects.create",
                   "repro.objects.class_object:ClassObject.create_instance"),
            Target("objects.create",
                   "repro.objects.class_object:"
                   "ClassObject.create_instances"),
            Target("service.submit",
                   "repro.service.gateway:RequestGateway.submit"),
            Target("service.queue",
                   "repro.service.queue:PlacementQueue.offer"),
            Target("service.queue", "repro.service.queue:PlacementQueue.pop"),
            Target("recovery.journal",
                   "repro.recovery.journal:RequestJournal.record"),
            Target("recovery.lease", "repro.recovery.leases:LeaseTable.grant"),
            Target("recovery.lease", "repro.recovery.leases:LeaseTable.renew"),
            Target("recovery.lease",
                   "repro.recovery.leases:LeaseTable.release"),
            Target("recovery.lease",
                   "repro.recovery.leases:LeaseTable.expire"),
            Target("recovery.checkpoint",
                   "repro.recovery.checkpoint:capture_checkpoint"),
            Target("recovery.checkpoint",
                   "repro.recovery.checkpoint:restore_service"),
        ]


#: span-name groups whose summed self time the traced run prints as
#: shares, to show which layers each workload loads
SELF_TIME_GROUPS = {
    "world writes (hosts.reassess + objects.attr_update + "
    "collection.update)": ("hosts.reassess", "objects.attr_update",
                           "collection.update"),
    "placement path (scheduler + enactor + net + collection.query)": (
        "scheduler.run", "scheduler.compute",
        "enactor.reserve", "enactor.enact", "net.invoke",
        "collection.query"),
    "service + recovery": ("service.submit", "service.queue",
                           "recovery.journal", "recovery.lease",
                           "recovery.checkpoint"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(result: Any, counters: LayerCounters
                      ) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (``bench.*`` and
    ``obs.tracing_cost_ratio`` are added by the runner)."""
    times = self_times(result.recorder)

    def calls(name: str) -> int:
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(times.get(n, (0, 0.0, 0.0))[2] for n in names)

    metas = result.metas
    suites = [m.service for m in metas if m.service is not None]
    sent = sum(m.transport.messages_sent for m in metas)
    lost = sum(m.transport.messages_lost for m in metas)
    hits = sum(s.viable_cache_hits for s in result.schedulers)
    misses = sum(s.viable_cache_misses for s in result.schedulers)
    offered = sum(s.queue.offered for s in suites)
    shed = sum(s.queue.shed for s in suites)
    return {
        "sim.events": sum(m.sim.events_processed for m in metas),
        "sim.self_s": self_s("sim.run_until"),
        "net.invoke.calls": calls("net.invoke"),
        "net.invoke.self_s": self_s("net.invoke"),
        "net.messages": sent,
        "net.lost_ratio": _ratio(lost, sent),
        "collection.query.calls": calls("collection.query"),
        "collection.query.self_s": self_s("collection.query"),
        "collection.query.results_per_call": _ratio(
            counters.query_results, calls("collection.query")),
        "collection.update.calls": calls("collection.update"),
        "collection.update.self_s": self_s("collection.update"),
        "collection.update.useful_ratio": _ratio(
            counters.updates_useful, calls("collection.update")),
        "scheduler.run.calls": calls("scheduler.run"),
        "scheduler.run.self_s": self_s("scheduler.run"),
        "scheduler.compute.self_s": self_s("scheduler.compute"),
        "scheduler.viable_cache.hit_ratio": _ratio(hits, hits + misses),
        "scheduler.tries_per_run": _ratio(result.schedule_tries,
                                          result.calls),
        "enactor.reserve.calls": calls("enactor.reserve"),
        "enactor.reserve.self_s": self_s("enactor.reserve"),
        "enactor.enact.self_s": self_s("enactor.enact"),
        "enactor.grant_ratio": _ratio(counters.reservation_rounds_ok,
                                      calls("enactor.reserve")),
        "hosts.reassess.calls": calls("hosts.reassess"),
        "hosts.reassess.self_s": self_s("hosts.reassess"),
        "hosts.reserve.self_s": self_s("hosts.reserve"),
        "hosts.start.self_s": self_s("hosts.start"),
        "objects.attr_update.calls": calls("objects.attr_update"),
        "objects.attr_update.self_s": self_s("objects.attr_update"),
        "objects.create.self_s": self_s("objects.create"),
        "obs.spans": sum(len(m.spans) for m in metas),
        "service.submit.calls": calls("service.submit"),
        "service.submit.self_s": self_s("service.submit"),
        "service.queue.self_s": self_s("service.queue"),
        "service.shed_ratio": _ratio(shed, offered),
        "service.busy_fraction": _ratio(
            sum(s.pool.busy_fraction for s in suites), len(suites)),
        "recovery.journal.records": calls("recovery.journal"),
        "recovery.journal.self_s": self_s("recovery.journal"),
        "recovery.lease.self_s": self_s("recovery.lease"),
        "recovery.checkpoint.self_s": self_s("recovery.checkpoint"),
        "recovery.requeued": sum(s.supervisor.stats()["recovered"]
                                 for s in suites
                                 if s.supervisor is not None),
    }


def self_time_shares(result: Any) -> Dict[str, float]:
    """Each group's share of the traced pass's summed self time."""
    times = self_times(result.recorder)
    total = sum(v[2] for v in times.values())
    return {group: _ratio(sum(times.get(n, (0, 0.0, 0.0))[2]
                              for n in names), total)
            for group, names in SELF_TIME_GROUPS.items()}
