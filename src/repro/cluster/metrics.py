"""Cluster metrics: routing counters plus a per-replica roll-up.

The cluster layer adds only what the single-node metrics cannot know —
how requests were routed, what was dropped because no replica could take
it, and when the autoscaler acted. Everything latency-shaped stays in
each replica's own :class:`repro.serve.ServerMetrics`; the roll-up merges
those (bin-exact histogram merges, counter sums) into one cluster-wide
view, and :meth:`ClusterMetrics.snapshot` nests all three levels so one
snapshot exposes the fleet as one monitoring surface with a per-replica
breakdown.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.obs.telemetry import Counter
from repro.serve.metrics import ServerMetrics

__all__ = ["ScaleEvent", "ClusterMetrics"]


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, in virtual time."""

    time_ms: float
    action: str                 # "scale-up" or "scale-down"
    replica: str
    miss_rate: float
    mean_load: float

    def as_dict(self) -> dict:
        return {"time_ms": self.time_ms, "action": self.action,
                "replica": self.replica, "miss_rate": self.miss_rate,
                "mean_load": self.mean_load}


class ClusterMetrics:
    """Routing/scaling counters over a live fleet of replicas.

    The replica list is shared with the router (replicas the autoscaler
    adds mid-run appear here automatically); snapshots deep-copy, so a
    caller may mutate what it got back without corrupting the live view.
    """

    COUNTERS = ("arrived", "routed", "no_replica", "scale_ups",
                "scale_downs")

    def __init__(self, replicas: list, telemetry=None):
        self.replicas = replicas
        self.counters = {name: Counter(name) for name in self.COUNTERS}
        self.per_replica: dict[str, int] = {}
        self.scale_events: list[ScaleEvent] = []
        self.telemetry = telemetry
        if telemetry is not None:
            events = telemetry.counter(
                "cluster_requests_total",
                "cluster-level routing events", ("event",))
            self._events = {e: events.child((e,))
                            for e in ("arrived", "routed", "no_replica")}
            self._routed_family = telemetry.counter(
                "cluster_routed_total",
                "requests dispatched per replica", ("replica",))
            self._scale_family = telemetry.counter(
                "cluster_scale_events_total",
                "autoscaler actions", ("action",))
            self._routed_children: dict[str, Counter] = {}

    # -- recording -----------------------------------------------------------
    def record_arrival(self) -> None:
        self.counters["arrived"].increment()
        if self.telemetry is not None:
            self._events["arrived"].increment()

    def record_routed(self, replica: str) -> None:
        self.counters["routed"].increment()
        self.per_replica[replica] = self.per_replica.get(replica, 0) + 1
        if self.telemetry is not None:
            self._events["routed"].increment()
            child = self._routed_children.get(replica)
            if child is None:
                child = self._routed_children[replica] = \
                    self._routed_family.child((replica,))
            child.increment()

    def record_no_replica(self) -> None:
        """One request dropped because no replica could take it."""
        self.counters["no_replica"].increment()
        if self.telemetry is not None:
            self._events["no_replica"].increment()

    def record_scale(self, event: ScaleEvent) -> None:
        key = "scale_ups" if event.action == "scale-up" else "scale_downs"
        self.counters[key].increment()
        self.scale_events.append(event)
        if self.telemetry is not None:
            self._scale_family.child((event.action,)).increment()

    # -- time-series roll-up -------------------------------------------------
    def merged_series(self, name: str) -> dict:
        """One fleet-wide series per label set, summed across replicas.

        The time-series counterpart of :meth:`aggregate`: replicas sample
        at their own instants, so their per-replica series (label
        ``replica=<name>``) are summed as step functions — see
        :meth:`repro.obs.telemetry.TimeSeriesStore.merged`. Requires the
        cluster to have been run with a telemetry attached.
        """
        if self.telemetry is None:
            raise ValueError("cluster was run without telemetry")
        return self.telemetry.store.merged(name, drop_label="replica")

    # -- roll-up -------------------------------------------------------------
    def aggregate(self) -> ServerMetrics:
        """All replicas' serving metrics folded into one ServerMetrics.

        Counters sum; histograms merge bin-exactly; transitions
        interleave in time order. The deadline is taken from the first
        replica (the cluster serves one deadline class per run).
        """
        deadline = (self.replicas[0].metrics.deadline_ms
                    if self.replicas else float("nan"))
        total = ServerMetrics(deadline)
        if self.replicas:
            # like the deadline, the rung inventory follows the first
            # replica (one ladder per deadline class per run)
            total.set_ladder(self.replicas[0].metrics.ladder)
        for replica in self.replicas:
            m = replica.metrics
            for name, counter in m.counters.items():
                total.counters[name].increment(counter.value)
            total.latency.merge(m.latency)
            total.queue_wait.merge(m.queue_wait)
            total.service.merge(m.service)
            total.batch_occupancy_sum += m.batch_occupancy_sum
            for rung, n in m.per_rung.items():
                total.per_rung[rung] = total.per_rung.get(rung, 0) + n
            total.merge_tenants(m.tenants)
            total.events.extend(m.events)
        total.events.sort(key=lambda e: e.time_ms)
        return total

    def snapshot(self) -> dict:
        """Cluster counters, the aggregate, and the per-replica breakdown."""
        return copy.deepcopy({
            "cluster": {
                "counters": {n: c.value for n, c in self.counters.items()},
                "per_replica_routed": dict(self.per_replica),
                "scale_events": [e.as_dict() for e in self.scale_events],
                "replicas": [r.name for r in self.replicas],
            },
            "aggregate": self.aggregate().snapshot(),
            "replicas": {r.name: r.metrics.snapshot()
                         for r in self.replicas},
        })

    def report(self) -> str:
        """Human-readable cluster block: routing, roll-up, per-replica."""
        c = {n: counter.value for n, counter in self.counters.items()}
        lines = [
            f"cluster: {len(self.replicas)} replicas, {c['arrived']} "
            f"arrived, {c['routed']} routed, {c['no_replica']} unroutable",
        ]
        if c["scale_ups"] or c["scale_downs"]:
            lines.append(f"autoscaler: {c['scale_ups']} scale-ups / "
                         f"{c['scale_downs']} scale-downs")
            for e in self.scale_events:
                lines.append(f"  t={e.time_ms:9.2f} ms  {e.action:10s} "
                             f"{e.replica} (miss {100 * e.miss_rate:.1f}%, "
                             f"load {e.mean_load:.1f})")
        if self.per_replica:
            routed = ", ".join(f"{name}: {n}"
                               for name, n in self.per_replica.items())
            lines.append(f"routed to: {routed}")
        lines.append("-- aggregate --")
        lines.append(self.aggregate().report())
        for replica in self.replicas:
            lines.append(f"-- {replica.name} ({replica.spec.name}) --")
            lines.append(replica.metrics.report())
        return "\n".join(lines)
