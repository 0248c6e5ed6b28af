"""Cluster metrics: routing counters plus a per-replica roll-up.

The cluster layer adds only what the single-node metrics cannot know —
how requests were routed, what was dropped because no replica could take
it, and when the autoscaler acted. Those counts are the children of the
``cluster_requests_total{event}``, ``cluster_routed_total{replica}`` and
``cluster_scale_events_total{action}`` families, in the router's
:class:`repro.obs.Telemetry` or in a private one, so the snapshot and
the exposition read the same objects. Everything latency-shaped stays in
each replica's own :class:`repro.serve.ServerMetrics`; the roll-up folds
those (bin-exact histogram merges, counter sums) into one cluster-wide
view, and :meth:`ClusterMetrics.snapshot` nests all three levels so one
snapshot exposes the fleet as one monitoring surface with a per-replica
breakdown.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.obs.telemetry import Counter, Telemetry
from repro.serve.metrics import ServerMetrics, _LabelSum

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
    Like :class:`repro.serve.ServerMetrics`, a new instance starts the
    cluster families from zero on a telemetry shared with earlier runs.
    """

    def __init__(self, replicas: list, telemetry=None):
        self.replicas = replicas
        self.telemetry = telemetry
        registry = Telemetry() if telemetry is None else telemetry
        events = registry.counter(
            "cluster_requests_total", "cluster-level routing events",
            ("event",))
        self._routed_family = registry.counter(
            "cluster_routed_total", "requests dispatched per replica",
            ("replica",))
        self._scale_family = registry.counter(
            "cluster_scale_events_total", "autoscaler actions", ("action",))
        for family in (events, self._routed_family, self._scale_family):
            family.drop()
        self._routed: dict[str, Counter] = {}
        self._scales: dict[tuple[str], Counter] = {}
        self.counters = {
            "arrived": events.child(("arrived",)),
            "routed": events.child(("routed",)),
            "no_replica": events.child(("no_replica",)),
            "scale_ups": _LabelSum(self._scales, "scale-up"),
            "scale_downs": _LabelSum(self._scales, "scale-down"),
        }
        self.scale_events: list[ScaleEvent] = []

    # -- recording -----------------------------------------------------------
    def record_arrival(self) -> None:
        self.counters["arrived"].increment()

    def record_routed(self, replica: str) -> None:
        self.counters["routed"].increment()
        child = self._routed.get(replica)
        if child is None:
            child = self._routed[replica] = \
                self._routed_family.child((replica,))
        child.increment()

    def record_no_replica(self) -> None:
        """One request dropped because no replica could take it."""
        self.counters["no_replica"].increment()

    def record_scale(self, event: ScaleEvent) -> None:
        key = (event.action,)
        child = self._scales.get(key)
        if child is None:
            child = self._scales[key] = self._scale_family.child(key)
        child.increment()
        self.scale_events.append(event)

    @property
    def per_replica(self) -> dict[str, int]:
        """Requests routed per replica, in first-routed order."""
        return {name: child.value for name, child in self._routed.items()}

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
            total._merge(replica.metrics)
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
