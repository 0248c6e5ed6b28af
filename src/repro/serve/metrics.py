"""Serving metrics: counters and streaming latency histograms.

The server observes every response exactly once; latencies go into
fixed-memory log-spaced histograms whose quantiles (p50/p95/p99) are read
out of the bin boundaries, so memory stays O(bins) no matter how long a
trace runs. :meth:`ServerMetrics.snapshot` returns a plain dict (the
monitoring surface) and :meth:`ServerMetrics.report` renders it as the text
block the CLI prints.

:class:`Counter` and :class:`LatencyHistogram` come from
:mod:`repro.obs.telemetry` (one implementation for serve and cluster). When a
:class:`repro.obs.Telemetry` is attached, :class:`ServerMetrics` mirrors
every recording into labeled metric families (``tenant``/``rung``/
``event`` label sets, plus any extra labels such as ``replica``) through
a :class:`ServeTelemetry` handle bundle — snapshots and reports are
unchanged, the labeled series ride alongside.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

from repro.obs.telemetry import Counter, LatencyHistogram

__all__ = ["ServeTelemetry", "ServerMetrics"]


@dataclass
class DegradationEvent:
    """One ladder transition, recorded for post-hoc analysis."""

    time_ms: float
    direction: str          # "degrade" or "upgrade"
    from_rung: str
    to_rung: str


class ServeTelemetry:
    """Bound label handles into one Telemetry for one serving run.

    Resolving a labeled child costs a tuple build and a dict lookup;
    doing that per request would be measurable, so the fixed-label
    children (life-cycle event counters) are resolved once here and hot
    paths increment bound handles. Children that depend on runtime
    values (tenant, rung, kernel) go through small per-instance caches.

    ``labels`` adds fixed extra labels to every family (the cluster
    layer passes ``{"replica": name}``); every serving stack sharing one
    :class:`~repro.obs.telemetry.Telemetry` must use the same extra
    label *keys*, or family schemas would disagree.
    """

    REQUEST_EVENTS = ("arrived", "admitted", "rejected", "completed",
                      "deadline_miss", "dropped")
    ENGINE_EVENTS = ("batch", "timeout", "retry", "fault",
                     "degrade", "upgrade")

    def __init__(self, telemetry, labels: dict | None = None):
        self.telemetry = telemetry
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(sorted(self.labels))
        self._extra = tuple(self.labels[n] for n in names)
        self.suffix = ",".join(f"{k}={self.labels[k]}" for k in names)

        requests = telemetry.counter(
            "serve_requests_total",
            "requests by life-cycle event", ("event",) + names)
        engine_events = telemetry.counter(
            "serve_engine_events_total",
            "engine-internal events (batches, retries, transitions)",
            ("event",) + names)
        self._requests = {e: requests.child((e,) + self._extra)
                          for e in self.REQUEST_EVENTS}
        self._engine = {e: engine_events.child((e,) + self._extra)
                        for e in self.ENGINE_EVENTS}
        self._tenant_family = telemetry.counter(
            "serve_tenant_requests_total",
            "per-tenant requests by life-cycle event",
            ("tenant", "event") + names)
        self._breaker_family = telemetry.counter(
            "serve_breaker_transitions_total",
            "circuit-breaker transitions by rung and new state",
            ("rung", "state") + names)
        self._latency_family = telemetry.histogram(
            "serve_latency_ms", "end-to-end response latency",
            ("rung",) + names)
        self._queue_wait = telemetry.histogram(
            "serve_queue_wait_ms", "time between arrival and batch start",
            names).child(self._extra)
        self._batch_size = telemetry.histogram(
            "serve_batch_size", "formed micro-batch occupancy",
            names).child(self._extra)
        self._stops_family = telemetry.counter(
            "serve_batch_stops_total",
            "why micro-batch growth stopped", ("stop",) + names)
        self._kernel_family = telemetry.histogram(
            "kernel_latency_ms",
            "per-fused-kernel wall-clock latency of compiled forwards",
            ("kernel", "rung") + names)
        self.reestimate_total = telemetry.counter(
            "netcut_reestimate_total",
            "drift-triggered online latency re-estimations",
            names).child(self._extra)
        self.rebuild_total = telemetry.counter(
            "ladder_rebuild_total",
            "ladder re-syntheses (serving rung re-selected) after online "
            "re-estimation", names).child(self._extra)
        self._scale_family = telemetry.gauge(
            "netcut_estimate_scale",
            "online latency calibration scale per rung "
            "(1.0 = deployment artifact's table)", ("rung",) + names)

        gauge = telemetry.gauge
        self.queue_depth = gauge(
            "serve_queue_depth", "EDF queue depth", names).child(self._extra)
        self.rung_index = gauge(
            "serve_rung_index", "ladder cursor (0 = most accurate)",
            names).child(self._extra)
        self.recent_p99 = gauge(
            "serve_recent_p99_ms", "p99 latency over the recent window",
            names).child(self._extra)
        self.arrival_rate = gauge(
            "serve_arrival_rate_rps", "recent offered arrival rate",
            names).child(self._extra)
        self._share_family = gauge(
            "serve_admission_share",
            "tenant share of the recent admission window",
            ("tenant",) + names)
        self._fair_share_family = gauge(
            "serve_fair_share", "tenant weighted-fair admission guarantee",
            ("tenant",) + names)

        self._tenant_children: dict[tuple[str, str], Counter] = {}
        self._scale_children: dict = {}
        self._stop_children: dict[str, Counter] = {}
        self._latency_children: dict[str, LatencyHistogram] = {}
        self._kernel_children: dict[tuple[str, str], LatencyHistogram] = {}
        self.recent = deque(maxlen=256)

    # -- hot-path recording (called by ServerMetrics / Engine) ---------------
    def event(self, name: str) -> None:
        self._requests[name].increment()

    def engine_event(self, name: str) -> None:
        self._engine[name].increment()

    def tenant_event(self, tenant: str, event: str) -> None:
        child = self._tenant_children.get((tenant, event))
        if child is None:
            child = self._tenant_children[(tenant, event)] = \
                self._tenant_family.child((tenant, event) + self._extra)
        child.increment()

    def observe_response(self, rung: str | None, latency_ms: float,
                         queue_ms: float) -> None:
        key = rung or ""
        hist = self._latency_children.get(key)
        if hist is None:
            hist = self._latency_children[key] = \
                self._latency_family.child((key,) + self._extra)
        hist.observe(latency_ms)
        self._queue_wait.observe(queue_ms)
        self.recent.append(latency_ms)

    def observe_batch(self, size: int) -> None:
        self._engine["batch"].increment()
        self._batch_size.observe(size)

    def batch_stop(self, size: int, stop: str) -> None:
        """Batcher hook: count why batch growth stopped (labeled)."""
        child = self._stop_children.get(stop)
        if child is None:
            child = self._stop_children[stop] = \
                self._stops_family.child((stop,) + self._extra)
        child.increment()

    def observe_kernel(self, kernel: str, rung: str, ms: float) -> None:
        hist = self._kernel_children.get((kernel, rung))
        if hist is None:
            hist = self._kernel_children[(kernel, rung)] = \
                self._kernel_family.child((kernel, rung) + self._extra)
        hist.observe(ms)

    def breaker(self, rung: str, to_state: str) -> None:
        self._breaker_family.child(
            (rung, to_state) + self._extra).increment()

    def scale_gauge(self, rung: str):
        """The calibration-scale gauge for one rung."""
        gauge = self._scale_children.get(rung)
        if gauge is None:
            gauge = self._scale_children[rung] = \
                self._scale_family.child((rung,) + self._extra)
        return gauge

    def share_gauges(self, tenant: str):
        """The (admitted-share, fair-share) gauges for one tenant."""
        return (self._share_family.child((tenant,) + self._extra),
                self._fair_share_family.child((tenant,) + self._extra))

    def recent_quantile(self, q: float) -> float:
        """Quantile of the recent-latency window (the honest windowed p99).

        Exact over the retained window (at most 256 samples), unlike the
        run-cumulative histogram — which is the point: the gauge tracks
        *current* tail latency, so burn-rate windows see storms begin
        and end.
        """
        if not self.recent:
            return 0.0
        ordered = sorted(self.recent)
        rank = int(q * (len(ordered) - 1))
        return ordered[rank]


class ServerMetrics:
    """All counters and histograms of one serving run.

    Untagged (single-class) traffic populates only the run-wide counters;
    requests carrying a ``tenant`` additionally feed a per-tenant
    breakdown (arrivals, admissions, rejections, completions, misses,
    drops and a latency sum) surfaced under ``snapshot()["tenants"]`` —
    the observability needed to tell *whose* deadline a busy server is
    sacrificing.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) additionally mirrors
    every recording into labeled metric families via
    :class:`ServeTelemetry`; ``labels`` adds fixed labels (e.g.
    ``{"replica": "r1"}``) to every series. Snapshots and reports are
    identical with or without telemetry attached.
    """

    COUNTERS = ("arrived", "admitted", "rejected", "completed",
                "deadline_miss", "batches", "degrade_events",
                "upgrade_events", "dropped", "timeouts", "retries",
                "breaker_opens", "breaker_closes", "fault_events",
                "reestimates", "ladder_rebuilds")

    TENANT_COUNTERS = ("arrived", "admitted", "rejected", "completed",
                       "deadline_miss", "dropped")

    def __init__(self, deadline_ms: float, telemetry=None,
                 labels: dict | None = None):
        self.deadline_ms = deadline_ms
        self.counters = {name: Counter(name) for name in self.COUNTERS}
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.service = LatencyHistogram()
        self.batch_occupancy_sum = 0
        self.per_rung: dict[str, int] = {}
        self.tenants: dict[str, dict] = {}
        self.events: list[DegradationEvent] = []
        # rung inventory (name/builder/estimate/accuracy per rung), set by
        # the engine from TRNLadder.snapshot() at construction time
        self.ladder: list[dict] = []
        self.tele = None if telemetry is None \
            else ServeTelemetry(telemetry, labels)

    def set_ladder(self, rungs: list[dict]) -> None:
        """Record the serving ladder's rung inventory (see snapshot)."""
        self.ladder = [dict(r) for r in rungs]

    def _tenant(self, tenant: str) -> dict:
        if tenant not in self.tenants:
            self.tenants[tenant] = dict.fromkeys(self.TENANT_COUNTERS, 0)
            self.tenants[tenant]["latency_sum_ms"] = 0.0
        return self.tenants[tenant]

    # -- recording ----------------------------------------------------------
    def record_arrival(self, tenant: str | None = None) -> None:
        self.counters["arrived"].increment()
        if tenant is not None:
            self._tenant(tenant)["arrived"] += 1
        if self.tele is not None:
            self.tele.event("arrived")
            if tenant is not None:
                self.tele.tenant_event(tenant, "arrived")

    def record_rejection(self, tenant: str | None = None) -> None:
        self.counters["rejected"].increment()
        if tenant is not None:
            self._tenant(tenant)["rejected"] += 1
        if self.tele is not None:
            self.tele.event("rejected")
            if tenant is not None:
                self.tele.tenant_event(tenant, "rejected")

    def record_admission(self, tenant: str | None = None) -> None:
        self.counters["admitted"].increment()
        if tenant is not None:
            self._tenant(tenant)["admitted"] += 1
        if self.tele is not None:
            self.tele.event("admitted")
            if tenant is not None:
                self.tele.tenant_event(tenant, "admitted")

    def record_batch(self, size: int) -> None:
        self.counters["batches"].increment()
        self.batch_occupancy_sum += size
        if self.tele is not None:
            self.tele.observe_batch(size)

    def record_drop(self, tenant: str | None = None) -> None:
        """One admitted request dropped un-executed (drain or dead rungs)."""
        self.counters["dropped"].increment()
        if tenant is not None:
            self._tenant(tenant)["dropped"] += 1
        if self.tele is not None:
            self.tele.event("dropped")
            if tenant is not None:
                self.tele.tenant_event(tenant, "dropped")

    def record_timeout(self) -> None:
        """One batch execution cancelled at its timeout."""
        self.counters["timeouts"].increment()
        if self.tele is not None:
            self.tele.engine_event("timeout")

    def record_retry(self) -> None:
        """One batch re-executed on a faster rung after timeout/failure."""
        self.counters["retries"].increment()
        if self.tele is not None:
            self.tele.engine_event("retry")

    def record_breaker(self, to_state: str, rung: str = "") -> None:
        """One circuit-breaker transition (opens and closes counted)."""
        if to_state == "open":
            self.counters["breaker_opens"].increment()
        elif to_state == "closed":
            self.counters["breaker_closes"].increment()
        if self.tele is not None:
            self.tele.breaker(rung, to_state)

    def record_fault_event(self) -> None:
        """One fault window opening or closing under the engine."""
        self.counters["fault_events"].increment()
        if self.tele is not None:
            self.tele.engine_event("fault")

    def record_response(self, response) -> None:
        """Record one COMPLETED response (rejections use record_rejection)."""
        self.counters["completed"].increment()
        if not response.deadline_met:
            self.counters["deadline_miss"].increment()
        self.latency.observe(response.latency_ms)
        self.queue_wait.observe(max(response.queue_ms, 0.0))
        self.service.observe(response.service_ms)
        if response.rung is not None:
            self.per_rung[response.rung] = \
                self.per_rung.get(response.rung, 0) + 1
        if response.tenant is not None:
            bucket = self._tenant(response.tenant)
            bucket["completed"] += 1
            bucket["latency_sum_ms"] += response.latency_ms
            if not response.deadline_met:
                bucket["deadline_miss"] += 1
        if self.tele is not None:
            tele = self.tele
            tele.event("completed")
            if not response.deadline_met:
                tele.event("deadline_miss")
            tele.observe_response(response.rung, response.latency_ms,
                                  max(response.queue_ms, 0.0))
            if response.tenant is not None:
                tele.tenant_event(response.tenant, "completed")
                if not response.deadline_met:
                    tele.tenant_event(response.tenant, "deadline_miss")

    def record_transition(self, time_ms: float, direction: str,
                          from_rung: str, to_rung: str) -> None:
        key = "degrade_events" if direction == "degrade" else "upgrade_events"
        self.counters[key].increment()
        self.events.append(
            DegradationEvent(time_ms, direction, from_rung, to_rung))
        if self.tele is not None:
            self.tele.engine_event(direction)

    def record_reestimate(self) -> None:
        """One applied online re-estimation (latency tables rewritten)."""
        self.counters["reestimates"].increment()
        if self.tele is not None:
            self.tele.reestimate_total.increment()

    def record_rebuild(self, time_ms: float, from_rung: str,
                       to_rung: str) -> None:
        """One ladder rebuild: re-estimation moved the serving rung."""
        self.counters["ladder_rebuilds"].increment()
        self.events.append(
            DegradationEvent(time_ms, "rebuild", from_rung, to_rung))
        if self.tele is not None:
            self.tele.rebuild_total.increment()

    # -- read-out -----------------------------------------------------------
    @property
    def miss_rate(self) -> float:
        """Deadline misses as a fraction of completed requests."""
        done = self.counters["completed"].value
        return (self.counters["deadline_miss"].value / done
                if done else 0.0)

    @property
    def mean_batch_size(self) -> float:
        batches = self.counters["batches"].value
        return self.batch_occupancy_sum / batches if batches else float("nan")

    def tenant_miss_rate(self, tenant: str) -> float:
        """Deadline misses of one tenant as a fraction of its completions."""
        bucket = self.tenants.get(tenant)
        if not bucket or not bucket["completed"]:
            return 0.0
        return bucket["deadline_miss"] / bucket["completed"]

    def merge_tenants(self, other: dict[str, dict]) -> None:
        """Fold another run's per-tenant breakdown in (cluster roll-up)."""
        for name, bucket in other.items():
            mine = self._tenant(name)
            for key, value in bucket.items():
                mine[key] = mine.get(key, 0) + value

    def snapshot(self) -> dict:
        """The whole metrics surface as one JSON-able dict.

        The snapshot owns every container it returns (deep copy): callers
        may mutate it freely without corrupting the live metrics behind
        the next :meth:`report`. Telemetry mirrors are intentionally not
        included — the attached :class:`repro.obs.Telemetry` has its own
        ``snapshot()`` — so traced and untraced snapshots compare equal.
        """
        return copy.deepcopy({
            "deadline_ms": self.deadline_ms,
            "counters": {n: c.value for n, c in self.counters.items()},
            "miss_rate": self.miss_rate,
            "mean_batch_size": self.mean_batch_size,
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "service": self.service.snapshot(),
            "per_rung": dict(self.per_rung),
            "ladder": list(self.ladder),
            "tenants": {
                name: dict(bucket, miss_rate=(
                    bucket["deadline_miss"] / bucket["completed"]
                    if bucket["completed"] else 0.0))
                for name, bucket in sorted(self.tenants.items())},
            "transitions": [(e.time_ms, e.direction, e.from_rung, e.to_rung)
                            for e in self.events],
        })

    def report(self) -> str:
        """Human-readable metrics block (what ``repro serve`` prints)."""
        snap = self.snapshot()
        c = snap["counters"]
        lat = snap["latency"]
        lines = [
            f"deadline {self.deadline_ms:.3f} ms",
            f"requests: {c['arrived']} arrived, {c['admitted']} admitted, "
            f"{c['rejected']} rejected, {c['completed']} completed",
            f"deadline misses: {c['deadline_miss']} "
            f"(miss rate {100 * snap['miss_rate']:.2f}%)",
            f"latency ms: p50 {lat['p50_ms']:.3f}  p95 {lat['p95_ms']:.3f}  "
            f"p99 {lat['p99_ms']:.3f}  max {lat['max_ms']:.3f}",
            f"batches: {c['batches']} "
            f"(mean occupancy {snap['mean_batch_size']:.2f})",
            f"ladder: {c['degrade_events']} degrade / "
            f"{c['upgrade_events']} upgrade events",
        ]
        if any(c[k] for k in ("dropped", "timeouts", "retries",
                              "breaker_opens", "fault_events")):
            lines.append(
                f"resilience: {c['dropped']} dropped, {c['timeouts']} "
                f"timeouts, {c['retries']} retries, breaker "
                f"{c['breaker_opens']} opens / {c['breaker_closes']} "
                f"closes, {c['fault_events']} fault events")
        if c["reestimates"]:
            lines.append(
                f"online netcut: {c['reestimates']} re-estimations, "
                f"{c['ladder_rebuilds']} ladder rebuilds")
        if snap["per_rung"]:
            served = ", ".join(f"{name}: {n}"
                               for name, n in snap["per_rung"].items())
            lines.append(f"served by: {served}")
        for name, b in snap["tenants"].items():
            mean = (b["latency_sum_ms"] / b["completed"]
                    if b["completed"] else float("nan"))
            lines.append(
                f"tenant {name}: {b['arrived']} arrived, "
                f"{b['admitted']} admitted, {b['rejected']} rejected, "
                f"{b['completed']} completed; miss rate "
                f"{100 * b['miss_rate']:.2f}%, mean latency {mean:.3f} ms")
        return "\n".join(lines)
