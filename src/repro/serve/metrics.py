"""Serving metrics: every serving event counted once, in labeled families.

:class:`ServerMetrics` is the one recording path of a serving run. When
it is built it binds its children of the labeled metric families
(``serve_requests_total{event}``, ``serve_tenant_requests_total{tenant,
event}``, ``serve_latency_ms{rung}``, ...) in the caller's
:class:`repro.obs.Telemetry`, or in a private one that nothing samples
when the caller passes none. :meth:`ServerMetrics.snapshot` (a plain
dict, the monitoring surface) and :meth:`ServerMetrics.report` (the text
block the CLI prints) read those same children, so a count shown in the
snapshot and in the OpenMetrics exposition is one object.

Latencies go into fixed-memory log-spaced histograms whose quantiles
(p50/p95/p99) are read out of the bin boundaries, so memory stays
O(bins) no matter how long a trace runs.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

from repro.obs.telemetry import LatencyHistogram, Telemetry

__all__ = ["ServerMetrics"]


@dataclass
class DegradationEvent:
    """One ladder transition, recorded for post-hoc analysis."""

    time_ms: float
    direction: str          # "degrade" or "upgrade"
    from_rung: str
    to_rung: str


class _LabelSum:
    """A counter read-out over lazily bound children: the sum of those
    whose last label value is ``value`` (e.g. ``counters["breaker_opens"]``
    sums the ``{rung, state="open"}`` children). Reads 0 until one is
    bound, so the family shows no series before the event happens."""

    def __init__(self, children: dict, value: str):
        self._children = children
        self._value = value

    @property
    def value(self) -> int:
        return sum(child.value for key, child in self._children.items()
                   if key[-1] == self._value)


class ServerMetrics:
    """All counters and histograms of one serving run.

    Untagged (single-class) traffic populates only the run-wide counters;
    requests carrying a ``tenant`` additionally feed a per-tenant
    breakdown (arrivals, admissions, rejections, completions, misses,
    drops and a latency sum) surfaced under ``snapshot()["tenants"]`` —
    the observability needed to tell *whose* deadline a busy server is
    sacrificing.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) is where the labeled
    families live and what the engine samples; without one the families
    go into a private telemetry that is never sampled. ``labels`` adds
    fixed labels (e.g. ``{"replica": "r1"}``) to every series. A new
    instance starts its label set's children from zero, so on a
    telemetry shared across runs the families show the current run.
    Fixed-label children are bound here; those keyed by runtime values
    (tenant, rung, kernel, stop reason) are cached on first touch.
    """

    COUNTERS = ("arrived", "admitted", "rejected", "completed",
                "deadline_miss", "batches", "degrade_events",
                "upgrade_events", "dropped", "timeouts", "retries",
                "breaker_opens", "breaker_closes", "fault_events",
                "reestimates", "ladder_rebuilds")

    TENANT_COUNTERS = ("arrived", "admitted", "rejected", "completed",
                       "deadline_miss", "dropped")

    #: counter name -> its ``event`` in ``serve_engine_events_total``
    ENGINE_EVENTS = {"batches": "batch", "timeouts": "timeout",
                     "retries": "retry", "fault_events": "fault",
                     "degrade_events": "degrade",
                     "upgrade_events": "upgrade"}

    #: counter name -> its ``state`` in ``serve_breaker_transitions_total``
    BREAKER_STATES = {"breaker_opens": "open", "breaker_closes": "closed"}

    def __init__(self, deadline_ms: float, telemetry=None,
                 labels: dict | None = None):
        self.deadline_ms = deadline_ms
        self.telemetry = telemetry
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(sorted(self.labels))
        self._extra = tuple(self.labels[n] for n in names)
        self.suffix = ",".join(f"{k}={self.labels[k]}" for k in names)
        registry = Telemetry() if telemetry is None else telemetry

        def family(kind: str, name: str, help: str,
                   labelnames: tuple[str, ...] = ()):
            fam = getattr(registry, kind)(name, help, labelnames + names)
            fam.drop(self._extra)
            return fam

        requests = family(
            "counter", "serve_requests_total",
            "requests by life-cycle event", ("event",))
        engine_events = family(
            "counter", "serve_engine_events_total",
            "engine-internal events (batches, retries, transitions)",
            ("event",))
        self._tenant_family = family(
            "counter", "serve_tenant_requests_total",
            "per-tenant requests by life-cycle event", ("tenant", "event"))
        self._breaker_family = family(
            "counter", "serve_breaker_transitions_total",
            "circuit-breaker transitions by rung and new state",
            ("rung", "state"))
        self._latency_family = family(
            "histogram", "serve_latency_ms", "end-to-end response latency",
            ("rung",))
        self.queue_wait = family(
            "histogram", "serve_queue_wait_ms",
            "time between arrival and batch start").child(self._extra)
        self._batch_size = family(
            "histogram", "serve_batch_size",
            "formed micro-batch occupancy").child(self._extra)
        self._stops_family = family(
            "counter", "serve_batch_stops_total",
            "why micro-batch growth stopped", ("stop",))
        self._kernel_family = family(
            "histogram", "kernel_latency_ms",
            "per-fused-kernel wall-clock latency of compiled forwards",
            ("kernel", "rung"))
        reestimates = family(
            "counter", "netcut_reestimate_total",
            "drift-triggered online latency re-estimations")
        rebuilds = family(
            "counter", "ladder_rebuild_total",
            "ladder re-syntheses (serving rung re-selected) after online "
            "re-estimation")
        self._scale_family = family(
            "gauge", "netcut_estimate_scale",
            "online latency calibration scale per rung "
            "(1.0 = deployment artifact's table)", ("rung",))
        self.queue_depth = family(
            "gauge", "serve_queue_depth", "EDF queue depth").child(self._extra)
        self.rung_index = family(
            "gauge", "serve_rung_index",
            "ladder cursor (0 = most accurate)").child(self._extra)
        self.recent_p99 = family(
            "gauge", "serve_recent_p99_ms",
            "p99 latency over the recent window").child(self._extra)
        self.arrival_rate = family(
            "gauge", "serve_arrival_rate_rps",
            "recent offered arrival rate").child(self._extra)
        self._share_family = family(
            "gauge", "serve_admission_share",
            "tenant share of the recent admission window", ("tenant",))
        self._fair_share_family = family(
            "gauge", "serve_fair_share",
            "tenant weighted-fair admission guarantee", ("tenant",))

        # this run's lazily bound children, keyed by their own label values
        self._breakers: dict = {}
        self._rung_latency: dict = {}
        self._tenant_counts: dict = {}
        self._stops: dict = {}
        self._kernels: dict = {}
        self._scales: dict = {}
        bound = {e: requests.child((e,) + self._extra)
                 for e in self.TENANT_COUNTERS}
        for name, event in self.ENGINE_EVENTS.items():
            bound[name] = engine_events.child((event,) + self._extra)
        bound["reestimates"] = reestimates.child(self._extra)
        bound["ladder_rebuilds"] = rebuilds.child(self._extra)
        for name, state in self.BREAKER_STATES.items():
            bound[name] = _LabelSum(self._breakers, state)
        self.counters = {name: bound[name] for name in self.COUNTERS}

        # recorded once: only the snapshot shows these
        self.latency = LatencyHistogram()
        self.service = LatencyHistogram()
        self._tenant_latency: dict[str, float] = {}
        self.events: list[DegradationEvent] = []
        # the window behind the serve_recent_p99_ms gauge
        self.recent = deque(maxlen=256)
        # rung inventory (name/builder/estimate/accuracy per rung), set by
        # the engine from TRNLadder.snapshot() at construction time
        self.ladder: list[dict] = []

    def _bound(self, cache: dict, family, key: tuple):
        """This run's child of ``family`` for ``key`` (resolved once)."""
        child = cache.get(key)
        if child is None:
            child = cache[key] = family.child(key + self._extra)
        return child

    def _rung_hist(self, rung: str):
        """This run's ``serve_latency_ms`` child for ``rung``."""
        hist = self._rung_latency.get(rung)
        if hist is None:
            hist = self._rung_latency[rung] = \
                self._latency_family.child((rung,) + self._extra)
        return hist

    def set_ladder(self, rungs: list[dict]) -> None:
        """Record the serving ladder's rung inventory (see snapshot)."""
        self.ladder = [dict(r) for r in rungs]

    def _tenant_event(self, tenant: str, event: str, n: int = 1) -> None:
        self._tenant_latency.setdefault(tenant, 0.0)
        self._bound(self._tenant_counts, self._tenant_family,
                    (tenant, event)).increment(n)

    # -- recording ----------------------------------------------------------
    def record_arrival(self, tenant: str | None = None) -> None:
        self.counters["arrived"].increment()
        if tenant is not None:
            self._tenant_event(tenant, "arrived")

    def record_rejection(self, tenant: str | None = None) -> None:
        self.counters["rejected"].increment()
        if tenant is not None:
            self._tenant_event(tenant, "rejected")

    def record_admission(self, tenant: str | None = None) -> None:
        self.counters["admitted"].increment()
        if tenant is not None:
            self._tenant_event(tenant, "admitted")

    def record_batch(self, size: int) -> None:
        self.counters["batches"].increment()
        self._batch_size.observe(size)

    def record_drop(self, tenant: str | None = None) -> None:
        """One admitted request dropped un-executed (drain or dead rungs)."""
        self.counters["dropped"].increment()
        if tenant is not None:
            self._tenant_event(tenant, "dropped")

    def record_timeout(self) -> None:
        """One batch execution cancelled at its timeout."""
        self.counters["timeouts"].increment()

    def record_retry(self) -> None:
        """One batch re-executed on a faster rung after timeout/failure."""
        self.counters["retries"].increment()

    def record_breaker(self, to_state: str, rung: str = "") -> None:
        """One circuit-breaker transition of ``rung`` into ``to_state``."""
        self._bound(self._breakers, self._breaker_family,
                    (rung, to_state)).increment()

    def record_fault_event(self) -> None:
        """One fault window opening or closing under the engine."""
        self.counters["fault_events"].increment()

    def record_response(self, response) -> None:
        """Record one COMPLETED response (rejections use record_rejection)."""
        met = response.deadline_met
        latency_ms = response.latency_ms
        self.counters["completed"].increment()
        if not met:
            self.counters["deadline_miss"].increment()
        self.latency.observe(latency_ms)
        self.queue_wait.observe(max(response.queue_ms, 0.0))
        self.service.observe(response.service_ms)
        self._rung_hist(response.rung).observe(latency_ms)
        self.recent.append(latency_ms)
        tenant = response.tenant
        if tenant is not None:
            self._tenant_event(tenant, "completed")
            self._tenant_latency[tenant] += latency_ms
            if not met:
                self._tenant_event(tenant, "deadline_miss")

    def record_transition(self, time_ms: float, direction: str,
                          from_rung: str, to_rung: str) -> None:
        key = "degrade_events" if direction == "degrade" else "upgrade_events"
        self.counters[key].increment()
        self.events.append(
            DegradationEvent(time_ms, direction, from_rung, to_rung))

    def record_reestimate(self) -> None:
        """One applied online re-estimation (latency tables rewritten)."""
        self.counters["reestimates"].increment()

    def record_rebuild(self, time_ms: float, from_rung: str,
                       to_rung: str) -> None:
        """One ladder rebuild: re-estimation moved the serving rung."""
        self.counters["ladder_rebuilds"].increment()
        self.events.append(
            DegradationEvent(time_ms, "rebuild", from_rung, to_rung))

    # -- engine hooks (exposition only) -------------------------------------
    def batch_stop(self, size: int, stop: str) -> None:
        """Batcher hook: count why batch growth stopped."""
        self._bound(self._stops, self._stops_family, (stop,)).increment()

    def observe_kernel(self, kernel: str, rung: str, ms: float) -> None:
        """One compiled kernel's mean wall-clock time in one batch."""
        self._bound(self._kernels, self._kernel_family,
                    (kernel, rung)).observe(ms)

    def scale_gauge(self, rung: str):
        """The calibration-scale gauge for one rung."""
        return self._bound(self._scales, self._scale_family, (rung,))

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

    # -- read-out -----------------------------------------------------------
    @property
    def batch_occupancy_sum(self) -> int:
        """Requests over all formed batches (the batch-size total)."""
        return int(self._batch_size.total_ms)

    @property
    def per_rung(self) -> dict[str, int]:
        """Completions per serving rung, in first-served order."""
        return {rung: hist.count for rung, hist in self._rung_latency.items()}

    @property
    def tenants(self) -> dict[str, dict]:
        """Per-tenant buckets: life-cycle counts plus ``latency_sum_ms``."""
        out = {}
        for tenant, latency_sum in self._tenant_latency.items():
            bucket = {}
            for event in self.TENANT_COUNTERS:
                child = self._tenant_counts.get((tenant, event))
                bucket[event] = 0 if child is None else child.value
            bucket["latency_sum_ms"] = latency_sum
            out[tenant] = bucket
        return out

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
        for tenant, bucket in other.items():
            self._tenant_latency[tenant] = \
                self._tenant_latency.get(tenant, 0.0) + bucket["latency_sum_ms"]
            for event in self.TENANT_COUNTERS:
                if bucket[event]:
                    self._tenant_event(tenant, event, bucket[event])

    def _merge(self, other: ServerMetrics) -> None:
        """Fold another run's metrics into this one (the cluster roll-up).

        Counts add and histograms merge bin-exactly; transitions are
        appended, so the caller orders them.
        """
        for name in self.COUNTERS:
            if name not in self.BREAKER_STATES:
                self.counters[name].increment(other.counters[name].value)
        for key, child in other._breakers.items():
            self._bound(self._breakers, self._breaker_family,
                        key).increment(child.value)
        for rung, hist in other._rung_latency.items():
            self._rung_hist(rung).merge(hist)
        self.latency.merge(other.latency)
        self.queue_wait.merge(other.queue_wait)
        self.service.merge(other.service)
        self._batch_size.merge(other._batch_size)
        self.merge_tenants(other.tenants)
        self.events.extend(other.events)

    def snapshot(self) -> dict:
        """The whole metrics surface as one JSON-able dict.

        The snapshot owns every container it returns (deep copy): callers
        may mutate it freely without corrupting the live metrics behind
        the next :meth:`report`. The exposition-only families (gauges,
        kernel and batch-stop counts) are not included — the telemetry
        has its own ``snapshot()`` — so traced and untraced snapshots
        compare equal.
        """
        return copy.deepcopy({
            "deadline_ms": self.deadline_ms,
            "counters": {n: c.value for n, c in self.counters.items()},
            "miss_rate": self.miss_rate,
            "mean_batch_size": self.mean_batch_size,
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "service": self.service.snapshot(),
            "per_rung": self.per_rung,
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
