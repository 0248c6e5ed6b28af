"""The serving engine: admission → EDF queue → micro-batch → TRN ladder.

A discrete-event loop over virtual time (milliseconds). Requests are
drained from the trace into a bounded EDF queue under admission control
(anything whose deadline is already un-meetable per the latency estimator
is rejected before consuming compute); the engine then repeatedly forms a
deadline-safe micro-batch, executes it on the ladder's current rung —
service time drawn from the device's per-request measurement hook
(:class:`repro.device.runtime.ServiceTimeSampler`) — and feeds observed
response times to the hysteresis controller, degrading to a faster TRN
when the windowed p99 threatens the deadline and upgrading back when both
the observed latencies and the predicted utilisation of the slower rung
allow it.

With ``ServerConfig(resilience=True)`` the engine also defends the
deadline against a *misbehaving device* (see :mod:`repro.faults`): each
batch execution carries a timeout (a multiple of its predicted latency);
an attempt that would overrun it is cancelled — its timeout cost is paid
on the clock — and retried on a faster rung; per-rung circuit breakers
open after ``breaker_threshold`` consecutive timeouts/failures, taking
the rung out of rotation until a cooldown expires and a half-open probe
batch succeeds; and when every usable rung is broken the engine falls
back to the fastest rung outright, shedding accuracy instead of missing
deadlines or crashing. A batch is dropped (counted, never lost) only
when even the fastest rung hard-fails.

With ``ServerConfig(online_reestimation=True)`` the engine additionally
keeps the latency model itself honest: drift events from the
:class:`repro.obs.DriftMonitor` feed a
:class:`repro.netcut.online.ReestimationController` that re-fits every
rung's latency table from live observed service times and re-runs
NetCut's greedy rung selection over the updated estimates — Algorithm 1
running continuously inside the serving loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.faults.resilience import CircuitBreaker, HealthProbe, \
    RungFailureError

from .batcher import MicroBatcher
from .ladder import HysteresisController, TRNLadder
from .metrics import ServerMetrics
from .queue import EDFQueue
from .request import COMPLETED, DROPPED, REJECTED, Request, Response

__all__ = ["ServerConfig", "Engine"]

UPGRADE_UTILIZATION = 0.75  # max predicted rho on the slower rung
RATE_WINDOW = 64            # arrivals used for rate estimation


@dataclass
class ServerConfig:
    """Every knob of the serving stack, with real-time-friendly defaults."""

    deadline_ms: float = 0.9          # the robotic hand's budget
    queue_capacity: int = 128
    max_batch: int = 8
    admission_control: bool = True
    admission_policy: object | None = None  # e.g. WeightedFairAdmission
    adaptive: bool = True             # TRN-ladder degradation on/off
    window: int = 32                  # controller sliding window (requests)
    min_observations: int = 16
    cooldown: int = 16
    upgrade_ratio: float = 0.5
    upgrade_cooldown: int | None = None  # default 4x cooldown (lazy upgrades)
    execute: bool = True              # run real forwards (False = timing only)
    kernel_timing: bool = False       # time compiled kernels per batch
    seed: int = 0
    # -- online NetCut (see repro.netcut.online) ----------------------------
    online_reestimation: bool = False  # drift -> re-fit -> ladder rebuild
    reestimate_cooldown_ms: float = 25.0  # min virtual time between fits
    reestimate_min_samples: int = 8   # fresh batches required per fit
    reestimate_method: str = "ratio"  # "ratio" or "svr"
    reestimate_max_samples: int = 64  # per-rung fit buffer (forgetting)
    # -- resilience (see repro.faults) --------------------------------------
    resilience: bool = False          # timeouts/retries/breakers on or off
    exec_timeout_factor: float = 2.5  # batch timeout = factor x predicted
    max_retries: int = 3              # abandoned attempts per batch
    breaker_threshold: int = 3        # consecutive failures that open
    breaker_cooldown_ms: float = 25.0  # open -> half-open probe delay


class Engine:
    """Runs one trace through the queue/batcher/ladder pipeline.

    ``tracer`` and ``drift`` are optional observability hooks
    (:class:`repro.obs.Tracer` / :class:`repro.obs.DriftMonitor`, or
    anything duck-compatible). The tracer receives one span per request
    life-cycle step over the virtual clock (``enqueue`` from the queue,
    ``batch`` from the batcher, ``admit``/``drop``/``forward``/``respond``
    from the engine); the drift monitor is fed every executed batch's
    predicted vs. observed service time, and any drift event it raises is
    traced as a ``drift`` span. With both left ``None`` the hot path is
    identical to the untraced engine.
    """

    def __init__(self, ladder: TRNLadder, config: ServerConfig,
                 metrics: ServerMetrics, tracer=None, drift=None,
                 faults=None):
        self.ladder = ladder
        self.config = config
        self.metrics = metrics
        self.tracer = tracer
        # bound-method cache for the per-request spans; rare spans (ladder
        # transitions, drift events) go through self.tracer directly
        self._emit = None if tracer is None else tracer.emit
        self.drift = drift
        self.faults = faults
        if faults is not None:
            # rewind the chaos scenario: a fresh engine replays the same
            # failures at the same virtual times (run-level determinism)
            faults.reset()
        self.breakers: dict[str, CircuitBreaker] = {}
        if config.resilience:
            self.breakers = {
                rung.name: CircuitBreaker(
                    rung.name, threshold=config.breaker_threshold,
                    cooldown_ms=config.breaker_cooldown_ms,
                    listener=self._on_breaker_event)
                for rung in ladder.rungs}
        # the engine wires its components against the metrics' bound
        # children; only a telemetry the caller attached is ever sampled
        self._telemetry = metrics.telemetry
        self.queue = EDFQueue(config.queue_capacity, tracer=tracer)
        self.batcher = MicroBatcher(config.max_batch, tracer=tracer,
                                    on_form=metrics.batch_stop)
        self.controller = (HysteresisController(
            config.deadline_ms, window=config.window,
            min_observations=config.min_observations,
            cooldown=config.cooldown, upgrade_ratio=config.upgrade_ratio,
            upgrade_cooldown=config.upgrade_cooldown)
            if config.adaptive else None)
        self._arrivals: deque[float] = deque(maxlen=RATE_WINDOW)
        self.admission_policy = config.admission_policy
        if self.admission_policy is not None:
            # fresh share window: a policy object may be reused across
            # runs (and across a cluster's replicas), but each engine's
            # admissions must start from a clean slate
            self.admission_policy.reset()
        # online re-estimation rewrites rung latency beliefs in place and
        # ladders are reused across runs, so every fresh engine restores
        # the deployment artifact's tables (and their ordering) first —
        # one (ladder, config, trace) tuple always replays identically,
        # whether or not a previous run recalibrated
        recalibrated = False
        for rung in ladder.rungs:
            if getattr(rung, "estimate_scale", 1.0) != 1.0:
                rung.recalibrate(1.0)
                recalibrated = True
        if recalibrated and hasattr(ladder, "resort"):
            ladder.resort()
        # record the rung inventory (names, builder tags, deployment-time
        # estimates) on the metrics surface after the belief restore above,
        # so every run's snapshot reports the same deployment ladder
        if hasattr(ladder, "snapshot"):
            metrics.set_ladder(ladder.snapshot())
        self.reestimator = None
        if config.online_reestimation:
            # lazy import: the engine must not pull the netcut package
            # (training/deploy stack) unless the loop is actually closed
            from repro.netcut.online import ReestimationController
            if self.drift is None:
                from repro.obs.drift import DriftMonitor
                self.drift = DriftMonitor()
            self.reestimator = ReestimationController(
                config.deadline_ms,
                cooldown_ms=config.reestimate_cooldown_ms,
                min_samples=config.reestimate_min_samples,
                method=config.reestimate_method,
                max_samples_per_rung=config.reestimate_max_samples)
        ladder.reseed(config.seed)
        for rung in ladder.rungs:
            # the paper's 200-run warm-up, so serving starts past the
            # clock ramp instead of degrading on cold-start stragglers
            rung.sampler.warm_up(200)
        self._kernel_timing = False
        if config.kernel_timing:
            for rung in ladder.rungs:
                net = getattr(rung, "network", None)
                compiled = None if net is None else net.compile()
                if compiled is not None:
                    compiled.enable_timing()
                    self._kernel_timing = True
        if self._telemetry is not None:
            # keyed registration: a fresh engine on the same telemetry
            # (next run, or this replica rebuilt) replaces its
            # predecessor's collector instead of piling up stale ones
            self._telemetry.collector(
                "engine:" + metrics.suffix, self._collect_telemetry)

    # -- admission -----------------------------------------------------------
    def _admission_estimate_ms(self) -> float:
        """Best-case service estimate used to detect un-meetable deadlines."""
        rung = self.ladder.fastest if self.config.adaptive \
            else self.ladder.current
        return rung.estimate_ms(1)

    def _admit(self, pending: deque, now_ms: float,
               responses: dict[int, Response]) -> None:
        while pending and pending[0].arrival_ms <= now_ms:
            req: Request = pending.popleft()
            self.metrics.record_arrival(req.tenant)
            self._arrivals.append(req.arrival_ms)
            reason = None
            if self.config.admission_control:
                start = max(now_ms, req.arrival_ms)
                if start + self._admission_estimate_ms() > req.abs_deadline_ms:
                    reason = "unmeetable-deadline"
            if (reason is None and self.admission_policy is not None
                    and not self.admission_policy.allow(
                        req, len(self.queue), self.queue.capacity)):
                # over its weighted-fair share while the queue is contended
                reason = "tenant-over-share"
            if (reason is None and self.faults is not None
                    and len(self.queue) >=
                    self.faults.effective_capacity(self.queue.capacity)):
                # saturation fault: only part of the queue is usable
                reason = "queue-full"
            if reason is None and not self.queue.push(req, now_ms=now_ms):
                reason = "queue-full"
            if reason is None:
                self.metrics.record_admission(req.tenant)
                if self.admission_policy is not None:
                    self.admission_policy.record(req)
                if self._emit is not None:
                    self._emit("admit", "serve", now_ms, 0.0, req.rid,
                               None if req.tenant is None
                               else {"tenant": req.tenant})
            else:
                responses[req.rid] = Response(
                    req.rid, REJECTED, req.arrival_ms, req.abs_deadline_ms,
                    reject_reason=reason, tenant=req.tenant)
                self.metrics.record_rejection(req.tenant)
                if self._emit is not None:
                    args = {"reason": reason}
                    if req.tenant is not None:
                        args["tenant"] = req.tenant
                    self._emit("drop", "serve", now_ms, 0.0, req.rid, args)

    # -- telemetry -----------------------------------------------------------
    def _collect_telemetry(self, now_ms: float) -> None:
        """Refresh the engine's gauges just before a telemetry sample.

        Every gauge — queue depth, ladder cursor, windowed p99, offered
        rate, tenant shares — is read off live state here, once per
        sample instead of once per request.
        """
        m = self.metrics
        m.queue_depth.set(float(len(self.queue)))
        m.rung_index.set(float(self.ladder.current_index))
        m.recent_p99.set(m.recent_quantile(0.99))
        rate = self._recent_rate_per_ms()
        m.arrival_rate.set(0.0 if rate is None else rate * 1e3)
        policy = self.admission_policy
        if policy is not None and hasattr(policy, "share_of"):
            for tenant in sorted(policy.weights):
                share, fair = m.share_gauges(tenant)
                share.set(policy.share_of(tenant))
                fair.set(policy.fair_share_of(tenant))
        if self.reestimator is not None:
            for rung in self.ladder.rungs:
                m.scale_gauge(rung.name).set(rung.estimate_scale)

    def _record_kernel_times(self, rung) -> None:
        """Drain one executed batch's per-kernel wall-clock times.

        ``drain_kernel_times`` returns ``{step name: (calls, total_ms)}``
        accumulated since the previous drain; the mean per call goes into
        the ``kernel_latency_ms{kernel, rung}`` histogram — the same
        per-anchor granularity :class:`repro.device.profiler.LatencyTable`
        uses, so drift monitoring and ladder rebuilds can consume it.
        """
        net = getattr(rung, "network", None)
        compiled = None if net is None else net._compiled
        if compiled is None or not compiled.timing_enabled:
            return
        for name, (calls, total_ms) in compiled.drain_kernel_times().items():
            self.metrics.observe_kernel(name, rung.name, total_ms / calls)

    # -- ladder control ------------------------------------------------------
    def _recent_rate_per_ms(self) -> float | None:
        if len(self._arrivals) < 2:
            return None
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0:
            return None
        return (len(self._arrivals) - 1) / span

    def _upgrade_is_safe(self) -> bool:
        """Would the slower rung stay stable under the observed load?

        Predicted utilisation = arrival rate x per-request service time at
        the observed batch occupancy. Gating upgrades on this keeps the
        ladder from climbing straight back into an overload it just
        escaped (the controller's window only sees the fast rung's easy
        latencies, so it cannot make this call alone).
        """
        slower = self.ladder.peek_slower()
        if slower is None:
            return False
        rate = self._recent_rate_per_ms()
        if rate is None:
            return True
        b = self._observed_batch()
        per_request_ms = slower.estimate_ms(b) / b
        return rate * per_request_ms <= UPGRADE_UTILIZATION

    def _observed_batch(self) -> int:
        occupancy = self.metrics.mean_batch_size
        return max(1, int(round(occupancy))) if occupancy == occupancy else 1

    def _degrade_to_stable(self) -> None:
        """Step down until the predicted utilisation is stable.

        Descending one rung per controller decision costs a full cooldown
        of misses per step while the backlog keeps growing; instead, jump
        straight to the first rung whose service rate beats the observed
        arrival rate (with the upgrade margin as the stability target), or
        to the fastest rung when none does.
        """
        rate = self._recent_rate_per_ms()
        self.ladder.degrade()
        if rate is None:
            return
        b = self._observed_batch()
        while self.ladder.can_degrade:
            per_request_ms = self.ladder.current.estimate_ms(b) / b
            if rate * per_request_ms <= UPGRADE_UTILIZATION:
                break
            self.ladder.degrade()

    def _apply_policy(self, latency_ms: float, now_ms: float) -> None:
        if self.controller is None:
            return
        decision = self.controller.observe(latency_ms)
        if decision == "degrade" and self.ladder.can_degrade:
            frm = self.ladder.current.name
            self._degrade_to_stable()
            self.metrics.record_transition(now_ms, "degrade", frm,
                                           self.ladder.current.name)
            self.controller.notify_transition()
            self._trace_transition("degrade", now_ms, frm)
        elif (decision == "upgrade" and self.ladder.can_upgrade
                and self._upgrade_is_safe()):
            frm = self.ladder.current.name
            self.ladder.upgrade()
            self.metrics.record_transition(now_ms, "upgrade", frm,
                                           self.ladder.current.name)
            self.controller.notify_transition()
            self._trace_transition("upgrade", now_ms, frm)

    def _trace_transition(self, direction: str, now_ms: float,
                          frm: str) -> None:
        if self.tracer is not None:
            self.tracer.instant(direction, "ladder", now_ms, frm=frm,
                                to=self.ladder.current.name)

    # -- resilience ----------------------------------------------------------
    def _on_breaker_event(self, event) -> None:
        """Count and trace one circuit-breaker transition."""
        self.metrics.record_breaker(event.to_state, event.rung)
        if self.tracer is not None:
            self.tracer.instant("breaker", "faults", event.time_ms,
                                rung=event.rung, frm=event.from_state,
                                to=event.to_state, reason=event.reason)

    def _tick_faults(self, now_ms: float) -> None:
        """Advance the injector clock; trace fault windows opening/closing."""
        for event in self.faults.tick(now_ms):
            self.metrics.record_fault_event()
            if self.tracer is not None:
                self.tracer.instant("fault", "faults", now_ms,
                                    fault=event.fault, phase=event.phase)

    def _select_rung(self, now_ms: float):
        """The rung the next batch should target.

        Without resilience this is the ladder cursor. With it, rungs whose
        breaker is open are skipped *downwards* (faster), because a faster
        rung can serve the slower rung's traffic (at lower accuracy) while
        the reverse re-breaks the deadline. With every breaker refusing,
        fall back to the fastest rung outright — the last-resort path.
        """
        if not self.config.resilience:
            return self.ladder.current
        for i in range(self.ladder.current_index, len(self.ladder)):
            rung = self.ladder.rungs[i]
            if self.breakers[rung.name].allow(now_ms):
                return rung
        return self.ladder.fastest

    def _retry_rung(self, failed, now_ms: float):
        """The next faster rung to retry on (None when nothing is faster)."""
        start = self.ladder.rungs.index(failed) + 1
        for i in range(start, len(self.ladder)):
            rung = self.ladder.rungs[i]
            if self.breakers[rung.name].allow(now_ms):
                return rung
        # every faster breaker is open; the fastest rung is still a better
        # bet than replaying the rung that just failed
        return self.ladder.fastest if failed is not self.ladder.fastest \
            else None

    def _execute(self, batch: list, rung, now_ms: float):
        """Run one batch, resiliently when configured.

        Returns ``(rung, service_ms, exec_start_ms)`` — the rung that
        actually served the batch, its sampled service time, and when that
        final attempt started (later than ``now_ms`` when cancelled
        attempts paid their timeouts first). ``service_ms`` is ``None``
        when the batch could not run anywhere (dropped by the caller).
        """
        if not self.config.resilience:
            return rung, rung.sample_service_ms(len(batch)), now_ms
        t = now_ms
        attempts = 0
        while True:
            breaker = self.breakers[rung.name]
            try:
                service_ms = rung.sample_service_ms(len(batch))
            except RungFailureError:
                breaker.record_failure(t, "failure")
                if self._emit is not None:
                    self._emit("rung-failure", "faults", t, 0.0, None,
                               {"rung": rung.name, "size": len(batch)})
                nxt = self._retry_rung(rung, t)
                if nxt is None:
                    return rung, None, t     # nothing can run this batch
                self.metrics.record_retry()
                rung = nxt
                attempts += 1
                continue
            timeout_ms = self.config.exec_timeout_factor \
                * rung.estimate_ms(len(batch))
            if service_ms > timeout_ms and attempts < self.config.max_retries:
                # cancel at the timeout: the cost is bounded at timeout_ms
                # instead of the full straggler latency. A timeout is a
                # stochastic straggler (unlike a hard failure), so when no
                # faster rung exists the same rung is re-rolled in place —
                # paying the timeout for a fresh draw beats riding out a
                # many-x straggler in expectation.
                nxt = self._retry_rung(rung, t) or rung
                breaker.record_failure(t, "timeout")
                self.metrics.record_timeout()
                self.metrics.record_retry()
                if self._emit is not None:
                    self._emit("timeout", "faults", t, timeout_ms, None,
                               {"rung": rung.name, "size": len(batch),
                                "sampled_ms": float(service_ms)})
                t += timeout_ms
                rung = nxt
                attempts += 1
                continue
            breaker.record_success(t)
            return rung, service_ms, t

    def _drop_batch(self, batch: list, now_ms: float,
                    responses: dict[int, Response], reason: str) -> None:
        """Count a batch that could not execute anywhere as drops."""
        for req in batch:
            responses[req.rid] = Response(
                req.rid, DROPPED, req.arrival_ms, req.abs_deadline_ms,
                reject_reason=reason, tenant=req.tenant)
            self.metrics.record_drop(req.tenant)
            if self._emit is not None:
                self._emit("drop", "serve", now_ms, 0.0, req.rid,
                           {"reason": reason})

    def drain(self, now_ms: float) -> list[Response]:
        """Drop every queued request (shutdown); counted, never lost.

        Each drained request becomes a ``DROPPED`` response and increments
        the ``dropped`` counter, keeping the conservation law
        ``completed + dropped == admitted`` intact through shutdown — even
        when the queue backed up behind an open circuit breaker.
        """
        dropped = []
        for req in self.queue.drain():
            resp = Response(req.rid, DROPPED, req.arrival_ms,
                            req.abs_deadline_ms, reject_reason="drained",
                            tenant=req.tenant)
            self.metrics.record_drop(req.tenant)
            if self._emit is not None:
                self._emit("drop", "serve", now_ms, 0.0, req.rid,
                           {"reason": "drained"})
            dropped.append(resp)
        return dropped

    def probe_health(self, slow_factor: float = 3.0) -> list:
        """Actively probe every rung (see :class:`repro.faults.HealthProbe`).

        Off the serving path, but it consumes measurement-RNG draws —
        probe before or after a run, not in the middle of one, if the run
        must stay bit-for-bit reproducible.
        """
        return HealthProbe(slow_factor).probe_ladder(self.ladder)

    # -- the event loop ------------------------------------------------------
    def available_rung(self, now_ms: float):
        """The rung the next batch would target, without side effects.

        The routing-layer counterpart of :meth:`_select_rung`: breaker
        states are *read*, never advanced (``would_allow``), so a cluster
        router may probe any number of replicas for latency estimates
        without consuming half-open probe slots. Returns ``None`` when
        every usable rung's breaker refuses — the caller should treat the
        engine as unhealthy rather than schedule against the last-resort
        fastest-rung fallback.
        """
        if not self.config.resilience:
            return self.ladder.current
        for i in range(self.ladder.current_index, len(self.ladder)):
            rung = self.ladder.rungs[i]
            if self.breakers[rung.name].would_allow(now_ms):
                return rung
        return None

    def _serve_step(self, now: float, responses: dict[int, Response]) -> float:
        """Form, execute and respond to one micro-batch; returns the clock.

        The queue must be non-empty. The returned time is the batch finish
        (or the failed attempts' cost when the batch was dropped) — the
        caller's new ``now``.
        """
        rung = self._select_rung(now)
        batch = self.batcher.form(self.queue, now, rung)
        rung, service_ms, exec_start = self._execute(batch, rung, now)
        if service_ms is None:
            # even the fastest rung hard-failed: shed the batch
            self._drop_batch(batch, exec_start, responses, "rung-failed")
            return max(now, exec_start)
        finish = exec_start + service_ms
        outputs = None
        if self.config.execute and all(r.x is not None for r in batch):
            outputs = rung.forward([r.x for r in batch])
            if self._kernel_timing and self._telemetry is not None:
                self._record_kernel_times(rung)
        self.metrics.record_batch(len(batch))
        if self._emit is not None:
            # a tuple of ints (unlike a list) leaves the span record
            # GC-untrackable, keeping collector sweeps off the buffer
            self._emit("forward", "serve", exec_start, service_ms, None,
                       {"rung": rung.name, "size": len(batch),
                        "rids": tuple(r.rid for r in batch)})
        # one (prediction, observation) pair per executed batch: every
        # member shares the batch's estimate and measured time, so
        # feeding it per member would fill the drift window with
        # duplicates of the same evidence. The executed rung's own
        # estimate is compared (not the originally selected rung's),
        # so retries don't masquerade as estimator drift.
        predicted_ms = rung.estimate_ms(len(batch))
        event = self._observe_drift(predicted_ms, service_ms, finish,
                                    rung.name)
        if self.reestimator is not None:
            self.reestimator.record(rung.name, len(batch), predicted_ms,
                                    service_ms)
            if event is not None:
                self._apply_reestimation(event, finish)
        for i, req in enumerate(batch):
            # start_ms stays the batch-formation time: service_ms and
            # latency_ms then include cancelled-attempt overhead, so
            # the controller reacts to what requests actually endured
            resp = Response(
                req.rid, COMPLETED, req.arrival_ms, req.abs_deadline_ms,
                rung=rung.name, start_ms=now, finish_ms=finish,
                batch_size=len(batch),
                output=None if outputs is None else outputs[i],
                tenant=req.tenant)
            responses[req.rid] = resp
            self.metrics.record_response(resp)
            if self._emit is not None:
                args = {"latency_ms": resp.latency_ms,
                        "met": bool(resp.deadline_met)}
                if req.tenant is not None:
                    args["tenant"] = req.tenant
                self._emit("respond", "serve", finish, 0.0, req.rid, args)
            self._apply_policy(resp.latency_ms, finish)
        return finish

    def run_until(self, pending: deque, responses: dict[int, Response],
                  now_ms: float, until_ms: float = float("inf")) -> float:
        """Advance the admit/batch/execute loop as far as ``until_ms`` allows.

        The steppable core of :meth:`run`, and the hook
        :class:`repro.cluster.Replica` drives: ``pending`` holds routed
        requests sorted by arrival, and the loop admits and serves them
        exactly as the single-node engine would — but never *starts* work
        at or past ``until_ms``, so an external dispatcher can interleave
        new arrivals at their true virtual times. Returns the engine
        clock (the time the last batch finished, or ``now_ms`` untouched
        when there was nothing to do before the horizon).
        """
        now = now_ms
        while pending or len(self.queue):
            if not len(self.queue) and pending \
                    and pending[0].arrival_ms > now:
                now = pending[0].arrival_ms      # idle until the next arrival
            if now >= until_ms:
                break
            if self.faults is not None:
                self._tick_faults(now)
            self._admit(pending, now, responses)
            if len(self.queue):
                now = self._serve_step(now, responses)
            if self._telemetry is not None:
                self._telemetry.maybe_sample(now)
        return now

    def run(self, trace: list[Request],
            stop_ms: float | None = None) -> list[Response]:
        """Serve a whole trace; returns responses in trace order.

        ``stop_ms`` shuts the server down at that virtual time: arrivals
        past it are never admitted and whatever is still queued is drained
        as ``DROPPED`` (see :meth:`drain`). Requests the shutdown leaves
        without a response are omitted from the returned list — their
        drops still show in :class:`~repro.serve.metrics.ServerMetrics`.
        """
        responses: dict[int, Response] = {}
        pending = deque(sorted(trace, key=lambda r: (r.arrival_ms, r.rid)))
        until = float("inf") if stop_ms is None else stop_ms
        now = self.run_until(pending, responses, 0.0, until)
        for resp in self.drain(now):
            responses[resp.rid] = resp
        if self._telemetry is not None:
            # one closing sample so the final counter values are in the
            # series even when the run ends between sampling instants
            self._telemetry.sample(now)
        return [responses[r.rid] for r in trace if r.rid in responses]

    def _observe_drift(self, predicted_ms: float, observed_ms: float,
                       time_ms: float, rung: str):
        """Feed one batch's predicted vs. observed service time.

        The prediction is the same noise-free estimate admission and batch
        planning trusted (the deployment artifact's latency model at the
        executed batch size) — exactly the quantity whose drift invalidates
        those decisions. Returns the :class:`~repro.obs.drift.DriftEvent`
        when one fired (the online-NetCut loop consumes it), else None.
        """
        if self.drift is None:
            return None
        event = self.drift.observe(predicted_ms, observed_ms,
                                   time_ms=time_ms, rung=rung)
        if event is not None and self.tracer is not None:
            self.tracer.instant("drift", "drift", time_ms,
                                rel_error=event.rel_error,
                                bias=event.bias, rung=rung)
        return event

    def _apply_reestimation(self, event, now_ms: float) -> None:
        """Close the loop: one drift event may rewrite the latency tables.

        The controller applies its own hysteresis (virtual-time cooldown,
        fresh-sample and minimum-change gates) so a single event cannot
        thrash the ladder. When a fit goes through, the engine counts it,
        clears the drift window (its errors were measured against tables
        that no longer exist), and — if the greedy re-selection moved the
        serving rung — resets the hysteresis controller's evidence exactly
        as a degrade/upgrade transition would.
        """
        fit = self.reestimator.maybe_reestimate(self.ladder, event, now_ms)
        if fit is None:
            return
        self.metrics.record_reestimate()
        self.drift.reset_window()
        if self.tracer is not None:
            self.tracer.instant("reestimate", "netcut", now_ms,
                                method=fit.method, samples=fit.samples,
                                max_scale=max(fit.scales.values()))
        if fit.rebuilt:
            self.metrics.record_rebuild(now_ms, fit.from_rung, fit.to_rung)
            if self.controller is not None:
                self.controller.notify_transition()
            if self.tracer is not None:
                self.tracer.instant("rebuild", "netcut", now_ms,
                                    frm=fit.from_rung, to=fit.to_rung)
