"""Tests for repro.faults: injection, resilience, and the seed bugfix.

Everything runs over virtual time with explicit seeds; the subprocess
tests additionally pin ``PYTHONHASHSEED`` to prove the "reproducible"
seeds no longer depend on Python's per-process string-hash randomization.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import make_tiny_net
from repro.device.spec import DeviceSpec, stable_seed
from repro.faults import (
    SCENARIOS,
    BreakerEvent,
    ChaosScenario,
    CircuitBreaker,
    EstimatorBias,
    FaultInjector,
    HealthProbe,
    QueueSaturation,
    RungFailure,
    RungFailureError,
    StragglerStorm,
    ThermalThrottle,
    build_scenario,
)
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import poisson_trace, uniform_trace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


@pytest.fixture(scope="module")
def device():
    return DeviceSpec(
        name="test-device", peak_gflops=10.0, bandwidth_gbps=1.0,
        launch_overhead_us=5.0, occupancy_flops=1e4, noise_std=0.005,
        straggler_prob=0.0, event_overhead_us=2.0)


@pytest.fixture(scope="module")
def ladder(device):
    return TRNLadder.from_base(make_tiny_net(), device, num_classes=5)


# ---------------------------------------------------------------------------
# satellite 1: stable_seed and the PYTHONHASHSEED regression
# ---------------------------------------------------------------------------
class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_seed("a", "b") == stable_seed("a", "b")
        assert stable_seed("a", "b") != stable_seed("b", "a")
        # the separator keeps ("ab", "c") and ("a", "bc") apart
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_fits_numpy_seed_range(self):
        for parts in (("x",), ("net", "dev", 3), (1, 2, 3.5)):
            s = stable_seed(*parts)
            assert isinstance(s, int)
            assert 0 <= s < 2 ** 32

    @pytest.mark.parametrize("hashseed", ["0", "12345"])
    def test_measure_latency_ignores_hash_randomization(self, hashseed):
        """measure_latency must give identical results whatever hash seed
        the interpreter started with (the headline bug: ``hash((name,
        spec))`` seeded the measurement RNG, so "deterministic" latencies
        changed between processes)."""
        code = (
            "import json, sys\n"
            "sys.path.insert(0, %r)\n"
            "sys.path.insert(0, %r)\n"
            "from conftest import make_tiny_net\n"
            "from repro.device.spec import DeviceSpec\n"
            "from repro.device.runtime import measure_latency\n"
            "spec = DeviceSpec(name='test-device', peak_gflops=10.0,\n"
            "    bandwidth_gbps=1.0, launch_overhead_us=5.0,\n"
            "    occupancy_flops=1e4, noise_std=0.005,\n"
            "    straggler_prob=0.01, event_overhead_us=2.0)\n"
            "m = measure_latency(make_tiny_net(), spec, runs=20, warmup=5)\n"
            "print(json.dumps([m.mean_ms, m.std_ms]))\n"
        ) % (SRC, os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        values = json.loads(out.stdout)
        # identical across parametrizations == identical across hash seeds
        if not hasattr(type(self), "_reference"):
            type(self)._reference = values
        assert values == type(self)._reference

    def test_rung_sampler_seed_is_stable(self, ladder):
        """TRNRung seeds its sampler from stable_seed, not hash()."""
        rung = ladder.rungs[0]
        expected = stable_seed(rung.name, rung.spec.name)
        import numpy as np

        reference = np.random.default_rng(expected).random()
        rung.reseed(expected)
        probe = np.random.default_rng(expected).random()
        assert probe == reference


# ---------------------------------------------------------------------------
# fault models
# ---------------------------------------------------------------------------
class TestFaultModels:
    def test_window_half_open(self):
        f = RungFailure(start_ms=10.0, duration_ms=5.0)
        assert not f.active(9.999)
        assert f.active(10.0)
        assert f.active(14.999)
        assert not f.active(15.0)

    def test_rung_filter(self):
        f = RungFailure(rungs=("a",))
        assert f.fails(0.0, "a")
        assert not f.fails(0.0, "b")
        unfiltered = RungFailure()
        assert unfiltered.fails(0.0, "anything")

    def test_straggler_storm_is_seeded(self):
        a = StragglerStorm(prob=0.5, scale=10.0)
        b = StragglerStorm(prob=0.5, scale=10.0)
        a.reseed(7)
        b.reseed(7)
        fa = [a.service_factor(0.0, "r", 1) for _ in range(50)]
        fb = [b.service_factor(0.0, "r", 1) for _ in range(50)]
        assert fa == fb
        assert any(f > 1.0 for f in fa) and any(f == 1.0 for f in fa)
        # spikes land in [1 + scale/2, 1 + scale]
        spikes = [f for f in fa if f > 1.0]
        assert all(6.0 <= f <= 11.0 for f in spikes)

    def test_thermal_ramp(self):
        f = ThermalThrottle(start_ms=100.0, duration_ms=100.0,
                            factor=3.0, ramp_ms=50.0)
        assert f.service_factor(99.0, "r", 1) == 1.0
        assert f.service_factor(100.0, "r", 1) == pytest.approx(1.0)
        assert f.service_factor(125.0, "r", 1) == pytest.approx(2.0)
        assert f.service_factor(150.0, "r", 1) == pytest.approx(3.0)
        assert f.service_factor(199.0, "r", 1) == pytest.approx(3.0)

    def test_estimator_bias_only_touches_estimates(self):
        f = EstimatorBias(factor=0.5)
        assert f.estimate_factor(0.0, "r") == 0.5
        assert f.service_factor(0.0, "r", 1) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            QueueSaturation(factor=0.0)
        with pytest.raises(ValueError):
            EstimatorBias(factor=-1.0)
        with pytest.raises(ValueError):
            RungFailure(duration_ms=0.0)


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_composition_is_multiplicative(self):
        inj = FaultInjector([ThermalThrottle(factor=2.0),
                             ThermalThrottle(factor=3.0)], seed=0)
        inj.tick(0.0)
        assert inj.service_factor("r", 1) == pytest.approx(6.0)

    def test_capacity_composes_as_minimum(self):
        inj = FaultInjector([QueueSaturation(factor=0.5),
                             QueueSaturation(factor=0.25)], seed=0)
        inj.tick(0.0)
        assert inj.capacity_factor() == 0.25
        assert inj.effective_capacity(100) == 25
        assert inj.effective_capacity(1) == 1      # never below one slot

    def test_tick_reports_activation_edges_once(self):
        inj = FaultInjector([RungFailure(start_ms=5.0, duration_ms=5.0)],
                            seed=0)
        assert inj.tick(0.0) == []
        opened = inj.tick(5.0)
        assert [e.phase for e in opened] == ["activate"]
        assert inj.tick(7.0) == []                 # still active, no edge
        closed = inj.tick(10.0)
        assert [e.phase for e in closed] == ["deactivate"]
        assert len(inj.events) == 2

    def test_reset_replays_identically(self):
        inj = FaultInjector([StragglerStorm(prob=0.5, scale=4.0)], seed=3)
        inj.tick(0.0)
        first = [inj.service_factor("r", 1) for _ in range(20)]
        inj.reset()
        inj.tick(0.0)
        assert [inj.service_factor("r", 1) for _ in range(20)] == first

    def test_wrapped_rung_perturbs_timing(self, ladder):
        inj = FaultInjector([ThermalThrottle(factor=2.0),
                             EstimatorBias(factor=0.5)], seed=0)
        wrapped = inj.wrap(ladder)
        inj.tick(0.0)
        ladder.reseed(0)
        wrapped.reseed(0)
        for plain, faulted in zip(ladder.rungs, wrapped.rungs):
            assert faulted.name == plain.name
            assert faulted.estimate_ms(1) == \
                pytest.approx(0.5 * plain.estimate_ms(1))
        # sampled service doubles (same RNG stream, factor 2)
        wrapped.reseed(0)
        doubled = wrapped.rungs[0].sample_service_ms(1)
        ladder.reseed(0)
        assert doubled == pytest.approx(2.0 * ladder.rungs[0]
                                        .sample_service_ms(1))

    def test_wrapped_rung_raises_on_failure(self, ladder):
        name = ladder.rungs[0].name
        inj = FaultInjector([RungFailure(rungs=(name,))], seed=0)
        wrapped = inj.wrap(ladder)
        inj.tick(0.0)
        target = next(r for r in wrapped.rungs if r.name == name)
        healthy = next(r for r in wrapped.rungs if r.name != name)
        with pytest.raises(RungFailureError):
            target.sample_service_ms(1)
        assert healthy.sample_service_ms(1) > 0

    def test_wrapping_twice_is_rejected(self, ladder):
        # Server wraps the ladder itself, so a pre-wrapped one would
        # apply every fault twice
        inj = FaultInjector([ThermalThrottle(factor=2.0)], seed=0)
        wrapped = inj.wrap(ladder)
        with pytest.raises(ValueError, match="already wrapped"):
            inj.wrap(wrapped)
        trace = uniform_trace(5, 1e3, 5.0)
        server = Server(wrapped, ServerConfig(execute=False), faults=inj)
        with pytest.raises(ValueError, match="already wrapped"):
            server.run_trace(trace)
        # a second injector stacks its own faults on top
        assert len(FaultInjector([], seed=0).wrap(wrapped).rungs) \
            == len(ladder.rungs)

    def test_snapshot_and_report(self):
        inj = FaultInjector([RungFailure(start_ms=1.0, duration_ms=1.0)],
                            seed=9)
        inj.tick(1.5)
        snap = inj.snapshot()
        assert snap["seed"] == 9
        assert len(snap["active"]) == 1
        assert "activate" in inj.report()


# ---------------------------------------------------------------------------
# circuit breaker + health probe
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        br = CircuitBreaker("r", threshold=3, cooldown_ms=10.0)
        br.record_failure(0.0)
        br.record_failure(1.0)
        assert br.state == "closed" and br.allow(1.5)
        br.record_failure(2.0)
        assert br.state == "open"
        assert not br.allow(2.5)

    def test_success_resets_the_streak(self):
        br = CircuitBreaker("r", threshold=2, cooldown_ms=10.0)
        br.record_failure(0.0)
        br.record_success(1.0)
        br.record_failure(2.0)
        assert br.state == "closed"

    def test_half_open_probe_then_close(self):
        listener_events = []
        br = CircuitBreaker("r", threshold=1, cooldown_ms=10.0,
                            listener=listener_events.append)
        br.record_failure(0.0, "timeout")
        assert br.state == "open"
        assert not br.allow(5.0)                 # cooldown not elapsed
        assert br.allow(10.0)                    # probe slot granted
        assert br.state == "half-open"
        assert not br.allow(10.5)                # single probe in flight
        br.record_success(11.0)
        assert br.state == "closed"
        assert [e.to_state for e in listener_events] == \
            ["open", "half-open", "closed"]
        assert [e.to_state for e in br.events] == \
            ["open", "half-open", "closed"]
        assert isinstance(br.events[0], BreakerEvent)
        assert br.events[0].reason == "timeout"

    def test_half_open_failure_reopens_and_rearms_cooldown(self):
        br = CircuitBreaker("r", threshold=1, cooldown_ms=10.0)
        br.record_failure(0.0)
        assert br.allow(10.0)
        br.record_failure(11.0)
        assert br.state == "open"
        assert not br.allow(20.0)                # cooldown restarts at 11
        assert br.allow(21.0)

    def test_snapshot(self):
        br = CircuitBreaker("r", threshold=1, cooldown_ms=5.0)
        br.record_failure(3.0)
        snap = br.snapshot()
        assert snap["state"] == "open"
        assert snap["transitions"][0]["time_ms"] == 3.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker("r", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("r", cooldown_ms=0.0)


class TestHealthProbe:
    def test_healthy_ladder_probes_ok(self, ladder):
        ladder.reseed(0)
        results = HealthProbe().probe_ladder(ladder)
        assert len(results) == len(ladder)
        assert all(r.ok and r.error is None for r in results)

    def test_failed_rung_reports_error(self, ladder):
        inj = FaultInjector([RungFailure()], seed=0)
        wrapped = inj.wrap(ladder)
        inj.tick(0.0)
        results = HealthProbe().probe_ladder(wrapped)
        assert all(not r.ok and r.error == "rung-failure" for r in results)
        assert "FAIL" in str(results[0])

    def test_slow_factor_validated(self):
        with pytest.raises(ValueError):
            HealthProbe(slow_factor=1.0)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
class TestScenarios:
    def test_builtins_build_and_describe(self):
        for name in SCENARIOS:
            sc = build_scenario(name, span_ms=100.0, seed=1,
                                rungs=("some-rung",))
            assert isinstance(sc, ChaosScenario)
            assert sc.faults
            assert name in sc.describe()

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            build_scenario("nope", 100.0)

    def test_injector_is_fresh_per_call(self):
        sc = build_scenario("straggler-storm", 100.0, seed=2)
        assert sc.injector() is not sc.injector()


# ---------------------------------------------------------------------------
# engine resilience (end to end, tiny ladder)
# ---------------------------------------------------------------------------
def _serve(ladder, trace, faults=None, **cfg):
    config = ServerConfig(deadline_ms=trace[0].deadline_ms, execute=False,
                          seed=0, **cfg)
    server = Server(ladder, config, faults=faults)
    return server.run_trace(trace)


class TestEngineResilience:
    def test_timeouts_retry_on_a_faster_rung(self, ladder):
        span = 80.0
        trace = uniform_trace(60, 60 / (span / 1e3), 5.0, rng=0)
        inj = FaultInjector(
            [StragglerStorm(prob=0.9, scale=20.0, duration_ms=span,
                            rungs=(ladder.rungs[0].name,))], seed=0)
        result = _serve(ladder, trace, faults=inj, resilience=True,
                        adaptive=False, exec_timeout_factor=1.5)
        c = result.metrics.counters
        assert c["timeouts"].value > 0
        assert c["retries"].value >= c["timeouts"].value
        # retried batches completed on a faster rung than the pinned one
        assert any(r.rung != ladder.rungs[0].name
                   for r in result.completed)

    def test_breaker_opens_and_recovers(self, ladder):
        span = 80.0
        trace = uniform_trace(60, 60 / (span / 1e3), 5.0, rng=0)
        inj = FaultInjector(
            [RungFailure(start_ms=10.0, duration_ms=30.0,
                         rungs=(ladder.rungs[0].name,))], seed=0)
        result = _serve(ladder, trace, faults=inj, resilience=True,
                        adaptive=False, breaker_threshold=2,
                        breaker_cooldown_ms=5.0)
        c = result.metrics.counters
        assert c["breaker_opens"].value >= 1
        assert c["breaker_closes"].value >= 1      # half-open probe healed
        assert c["fault_events"].value == 2        # activate + deactivate
        # everything still finished: completed + dropped == admitted
        assert c["completed"].value + c["dropped"].value \
            == c["admitted"].value

    def test_all_rungs_failing_drops_instead_of_crashing(self, ladder):
        trace = uniform_trace(20, 2000.0, 5.0, rng=0)
        inj = FaultInjector([RungFailure()], seed=0)   # every rung dead
        result = _serve(ladder, trace, faults=inj, resilience=True)
        c = result.metrics.counters
        assert c["completed"].value == 0
        assert c["dropped"].value == c["admitted"].value > 0
        assert all(r.status == "dropped" for r in result.dropped)
        assert all(r.reject_reason == "rung-failed" for r in result.dropped)

    def test_unresilient_engine_crashes_on_rung_failure(self, ladder):
        trace = uniform_trace(5, 2000.0, 5.0, rng=0)
        inj = FaultInjector([RungFailure()], seed=0)
        with pytest.raises(RungFailureError):
            _serve(ladder, trace, faults=inj, resilience=False)

    def test_queue_saturation_rejects_overflow(self, ladder):
        # 40 near-simultaneous arrivals against 8 usable of 32 slots
        trace = uniform_trace(40, 2_000_000.0, 50.0, rng=0)
        inj = FaultInjector([QueueSaturation(factor=0.25)], seed=0)
        saturated = _serve(ladder, trace, faults=inj, resilience=True,
                           queue_capacity=32, admission_control=False)
        free = _serve(ladder, trace, resilience=True, queue_capacity=32,
                      admission_control=False)
        assert saturated.metrics.counters["rejected"].value \
            > free.metrics.counters["rejected"].value
        assert all(r.reject_reason == "queue-full"
                   for r in saturated.rejected)

    def test_estimator_bias_raises_drift(self, ladder):
        from repro.obs import DriftMonitor

        trace = uniform_trace(80, 4000.0, 5.0, rng=0)
        inj = FaultInjector([EstimatorBias(factor=0.4)], seed=0)
        drift = DriftMonitor(window=16, threshold=0.25, cooldown=8)
        config = ServerConfig(deadline_ms=5.0, execute=False, seed=0,
                              resilience=True)
        server = Server(ladder, config, drift=drift, faults=inj)
        server.run_trace(trace)
        # the planner thinks batches are 2.5x faster than they measure
        assert drift.events

    def test_determinism_under_faults(self, ladder):
        trace = poisson_trace(60, 3000.0, 5.0, rng=0)
        runs = []
        for _ in range(2):
            inj = FaultInjector([StragglerStorm(prob=0.4, scale=8.0)],
                                seed=5)
            result = _serve(ladder, trace, faults=inj, resilience=True)
            runs.append(json.dumps(result.metrics.snapshot(),
                                   sort_keys=True))
        assert runs[0] == runs[1]

    def test_breaker_listener_feeds_tracer(self, ladder):
        from repro.obs import Tracer

        span = 80.0
        trace = uniform_trace(60, 60 / (span / 1e3), 5.0, rng=0)
        inj = FaultInjector(
            [RungFailure(start_ms=10.0, duration_ms=30.0,
                         rungs=(ladder.rungs[0].name,))], seed=0)
        tracer = Tracer(capacity=4096)
        config = ServerConfig(deadline_ms=5.0, execute=False, seed=0,
                              resilience=True, adaptive=False,
                              breaker_threshold=2, breaker_cooldown_ms=5.0)
        server = Server(ladder, config, tracer=tracer, faults=inj)
        server.run_trace(trace)
        names = {s.name for s in tracer.spans()}
        assert {"breaker", "fault", "rung-failure"} <= names


# ---------------------------------------------------------------------------
# satellite 4: shutdown/drain accounting
# ---------------------------------------------------------------------------
class TestDrain:
    def test_stop_ms_drains_queue_as_drops(self, ladder):
        # all 50 requests arrive within one service time, so a backlog is
        # guaranteed to be sitting in the queue when the shutdown hits
        est = ladder.rungs[0].estimate_ms(1)
        trace = uniform_trace(50, 5e4 / est, 50.0, rng=0)
        config = ServerConfig(deadline_ms=50.0, execute=False, seed=0,
                              admission_control=False, max_batch=1)
        server = Server(ladder, config)
        result = server.run_trace(trace, stop_ms=2.5 * est)
        c = result.metrics.counters
        assert c["dropped"].value > 0
        assert c["completed"].value + c["dropped"].value \
            == c["admitted"].value
        assert all(r.reject_reason == "drained" for r in result.dropped)

    def test_drain_under_open_breaker(self, ladder):
        """Requests stuck behind a dead ladder at shutdown count as drops,
        not as lost requests."""
        trace = uniform_trace(30, 3000.0, 50.0, rng=0)
        inj = FaultInjector([RungFailure()], seed=0)
        config = ServerConfig(deadline_ms=50.0, execute=False, seed=0,
                              resilience=True, breaker_threshold=1,
                              admission_control=False)
        server = Server(ladder, config, faults=inj)
        result = server.run_trace(trace, stop_ms=2.0)
        c = result.metrics.counters
        assert c["completed"].value == 0
        assert c["breaker_opens"].value >= 1
        assert c["dropped"].value == c["admitted"].value > 0

    def test_engine_drain_is_idempotent(self, ladder):
        from repro.serve.engine import Engine
        from repro.serve.metrics import ServerMetrics
        from repro.serve.request import Request

        config = ServerConfig(deadline_ms=5.0, execute=False, seed=0)
        engine = Engine(ladder, config, ServerMetrics(5.0))
        engine.queue.push(Request(0, 0.0, 5.0))
        first = engine.drain(1.0)
        assert [r.rid for r in first] == [0]
        assert engine.drain(1.0) == []
        assert engine.metrics.counters["dropped"].value == 1


# ---------------------------------------------------------------------------
# satellites 2 + 3: span regressions
# ---------------------------------------------------------------------------
class TestSpanRegressions:
    def test_enqueue_spans_never_go_backwards(self, ladder):
        """The engine stamps enqueue spans with its clock; even when a
        request's arrival predates the clock (it waited behind a long
        batch), the span timeline stays monotone."""
        from repro.obs import Tracer

        tracer = Tracer(capacity=4096)
        trace = poisson_trace(80, 4000.0, 5.0, rng=0)
        config = ServerConfig(deadline_ms=5.0, execute=False, seed=0)
        server = Server(ladder, config, tracer=tracer)
        server.run_trace(trace)
        stamps = [s.ts_ms for s in tracer.spans() if s.name == "enqueue"]
        assert stamps == sorted(stamps)

    def test_direct_push_backdate_is_clamped(self):
        from repro.obs import Tracer
        from repro.serve import EDFQueue, Request

        tracer = Tracer(capacity=64)
        q = EDFQueue(capacity=8, tracer=tracer)
        q.push(Request(0, 10.0, 1.0), now_ms=10.0)
        q.push(Request(1, 2.0, 1.0))           # arrival 2 < last span 10
        stamps = [s.ts_ms for s in tracer.spans() if s.name == "enqueue"]
        assert stamps == [10.0, 10.0]

    def test_batch_span_carries_estimate_and_stop_reason(self, ladder):
        from repro.obs import Tracer

        tracer = Tracer(capacity=4096)
        trace = poisson_trace(40, 4000.0, 5.0, rng=0)
        config = ServerConfig(deadline_ms=5.0, execute=False, seed=0)
        server = Server(ladder, config, tracer=tracer)
        server.run_trace(trace)
        spans = [s for s in tracer.spans() if s.name == "batch"]
        assert spans
        for s in spans:
            assert s.args["est_ms"] > 0
            assert s.args["stop"] in ("deadline-fit", "max-batch",
                                      "queue-empty")
            assert s.args["size"] >= 1
