"""The benchmark's three workloads and the probes that trace their layers.

Each workload builds the program once (:meth:`setup`), turns the
benchmark seed into inputs (:meth:`generate`), and then exposes a fixed
list of timed *calls*: ``prepare(k)`` does the untimed per-call
construction and returns the zero-argument call to time, and
``outcome(k, result)`` checks the output outside the timed region and
returns the call's simulated outcome.

- ``fleet_overload``: open loop, seeded Poisson arrivals at 44k req/s
  (simulated), 3 ms deadline, into 3 ``mobilenet_v1_0.5`` replicas on
  the ``xavier`` model behind the ``p2c-deadline`` router. Router,
  engine loop, hysteresis controller and service-time sampler do all the
  host work; no real compute runs.
- ``throttled_observed``: open loop into one ``Server`` under a
  never-recovering 2.5x thermal throttle with online re-estimation,
  drift monitoring, telemetry and a tracer attached; observation does
  most of the work and the rejection path is exercised.
- ``host_inference``: closed loop, one client; every call is
  ``TRNRung.forward([x])`` at batch 1, round-robin over the 12 compiled
  rungs of the ``mobilenet_v1_0.5`` and ``resnet50`` ladders, so the
  compiled NumPy kernels do all the work.

A simulator call serves one whole episode trace; a pass runs every
episode once, and repeated passes must reproduce each episode's
simulated outcome exactly. The workload seed only reaches the generated
traces and inputs: the program's own seeds stay fixed.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from repro.cluster import Replica, Router, make_policy
from repro.cluster.policies import DeadlineAwareP2C
from repro.data.synthetic import render_object, sample_object
from repro.device import runtime as device_runtime
from repro.device import xavier
from repro.device.latency import network_latency
from repro.device.runtime import ServiceTimeSampler
from repro.faults import FaultInjector, ThermalThrottle
from repro.faults.inject import FaultedRung
from repro.netcut.online import ReestimationController
from repro.obs import DriftMonitor, Telemetry, Tracer
from repro.serve import Server, ServerConfig, TRNLadder
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import Engine
from repro.serve.ladder import HysteresisController, TRNRung
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import EDFQueue
from repro.serve.request import COMPLETED, DROPPED, REJECTED
from repro.workload import poisson_trace
from repro.zoo import build_network

from spans import Probe

__all__ = ["WORKLOADS", "CheckFailed", "probes", "summarize",
           "KERNEL_CLASSES", "REJECT_REASONS"]

#: Admission refusals the serving stack can report in these workloads.
REJECT_REASONS = ("unmeetable-deadline", "queue-full", "no-replica")

#: Compiled kernel classes the two host-inference ladders use.
KERNEL_CLASSES = ("ConvKernel", "DepthwiseConvKernel", "DenseKernel",
                  "PoolKernel", "GlobalAvgPoolKernel", "AddKernel",
                  "SoftmaxKernel")

PROGRAM_SEED = 0          # network weights, router and sampler seeds

#: Where a simulated request enters an engine's loop: the wall-clock gaps
#: between consecutive calls are the simulator's host time per request.
REQUEST_ENTRY = (ServerMetrics, "record_arrival")


class CheckFailed(Exception):
    """An output check failed: the run must not report a result."""


def probes() -> list[Probe]:
    """Every public callable the traced run wraps, by layer."""
    record = [Probe(ServerMetrics, name, "serve.metrics")
              for name in sorted(vars(ServerMetrics))
              if name.startswith("record_")]
    faulted = [Probe(FaultedRung, name, "faults")
               for name in ("estimate_ms", "sample_service_ms", "forward")]
    return [
        Probe(DeadlineAwareP2C, "choose", "cluster.choose"),
        Probe(Replica, "estimate_finish_ms", "cluster.estimate_finish"),
        Probe(Replica, "advance", "cluster.advance"),
        Probe(Engine, "run_until", "serve.run_until"),
        Probe(EDFQueue, "push", "serve.queue"),
        Probe(EDFQueue, "pop", "serve.queue"),
        Probe(MicroBatcher, "form", "serve.batcher"),
        Probe(HysteresisController, "observe", "serve.controller",
              count_results=True),
        *record,
        Probe(TRNRung, "estimate_ms", "serve.estimate", span=False),
        Probe(ServiceTimeSampler, "sample_ms", "device.sample"),
        Probe(device_runtime, "network_latency", "device.latency_model"),
        Probe(Telemetry, "sample", "obs.telemetry.sample"),
        Probe(Telemetry, "maybe_sample", "obs.telemetry.maybe_sample",
              span=False),
        Probe(Tracer, "emit", "obs.tracer.emit"),
        Probe(DriftMonitor, "observe", "obs.drift.observe"),
        Probe(ReestimationController, "record", "netcut.record"),
        Probe(ReestimationController, "maybe_reestimate",
              "netcut.maybe_reestimate", count_results=True),
        Probe(FaultInjector, "tick", "faults"),
        *faulted,
        Probe(TRNRung, "forward", "nn.forward"),
    ]


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


# -- simulated outcomes --------------------------------------------------------
def _outcome(responses, arrived: int, positions: dict[str, int],
             metrics: list[ServerMetrics], extra: dict) -> dict:
    """The exact, seed-determined outcome of one served episode trace.

    Checks conservation (arrived = rejected + completed + dropped) and
    that the program's own counters agree with the responses it returned.
    """
    done = [r for r in responses if r.status == COMPLETED]
    rejects = {reason: 0 for reason in REJECT_REASONS}
    dropped = 0
    for r in responses:
        if r.status == REJECTED:
            if r.reject_reason not in rejects:
                raise CheckFailed(f"unexpected reject reason "
                                  f"{r.reject_reason!r}")
            rejects[r.reject_reason] += 1
        elif r.status == DROPPED:
            dropped += 1
    rejected = sum(rejects.values())
    if rejected + len(done) + dropped != arrived:
        raise CheckFailed(
            f"conservation: arrived {arrived} != rejected {rejected} + "
            f"completed {len(done)} + dropped {dropped}")
    counted = sum(m.counters["completed"].value for m in metrics)
    if counted != len(done):
        raise CheckFailed(f"metrics count {counted} completions, "
                          f"responses hold {len(done)}")
    last = max([r.arrival_ms for r in responses]
               + [r.finish_ms for r in done])
    batches = sum(m.counters["batches"].value for m in metrics)
    return {
        "arrived": arrived,
        "completed": len(done),
        "dropped": dropped,
        "rejects": rejects,
        "on_time": sum(r.deadline_met for r in done),
        "span_ms": last,
        "latency_ms": tuple(r.latency_ms for r in done),
        "queue_wait_ms": tuple(max(r.queue_ms, 0.0) for r in done),
        "rung_index": tuple(positions[r.rung] for r in done),
        "batches": batches,
        "batched": sum(m.batch_occupancy_sum for m in metrics),
        "transitions": sum(m.counters["degrade_events"].value
                           + m.counters["upgrade_events"].value
                           for m in metrics),
        "rebuilds": sum(m.counters["ladder_rebuilds"].value
                        for m in metrics),
        **extra,
    }


def summarize(outcomes: list[dict]) -> dict:
    """End-to-end and per-layer simulated metrics over every episode."""
    arrived = sum(o["arrived"] for o in outcomes)
    completed = sum(o["completed"] for o in outcomes)
    on_time = sum(o["on_time"] for o in outcomes)
    latency = np.concatenate([o["latency_ms"] for o in outcomes])
    waits = np.concatenate([o["queue_wait_ms"] for o in outcomes])
    rungs = np.concatenate([o["rung_index"] for o in outcomes])
    batches = sum(o["batches"] for o in outcomes)
    out = {
        "miss_rate": (arrived - on_time) / arrived,
        "goodput_rps": on_time / (sum(o["span_ms"] for o in outcomes) / 1e3),
        "sim_p50_ms": float(np.quantile(latency, 0.50)),
        "sim_p99_ms": float(np.quantile(latency, 0.99)),
        "mean_rung_index": float(rungs.mean()),
        "served_share": completed / arrived,
        "serve.batch_size_mean": (sum(o["batched"] for o in outcomes)
                                  / batches if batches else 0.0),
        "serve.queue_wait_p99_ms": float(np.quantile(waits, 0.99)),
        "serve.transitions": sum(o["transitions"] for o in outcomes),
        "netcut.rebuilds": sum(o["rebuilds"] for o in outcomes),
        "obs.drift.events": sum(o.get("drift_events", 0) for o in outcomes),
        "cluster.route_imbalance": (sum(o.get("route_imbalance", 0.0)
                                        for o in outcomes) / len(outcomes)),
    }
    for reason in REJECT_REASONS:
        out[f"serve.rejects.{reason}"] = sum(o["rejects"][reason]
                                             for o in outcomes)
    return out


class FleetOverload:
    """3-replica p2c-deadline fleet under 44k req/s, timing only."""

    name = "fleet_overload"
    # Every episode starts on the full TRN, and its deadline misses all
    # fall in the overload onset, before the controllers reach the
    # shallow rungs (the first ~5% of a 2000-request episode; none after).
    # The onset's miss count varies widely between episodes, so a run
    # needs many episodes for a steady miss rate; episodes are as long as
    # scripts/bench_serve.py's so most requests are steady overload.
    REQUESTS = 2000          # per episode, as scripts/bench_serve.py
    EPISODES = 60
    ROUND = 1
    STAMP = REQUEST_ENTRY
    RATE_RPS = 44e3
    DEADLINE_MS = 3.0
    REPLICAS = 3
    CONFIG = ServerConfig(deadline_ms=DEADLINE_MS, execute=False,
                          seed=PROGRAM_SEED, queue_capacity=64, window=16,
                          min_observations=8, cooldown=8)

    def setup(self) -> None:
        base = build_network("mobilenet_v1_0.5").build(PROGRAM_SEED)
        # one ladder per replica, as homogeneous_replicas builds them:
        # samplers are stateful, so replicas never share a ladder
        self.ladders = [TRNLadder.from_base(base, xavier(), num_classes=5,
                                            max_rungs=6)
                        for _ in range(self.REPLICAS)]
        self.positions = {r.name: i
                          for i, r in enumerate(self.ladders[0].rungs)}

    def generate(self, seed: int) -> None:
        self.traces = [poisson_trace(self.REQUESTS, self.RATE_RPS,
                                     self.DEADLINE_MS, rng=_rng(seed, k))
                       for k in range(self.EPISODES)]

    def calls(self) -> int:
        return self.EPISODES

    def requests(self, k: int) -> int:
        return self.REQUESTS

    def prepare(self, k: int):
        replicas = [Replica(f"r{i}", ladder,
                            replace(self.CONFIG,
                                    seed=self.CONFIG.seed + i))
                    for i, ladder in enumerate(self.ladders)]
        # each fresh engine reseeds its rungs' samplers, which drops their
        # latency tables; a long-lived fleet has them warm, so rebuild
        # them here, outside the timed call
        for ladder in self.ladders:
            for rung in ladder.rungs:
                for batch in range(1, self.CONFIG.max_batch + 1):
                    rung.estimate_ms(batch)
        self._router = Router(replicas,
                              make_policy("p2c-deadline", PROGRAM_SEED))
        return functools.partial(self._router.run, self.traces[k])

    def outcome(self, k: int, result) -> dict:
        routed = list(self._router.metrics.per_replica.values())
        return _outcome(
            result.responses, len(self.traces[k]), self.positions,
            [r.metrics for r in result.replicas],
            {"route_imbalance": max(routed) / (sum(routed) / len(routed))})


class ThrottledObserved:
    """One observed server under a thermal throttle with online NetCut."""

    name = "throttled_observed"
    REQUESTS = 1000          # per episode, as scripts/bench_serve.py
    EPISODES = 20
    ROUND = 1
    STAMP = REQUEST_ENTRY
    THROTTLE = 2.5

    def setup(self) -> None:
        base = build_network("mobilenet_v1_0.5").build(PROGRAM_SEED)
        self.ladder = TRNLadder.from_base(base, xavier(), num_classes=5,
                                          max_rungs=6)
        self.positions = {r.name: i for i, r in enumerate(self.ladder.rungs)}
        self.full_ms = self.ladder.rungs[0].estimate_ms(1)
        self.deadline_ms = round(1.3 * self.full_ms, 3)
        self.config = ServerConfig(
            deadline_ms=self.deadline_ms, execute=False, seed=PROGRAM_SEED,
            adaptive=False, online_reestimation=True,
            reestimate_method="ratio", reestimate_cooldown_ms=10.0,
            reestimate_min_samples=8, reestimate_max_samples=16)

    def generate(self, seed: int) -> None:
        self.traces = [poisson_trace(self.REQUESTS, 0.4e3 / self.full_ms,
                                     self.deadline_ms, rng=_rng(seed, k))
                       for k in range(self.EPISODES)]

    def calls(self) -> int:
        return self.EPISODES

    def requests(self, k: int) -> int:
        return self.REQUESTS

    def prepare(self, k: int):
        span = self.traces[k][-1].arrival_ms
        faults = FaultInjector([ThermalThrottle(
            start_ms=0.1 * span, duration_ms=10 * span,
            factor=self.THROTTLE, ramp_ms=0.03 * span)], seed=PROGRAM_SEED)
        self._drift = DriftMonitor(threshold=0.2, window=16,
                                   min_observations=8, cooldown=8)
        self._server = Server(self.ladder, self.config, drift=self._drift,
                              faults=faults,
                              telemetry=Telemetry(sample_interval_ms=1.0),
                              tracer=Tracer())
        return functools.partial(self._server.run_trace, self.traces[k])

    def outcome(self, k: int, result) -> dict:
        return _outcome(result.responses, len(self.traces[k]),
                        self.positions, [result.metrics],
                        {"drift_events": self._drift.events_total})


class HostInference:
    """Batch-1 compiled forwards, round-robin over 12 rungs of 2 ladders."""

    name = "host_inference"
    NETWORKS = ("mobilenet_v1_0.5", "resnet50")
    INPUTS = 8               # rendered inputs per rung
    CALLS = 1200             # one pass: 100 rounds over the 12 rungs
    ROUND = 12               # one call per rung
    STAMP = None             # a call is one request
    # the device-model replay of the same closed loop: the repository's
    # default real-time budget (ServerConfig.deadline_ms)
    DEADLINE_MS = ServerConfig().deadline_ms

    def setup(self) -> None:
        self.rungs = []
        self.positions = []
        for name in self.NETWORKS:
            base = build_network(name).build(PROGRAM_SEED)
            ladder = TRNLadder.from_base(base, xavier(), num_classes=5,
                                         max_rungs=6)
            self.rungs.extend(ladder.rungs)
            self.positions.extend(range(len(ladder.rungs)))

    def generate(self, seed: int) -> None:
        rng = _rng(seed, 0)
        size = self.rungs[0].network.input_shape[0]
        self.inputs = [render_object(sample_object(rng), size=size, rng=rng)
                       for _ in range(self.INPUTS)]
        self.seed = seed

    def check_parity(self) -> None:
        """Compiled vs interpreted forward on every (rung, input) pair.

        The compiled outputs become the references every timed call must
        reproduce bit for bit.
        """
        self.reference = {}
        for j, rung in enumerate(self.rungs):
            net = rung.network
            batch = np.stack(self.inputs)
            net.uncompile()
            interpreted = net.forward(batch)
            net.compile()
            for i, x in enumerate(self.inputs):
                out = rung.forward([x])[0]
                # float32 accumulation order differs between the paths
                # (BN folding, fused post-ops): scripts/bench_forward.py's
                # tolerance on softmax outputs
                if not np.allclose(out, interpreted[i], rtol=1e-3,
                                   atol=1e-4):
                    raise CheckFailed(f"{rung.name}: compiled output "
                                      f"differs from interpreted")
                self.reference[j, i] = out

    def calls(self) -> int:
        return self.CALLS

    def requests(self, k: int) -> int:
        return 1

    def _pair(self, k: int) -> tuple[int, int]:
        n = len(self.rungs)
        return k % n, (k // n) % len(self.inputs)

    def prepare(self, k: int):
        j, i = self._pair(k)
        return functools.partial(self.rungs[j].forward, [self.inputs[i]])

    def outcome(self, k: int, result) -> dict:
        j, i = self._pair(k)
        if result.shape != (1,) + self.reference[j, i].shape \
                or not np.array_equal(result[0], self.reference[j, i]):
            raise CheckFailed(f"{self.rungs[j].name}: timed output differs "
                              f"from its reference")
        return {"completed": 1}

    def replay(self) -> dict:
        """The same closed loop on the device model (virtual clock).

        One client, no think time: each request is one batch-1 call on
        the next rung, served in the ``xavier`` model's sampled service
        time, with the device noise drawn from the workload seed.
        """
        for j, rung in enumerate(self.rungs):
            rung.reseed(_rng(self.seed, 1 + j))
            rung.sampler.warm_up(200)
        latency = []
        n = len(self.rungs)
        for k in range(self.CALLS):
            latency.append(self.rungs[k % n].sample_service_ms(1))
        return {
            "arrived": self.CALLS, "completed": self.CALLS, "dropped": 0,
            "rejects": {reason: 0 for reason in REJECT_REASONS},
            "on_time": sum(ms <= self.DEADLINE_MS for ms in latency),
            "span_ms": float(np.sum(latency)),
            "latency_ms": tuple(latency),
            "queue_wait_ms": (0.0,) * self.CALLS,
            "rung_index": tuple(self.positions[k % n]
                                for k in range(self.CALLS)),
            "batches": self.CALLS, "batched": self.CALLS,
            "transitions": 0, "rebuilds": 0,
        }

    def kernel_cost(self) -> dict[str, tuple[int, int]]:
        """Computed (FLOPs, bytes moved) per kernel class for one pass.

        Summed from the device model's per-kernel costs at batch 1
        (``network_latency(...).kernels``), matched to the compiled plan's
        steps by anchor node, times the calls each rung gets in a pass.
        """
        cost = {cls: [0, 0] for cls in KERNEL_CLASSES}
        n = len(self.rungs)
        for j, rung in enumerate(self.rungs):
            calls = len(range(j, self.CALLS, n))
            plan = rung.network.compile().plan
            kind = {s.name: type(s.kernel).__name__ for s in plan.steps}
            for k in network_latency(rung.network, rung.spec).kernels:
                entry = cost[kind[k.anchor]]
                entry[0] += calls * k.flops
                entry[1] += calls * k.bytes_moved
        return {cls: (f, b) for cls, (f, b) in cost.items()}

    def kernel_seconds(self) -> dict[str, float]:
        """Measured kernel seconds per class since timing was enabled."""
        seconds = dict.fromkeys(KERNEL_CLASSES, 0.0)
        for rung in self.rungs:
            compiled = rung.network.compile()
            kind = {s.name: type(s.kernel).__name__
                    for s in compiled.plan.steps}
            for step, (_, total_ms) in compiled.kernel_times_ms().items():
                seconds[kind[step]] += total_ms / 1e3
        return seconds


WORKLOADS = {w.name: w for w in (FleetOverload, ThrottledObserved,
                                 HostInference)}
