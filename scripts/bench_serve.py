"""Emit the serving-layer perf trajectory as machine-readable JSON.

Runs the canonical serve/cluster scenario (the same seeded Poisson
overload as benchmarks/test_cluster_scaleout.py) and writes
``BENCH_serve.json`` at the repo root: latency quantiles, deadline-miss
rate and admitted throughput for one replica and for the 3-replica
p2c-deadline cluster. Everything is virtual-time and seeded, so the
numbers are a property of the code, not of the machine running CI —
two commits produce different JSON only when serving behaviour changed.

Two commits' payloads are diffed with
``python -m repro obs gate --baselines DIR_A --current DIR_B``.

Run via scripts/bench.sh, or directly:

    PYTHONPATH=src python scripts/bench_serve.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.cluster import Router, homogeneous_replicas, make_policy  # noqa: E402
from repro.device import xavier  # noqa: E402
from repro.faults import FaultInjector, ThermalThrottle  # noqa: E402
from repro.obs import DriftMonitor  # noqa: E402
from repro.serve import Server, ServerConfig, TRNLadder  # noqa: E402
from repro.workload import poisson_trace  # noqa: E402
from repro.zoo import build_network  # noqa: E402

REQUESTS = 2000
DEADLINE_MS = 3.0
RATE_RPS = 44e3
SEED = 0

ONLINE_REQUESTS = 1000
ONLINE_THROTTLE = 2.5


def measure(result, trace):
    agg = result.metrics.aggregate()
    span_s = (trace[-1].arrival_ms - trace[0].arrival_ms) / 1e3
    counters = agg.counters
    return {
        "p50_ms": round(agg.latency.quantile(0.50), 6),
        "p95_ms": round(agg.latency.quantile(0.95), 6),
        "p99_ms": round(agg.latency.quantile(0.99), 6),
        "miss_rate": round(result.miss_rate, 6),
        "admitted_rps": round(counters["admitted"].value / span_s, 1),
        "completed": counters["completed"].value,
        "dropped": counters["dropped"].value,
        "rejected": counters["rejected"].value,
    }


def run_online_netcut(base):
    """Closed-loop vs. static estimates under an unending thermal throttle.

    The acceptance scenario of benchmarks/test_netcut_online.py: the
    deployment artifact's latency tables go stale 10% into the trace and
    the drift -> re-fit -> ladder-rebuild loop must win back the deadline.
    """
    ladder = TRNLadder.from_base(base, xavier(), num_classes=5, max_rungs=6)
    full = ladder.rungs[0].estimate_ms(1)
    deadline_ms = round(1.3 * full, 3)
    trace = poisson_trace(ONLINE_REQUESTS, 0.4e3 / full, deadline_ms,
                          rng=SEED)
    span = trace[-1].arrival_ms

    def replay(online, method):
        faults = FaultInjector([ThermalThrottle(
            start_ms=0.1 * span, duration_ms=10 * span,
            factor=ONLINE_THROTTLE, ramp_ms=0.03 * span)], seed=SEED)
        drift = DriftMonitor(threshold=0.2, window=16, min_observations=8,
                             cooldown=8)
        config = ServerConfig(
            deadline_ms=deadline_ms, execute=False, seed=SEED,
            adaptive=False, online_reestimation=online,
            reestimate_method=method, reestimate_cooldown_ms=10.0,
            reestimate_min_samples=8, reestimate_max_samples=16)
        result = Server(ladder, config, drift=drift,
                        faults=faults).run_trace(trace)
        counters = result.metrics.counters
        return {
            "miss_rate": round(result.metrics.miss_rate, 6),
            "completed": counters["completed"].value,
            "rejected": counters["rejected"].value,
            "reestimates": counters["reestimates"].value,
            "ladder_rebuilds": counters["ladder_rebuilds"].value,
            "final_rung": result.final_rung,
        }

    return {
        "scenario": {
            "requests": ONLINE_REQUESTS,
            "deadline_ms": deadline_ms,
            "throttle_factor": ONLINE_THROTTLE,
            "seed": SEED,
        },
        "static": replay(False, "ratio"),
        "online_ratio": replay(True, "ratio"),
        "online_svr": replay(True, "svr"),
    }


def main() -> None:
    base = build_network("mobilenet_v1_0.5").build(0)
    config = ServerConfig(deadline_ms=DEADLINE_MS, execute=False, seed=SEED,
                          queue_capacity=64, window=16, min_observations=8,
                          cooldown=8)
    trace = poisson_trace(REQUESTS, RATE_RPS, DEADLINE_MS, rng=SEED)

    runs = {}
    for name, n in (("serve_1x", 1), ("cluster_3x_p2c", 3)):
        replicas = homogeneous_replicas(base, xavier(), n, config,
                                        num_classes=5, max_rungs=6)
        result = Router(replicas,
                        make_policy("p2c-deadline", SEED)).run(trace)
        runs[name] = measure(result, trace)

    payload = {
        "benchmark": "serve-cluster-scaleout",
        "scenario": {
            "network": "mobilenet_v1_0.5",
            "device": "xavier",
            "requests": REQUESTS,
            "rate_rps": RATE_RPS,
            "deadline_ms": DEADLINE_MS,
            "policy": "p2c-deadline",
            "seed": SEED,
        },
        "results": runs,
        "scaleout_admitted_ratio": round(
            runs["cluster_3x_p2c"]["admitted_rps"]
            / runs["serve_1x"]["admitted_rps"], 4),
        "online_netcut": run_online_netcut(base),
    }

    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_serve.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
