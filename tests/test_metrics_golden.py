"""Golden pins of the serving metrics surfaces.

One seeded single-server run (two tenants under weighted-fair admission,
a chaos scenario fought by the resilient engine, online re-estimation
and an early shutdown, so that every counter is non-zero) and one seeded
3-replica p2c cluster run, both telemetered, are rendered through ``snapshot()``,
``report()`` and the OpenMetrics exposition, and each rendering is
compared byte for byte against a committed file under ``tests/golden``.

A deliberate change to what these surfaces show regenerates the files::

    PYTHONPATH=src python tests/test_metrics_golden.py
"""

import json
import os

import pytest

from conftest import make_tiny_net
from repro.cluster import Router, homogeneous_replicas, make_policy
from repro.device.spec import DeviceSpec
from repro.faults import FaultInjector, RungFailure, build_scenario
from repro.obs import DriftMonitor, Telemetry, to_openmetrics
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import (
    ConstantRate,
    TenantClass,
    TenantMix,
    WeightedFairAdmission,
    generate_trace,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _device() -> DeviceSpec:
    return DeviceSpec(
        name="test-device", peak_gflops=10.0, bandwidth_gbps=1.0,
        launch_overhead_us=5.0, occupancy_flops=1e4, noise_std=0.005,
        straggler_prob=0.0, event_overhead_us=2.0)


def _mix(deadline_ms: float) -> TenantMix:
    return TenantMix([
        TenantClass("interactive", deadline_ms=deadline_ms, weight=3.0,
                    share=0.25),
        TenantClass("batch", deadline_ms=3 * deadline_ms, weight=1.0,
                    share=0.75)])


def _json(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=1) + "\n"


def server_run():
    """The seeded single-server run; returns (result, telemetry)."""
    ladder = TRNLadder.from_base(make_tiny_net(), _device(), num_classes=5)
    full = ladder.rungs[0].estimate_ms(1)
    deadline = 1.5 * full
    mix = _mix(deadline)
    span = 500 * full
    trace = generate_trace(ConstantRate(1.6e3 / full), span, tenants=mix,
                           rng=0)
    chaos = build_scenario("mixed", 0.4 * span, seed=0,
                           rungs=(ladder.rungs[0].name,))
    # a brief window in which every rung hard-fails: batches are shed
    faults = FaultInjector(
        chaos.faults + [RungFailure(start_ms=0.6 * span,
                                    duration_ms=0.01 * span)], seed=0)
    config = ServerConfig(
        deadline_ms=deadline, execute=False, seed=0, queue_capacity=32,
        admission_policy=WeightedFairAdmission(mix, watermark=0.25),
        resilience=True, online_reestimation=True,
        reestimate_cooldown_ms=5 * full, reestimate_min_samples=4,
        upgrade_ratio=0.8, upgrade_cooldown=16)
    telemetry = Telemetry(sample_interval_ms=0.5)
    server = Server(ladder, config, faults=faults, telemetry=telemetry,
                    drift=DriftMonitor(threshold=0.2, window=16,
                                       min_observations=8, cooldown=8))
    return server.run_trace(trace, stop_ms=0.9 * span), telemetry


def cluster_run():
    """The seeded 3-replica p2c run (one replica under a straggler storm);
    returns (result, telemetry)."""
    device = _device()
    base = make_tiny_net()
    full = TRNLadder.from_base(base, device, num_classes=5) \
        .rungs[0].estimate_ms(1)
    mix = _mix(2.0 * full)
    span = 600 * full
    trace = generate_trace(ConstantRate(3.5e3 / full), span, tenants=mix,
                           rng=1)
    storm = build_scenario("straggler-storm", span, seed=1)
    config = ServerConfig(deadline_ms=2.0 * full, execute=False, seed=0,
                          queue_capacity=32, resilience=True)
    telemetry = Telemetry(sample_interval_ms=0.5)
    replicas = homogeneous_replicas(base, device, 3, config, num_classes=5,
                                    faults={1: storm.injector()},
                                    telemetry=telemetry)
    router = Router(replicas, make_policy("p2c-deadline", 0),
                    telemetry=telemetry)
    return router.run(trace), telemetry


def render() -> dict[str, str]:
    """Every pinned rendering, keyed by its golden file name."""
    served, telemetry = server_run()
    cluster, cluster_telemetry = cluster_run()
    return {
        "server_snapshot.json": _json(served.metrics.snapshot()),
        "server_report.txt": served.metrics.report() + "\n",
        "server_openmetrics.txt": to_openmetrics(telemetry),
        "cluster_snapshot.json": _json(cluster.metrics.snapshot()),
        "cluster_report.txt": cluster.metrics.report() + "\n",
        "cluster_openmetrics.txt": to_openmetrics(cluster_telemetry),
    }


@pytest.fixture(scope="module")
def rendered():
    return render()


def test_server_run_sets_every_counter(rendered):
    counters = json.loads(rendered["server_snapshot.json"])["counters"]
    assert all(counters.values()), counters


@pytest.mark.parametrize("name", ["server_snapshot.json",
                                  "server_report.txt",
                                  "server_openmetrics.txt",
                                  "cluster_snapshot.json",
                                  "cluster_report.txt",
                                  "cluster_openmetrics.txt"])
def test_rendering_matches_golden(rendered, name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        expected = fh.read()
    assert rendered[name] == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in render().items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as fh:
            fh.write(text)
        print(f"wrote {os.path.join(GOLDEN_DIR, name)}")
