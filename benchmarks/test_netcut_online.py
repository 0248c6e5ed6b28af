"""Online NetCut benchmark — drift-triggered re-estimation under throttle.

The acceptance scenario for closing Algorithm 1's loop at serving time: a
seeded thermal throttle ramps the simulated Xavier to 2.5x its profiled
latency early in a Poisson trace and never recovers, so the deployment
artifact's latency tables are wrong for ~90% of the run. The closed-loop
server (DriftMonitor -> ReestimationController -> ladder rebuild) must
recover to under 5% deadline misses where the same server with static
estimates stays above 20% — both with the hysteresis ladder controller
off, so the whole recovery is attributable to estimate maintenance.

The determinism benchmark replays the closed-loop scenario in two
subprocesses started with different ``PYTHONHASHSEED`` values and asserts
the metrics snapshots are byte-identical: the re-fit path (median ratios,
SVR queries, greedy re-selection) must introduce no ordering or hashing
nondeterminism.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.device import xavier
from repro.faults import FaultInjector, ThermalThrottle
from repro.obs import DriftMonitor
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import poisson_trace
from repro.zoo import build_network

from conftest import emit

REQUESTS = 1000
SEED = 0
THROTTLE = 2.5

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ladder():
    base = build_network("mobilenet_v1_0.5").build(0)
    return TRNLadder.from_base(base, xavier(), num_classes=5, max_rungs=6)


@pytest.fixture(scope="module")
def setting(ladder):
    """(deadline_ms, trace): the full TRN healthy, hopeless throttled."""
    full = ladder.rungs[0].estimate_ms(1)
    deadline_ms = round(1.3 * full, 3)
    trace = poisson_trace(REQUESTS, 0.4e3 / full, deadline_ms, rng=SEED)
    return deadline_ms, trace


def _run(ladder, setting, online, method="ratio"):
    deadline_ms, trace = setting
    span = trace[-1].arrival_ms
    faults = FaultInjector([ThermalThrottle(
        start_ms=0.1 * span, duration_ms=10 * span, factor=THROTTLE,
        ramp_ms=0.03 * span)], seed=SEED)
    drift = DriftMonitor(threshold=0.2, window=16, min_observations=8,
                         cooldown=8)
    config = ServerConfig(
        deadline_ms=deadline_ms, execute=False, seed=SEED, adaptive=False,
        online_reestimation=online, reestimate_method=method,
        reestimate_cooldown_ms=10.0, reestimate_min_samples=8,
        reestimate_max_samples=16)
    server = Server(ladder, config, drift=drift, faults=faults)
    return server.run_trace(trace), server


def test_bench_online_reestimation(ladder, setting, benchmark):
    """Closed loop recovers <5% misses; static estimates stay >20%."""
    closed, server = benchmark(_run, ladder, setting, True)
    # read the calibration before the other arms run: their fresh engines
    # restore every shared rung's scale to 1.0
    scales = [r.estimate_scale for r in server.engine.ladder.rungs]
    svr, _ = _run(ladder, setting, True, method="svr")
    static, _ = _run(ladder, setting, False)

    lines = [f"{'estimates':16s} {'miss%':>8} {'refits':>7} "
             f"{'rebuilds':>9} {'final rung':>24}"]
    for name, res in (("online-ratio", closed), ("online-svr", svr),
                      ("static", static)):
        c = res.metrics.counters
        lines.append(
            f"{name:16s} {100 * res.metrics.miss_rate:>8.2f} "
            f"{c['reestimates'].value:>7d} {c['ladder_rebuilds'].value:>9d} "
            f"{res.final_rung:>24s}")
    lines.append(f"thermal throttle to {THROTTLE}x (never recovers), "
                 f"{REQUESTS} Poisson requests, deadline "
                 f"{setting[0]} ms, seed {SEED}")
    emit("netcut_online", lines)

    assert closed.metrics.miss_rate < 0.05
    assert svr.metrics.miss_rate < 0.05
    assert static.metrics.miss_rate > 0.20
    # the loop actually closed: fits applied, ladder rebuilt, and the
    # serving rung moved off the profiled-optimal choice
    c = closed.metrics.counters
    assert c["reestimates"].value > 0
    assert c["ladder_rebuilds"].value > 0
    assert closed.final_rung != ladder.rungs[0].name
    # the re-fit converged on the throttle's true slowdown
    assert max(scales) == pytest.approx(THROTTLE, rel=0.15)
    # nothing is lost to the rebuild: every admitted request is accounted
    assert c["completed"].value + c["dropped"].value == c["admitted"].value


def test_bench_online_deterministic_across_hashseeds(benchmark):
    """Two interpreters with different hash seeds -> identical snapshots.

    The re-fit path iterates dicts of per-rung sample buffers and feeds
    pooled observations to the SVR; any hash-order dependence would make
    the "deterministic" recovery differ between processes.
    """
    code = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from repro.device import xavier\n"
        "from repro.faults import FaultInjector, ThermalThrottle\n"
        "from repro.obs import DriftMonitor\n"
        "from repro.serve import (Server, ServerConfig, TRNLadder,\n"
        "                         poisson_trace)\n"
        "from repro.zoo import build_network\n"
        "base = build_network('mobilenet_v1_0.5').build(0)\n"
        "ladder = TRNLadder.from_base(base, xavier(), num_classes=5,\n"
        "                             max_rungs=6)\n"
        "full = ladder.rungs[0].estimate_ms(1)\n"
        "deadline = round(1.3 * full, 3)\n"
        "trace = poisson_trace(%d, 0.4e3 / full, deadline, rng=%d)\n"
        "span = trace[-1].arrival_ms\n"
        "faults = FaultInjector([ThermalThrottle(start_ms=0.1 * span,\n"
        "    duration_ms=10 * span, factor=%r, ramp_ms=0.03 * span)],\n"
        "    seed=%d)\n"
        "drift = DriftMonitor(threshold=0.2, window=16,\n"
        "                     min_observations=8, cooldown=8)\n"
        "server = Server(ladder, ServerConfig(deadline_ms=deadline,\n"
        "    execute=False, seed=%d, adaptive=False,\n"
        "    online_reestimation=True, reestimate_method='svr',\n"
        "    reestimate_cooldown_ms=10.0, reestimate_min_samples=8,\n"
        "    reestimate_max_samples=16), drift=drift, faults=faults)\n"
        "result = server.run_trace(trace)\n"
        "print(json.dumps(result.metrics.snapshot(), sort_keys=True))\n"
    ) % (os.path.join(REPO, "src"), REQUESTS, SEED, THROTTLE, SEED, SEED)

    def replay(hashseed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout

    first = benchmark.pedantic(replay, args=("0",), rounds=1)
    second = replay("31337")
    assert first == second
    snap = json.loads(first)
    assert snap["counters"]["reestimates"] > 0
    assert snap["counters"]["completed"] > 0
