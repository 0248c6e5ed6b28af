"""Chaos benchmark — serving resilience under injected device faults.

Not a paper figure: NetCut's evaluation assumes a well-behaved device;
this measures what happens when the device misbehaves. A seeded
straggler-storm scenario (repro.faults) hits every rung of the
MobileNetV1(0.5) TRN ladder with 7-13x latency spikes on 35% of
inferences over the middle 60% of a Poisson trace. The resilient engine
(timeouts + retry-on-a-faster-rung + circuit breakers) must hold the
deadline-miss rate under 5% where the undefended engine exceeds 20%.

The determinism benchmark additionally replays the same scenario in two
subprocesses started with different ``PYTHONHASHSEED`` values and asserts
the metrics snapshots are byte-identical — the regression guard for the
hash-randomized-seed bug this PR fixed.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.device import xavier
from repro.faults import build_scenario
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import poisson_trace
from repro.zoo import build_network

from conftest import emit

REQUESTS = 400
DEADLINE_MS = 3.0
SEED = 0
TIMEOUT_FACTOR = 1.5
MAX_RETRIES = 4

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ladder():
    base = build_network("mobilenet_v1_0.5").build(0)
    return TRNLadder.from_base(base, xavier(), num_classes=5, max_rungs=6)


@pytest.fixture(scope="module")
def trace(ladder):
    # the full TRN's single-request capacity: feasible when healthy,
    # hopeless once a third of inferences straggle by an order of magnitude
    rate_rps = 1e3 / ladder.rungs[0].estimate_ms(1)
    return poisson_trace(REQUESTS, rate_rps, DEADLINE_MS, rng=SEED)


def _run(ladder, trace, resilient: bool):
    scenario = build_scenario("straggler-storm", trace[-1].arrival_ms,
                              seed=SEED)
    config = ServerConfig(deadline_ms=DEADLINE_MS, execute=False, seed=SEED,
                          resilience=resilient,
                          exec_timeout_factor=TIMEOUT_FACTOR,
                          max_retries=MAX_RETRIES)
    server = Server(ladder, config, faults=scenario.injector())
    return server.run_trace(trace)


def test_bench_straggler_storm(ladder, trace, benchmark):
    """Resilience holds <5% misses where the undefended engine blows up."""
    resilient = benchmark(_run, ladder, trace, True)
    undefended = _run(ladder, trace, False)

    lines = [f"{'engine':12s} {'miss%':>8} {'timeouts':>9} {'retries':>8} "
             f"{'breaker':>8} {'dropped':>8}"]
    for name, res in (("resilient", resilient), ("undefended", undefended)):
        c = res.metrics.counters
        lines.append(
            f"{name:12s} {100 * res.metrics.miss_rate:>8.2f} "
            f"{c['timeouts'].value:>9d} {c['retries'].value:>8d} "
            f"{c['breaker_opens'].value:>8d} {c['dropped'].value:>8d}")
    lines.append(f"straggler-storm seed {SEED}, {REQUESTS} Poisson "
                 f"requests, deadline {DEADLINE_MS} ms, "
                 f"timeout {TIMEOUT_FACTOR}x predicted, "
                 f"max {MAX_RETRIES} retries")
    emit("faults_chaos", lines)

    assert resilient.metrics.miss_rate < 0.05
    assert undefended.metrics.miss_rate > 0.20
    # resilience never loses requests, it re-routes them
    c = resilient.metrics.counters
    assert c["completed"].value + c["dropped"].value == c["admitted"].value
    assert c["timeouts"].value > 0


def test_bench_chaos_deterministic_across_hashseeds(benchmark):
    """Two interpreters with different hash seeds -> identical snapshots.

    Before the stable_seed fix, the samplers were seeded from
    ``hash((name, spec))``, so the whole chaos replay differed between
    processes — "reproducible" numbers that changed on every run.
    """
    code = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from repro.device import xavier\n"
        "from repro.faults import build_scenario\n"
        "from repro.serve import (Server, ServerConfig, TRNLadder,\n"
        "                         poisson_trace)\n"
        "from repro.zoo import build_network\n"
        "base = build_network('mobilenet_v1_0.5').build(0)\n"
        "ladder = TRNLadder.from_base(base, xavier(), num_classes=5,\n"
        "                             max_rungs=6)\n"
        "trace = poisson_trace(%d, 1e3 / ladder.rungs[0].estimate_ms(1),\n"
        "                      %r, rng=%d)\n"
        "sc = build_scenario('straggler-storm', trace[-1].arrival_ms,\n"
        "                    seed=%d)\n"
        "server = Server(ladder, ServerConfig(deadline_ms=%r,\n"
        "    execute=False, seed=%d, resilience=True,\n"
        "    exec_timeout_factor=%r, max_retries=%d),\n"
        "    faults=sc.injector())\n"
        "result = server.run_trace(trace)\n"
        "print(json.dumps(result.metrics.snapshot(), sort_keys=True))\n"
    ) % (os.path.join(REPO, "src"), REQUESTS, DEADLINE_MS, SEED, SEED,
         DEADLINE_MS, SEED, TIMEOUT_FACTOR, MAX_RETRIES)

    def replay(hashseed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout

    first = benchmark.pedantic(replay, args=("0",), rounds=1)
    second = replay("31337")
    assert first == second
    assert json.loads(first)["counters"]["completed"] > 0
