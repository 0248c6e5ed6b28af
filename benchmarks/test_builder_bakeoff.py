"""Ladder-builder Pareto bake-off — acceptance for the builder subsystem.

Every registered :class:`repro.netcut.LadderBuilder` strategy (greedy
layer removal, filter pruning, HALP global channel selection, DP depth
selection) builds rungs for the same zoo nets on the same simulated
device, and the bake-off asserts the contract the serving stack relies
on: every rung is a valid, servable network (forwards, round-trips
through the deployment artifact format with its builder tag intact,
loads into a TRN ladder); and the mixed-strategy ladder's Pareto
frontier dominates-or-ties each single-strategy ladder — both
geometrically (:func:`repro.metrics.frontier_dominates`) and under the
seeded Poisson overload, where serving the mixed frontier must miss no
more deadlines than serving any single strategy's frontier.

Fast path: everything here is analytic/virtual-time over rng-0 weights —
no Workbench, no pretraining — so it belongs to the bench-smoke subset.
"""

import numpy as np
import pytest

from repro.device import xavier
from repro.metrics import accuracy_at_deadline, frontier_dominates
from repro.netcut import (
    BUILDERS,
    artifact_points,
    build_rungs,
    frontier_artifacts,
    load_artifact,
    save_artifact,
)
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import poisson_trace
from repro.zoo import build_network

from conftest import emit

NETS = ["mobilenet_v1_0.5", "resnet50"]
MAX_RUNGS = 4
DEADLINE_FRAC = 0.6
REQUESTS = 400
SEED = 0


@pytest.fixture(scope="module", params=NETS)
def bakeoff(request):
    """(net name, per-strategy artifacts, deadline) for one zoo net."""
    spec = xavier()
    base = build_network(request.param).build(0)
    per_strategy = build_rungs(base, spec, max_rungs=MAX_RUNGS)
    full_ms = max(p.latency_ms
                  for p in artifact_points(per_strategy["greedy"]))
    return request.param, per_strategy, spec, DEADLINE_FRAC * full_ms


def _serve(artifacts, spec, deadline_ms, trace):
    """Accuracy-weighted on-time goodput of one ladder on a shared trace.

    Goodput is the bake-off's serving-level objective: accuracy actually
    delivered before the deadline, per offered request — it charges both
    misses and rejections, so ladders that reject everything score 0
    instead of showing a flattering 0% miss rate.
    """
    accuracy = {a.trn_name: a.accuracy for a in artifacts}
    ladder = TRNLadder.from_artifacts(artifacts, spec)
    config = ServerConfig(deadline_ms=deadline_ms, execute=False, seed=SEED,
                          queue_capacity=64, window=16, min_observations=8,
                          cooldown=8)
    result = Server(ladder, config).run_trace(trace)
    on_time = [r for r in result.completed if r.deadline_met]
    return sum(accuracy[r.rung] for r in on_time) / len(trace), result


def test_every_strategy_emits_valid_servable_rungs(bakeoff, tmp_path):
    name, per_strategy, spec, deadline_ms = bakeoff
    assert sorted(per_strategy) == sorted(BUILDERS)
    x = np.zeros((2, 32, 32, 3), dtype=np.float64)
    for strategy, artifacts in per_strategy.items():
        assert artifacts, f"{strategy} emitted no rungs for {name}"
        names = [a.trn_name for a in artifacts]
        assert len(set(names)) == len(names)
        for artifact in artifacts:
            assert artifact.builder == strategy
            assert artifact.measured_latency_ms > 0
            assert 0.0 <= artifact.accuracy <= 1.0
            out = artifact.network.forward(x)
            assert out.shape[0] == 2 and np.all(np.isfinite(out))
            # servable end to end: artifact -> disk -> ladder rung
            path = str(tmp_path / f"{artifact.trn_name}.npz")
            save_artifact(artifact, path)
            loaded = load_artifact(path)
            assert loaded.builder == strategy
            assert loaded.measured_latency_ms == artifact.measured_latency_ms
        ladder = TRNLadder.from_artifacts(artifacts, spec)
        assert len(ladder.rungs) == len(artifacts)
        assert all(r.estimate_ms(1) > 0 for r in ladder.rungs)


def test_mixed_frontier_dominates_every_single_strategy(bakeoff):
    name, per_strategy, spec, deadline_ms = bakeoff
    mixed = [a for strategy in sorted(per_strategy)
             for a in per_strategy[strategy]]
    mixed_points = artifact_points(mixed)
    rows = [f"# builder bake-off: {name} @ {spec.name}, "
            f"deadline {deadline_ms:.4f} ms",
            f"{'strategy':>14}  {'rungs':>5}  {'acc@deadline':>12}"]
    for strategy in sorted(per_strategy):
        points = artifact_points(per_strategy[strategy])
        assert frontier_dominates(mixed_points, points), (
            f"mixed frontier fails to dominate {strategy} on {name}")
        single = accuracy_at_deadline(points, deadline_ms)
        assert (accuracy_at_deadline(mixed_points, deadline_ms)
                >= single or np.isnan(single))
        rows.append(f"{strategy:>14}  {len(points):>5d}  {single:>12.4f}")
    rows.append(f"{'mixed':>14}  {len(mixed_points):>5d}  "
                f"{accuracy_at_deadline(mixed_points, deadline_ms):>12.4f}")
    front = frontier_artifacts(mixed)
    rows.append("")
    rows.append(f"# mixed frontier ({len(front)} rungs, slowest first)")
    for a in front:
        rows.append(f"{a.trn_name:>40}  {a.measured_latency_ms:>10.4f}  "
                    f"{a.accuracy:>8.4f}  [{a.builder}]")
    emit(f"builder_bakeoff_{name}", rows)
    # the mixed frontier is genuinely mixed: >1 strategy contributes
    assert len({a.builder for a in front}) > 1


def test_mixed_ladder_serves_overload_at_least_as_well(bakeoff):
    name, per_strategy, spec, deadline_ms = bakeoff
    mixed = [a for strategy in sorted(per_strategy)
             for a in per_strategy[strategy]]
    full_ms = max(a.measured_latency_ms for a in mixed)
    trace = poisson_trace(REQUESTS, 1.2e3 / full_ms, deadline_ms, rng=SEED)
    mixed_goodput, mixed_result = _serve(frontier_artifacts(mixed), spec,
                                         deadline_ms, trace)
    assert mixed_goodput > 0
    for strategy in sorted(per_strategy):
        single_goodput, _ = _serve(frontier_artifacts(per_strategy[strategy]),
                                   spec, deadline_ms, trace)
        # dominates-or-ties, with a small slack for hysteresis-controller
        # path differences (more rungs -> different step sequences)
        assert mixed_goodput >= 0.97 * single_goodput, (
            f"mixed ladder under-delivers vs {strategy} on {name}: "
            f"{mixed_goodput:.4f} vs {single_goodput:.4f}")
    # the served ladder carries its builder tags into the metrics surface
    ladder_snapshot = mixed_result.metrics.snapshot()["ladder"]
    assert {r["builder"] for r in ladder_snapshot} - {""}, (
        "served rungs lost their builder tags")
