"""Markdown report generation for a full reproduction run.

``build_report(wb)`` assembles every experiment of the paper — the
off-the-shelf trade-off, the TRN sweep, the estimator comparison and the
NetCut selections — into one markdown document with the paper's reference
numbers alongside, so a run can be archived or diffed against earlier ones.
Used by ``examples/generate_report.py`` and the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.model_selection import relative_error
from repro.metrics.pareto import (
    CandidatePoint,
    best_under_deadline,
    pareto_frontier,
    relative_improvement,
)
from repro.netcut.accounting import compare_costs

__all__ = ["build_report", "estimator_errors"]


def _table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |"
                 for row in rows)
    return "\n".join(lines)


def _offtheshelf_section(wb, exploration) -> str:
    rows = []
    for r in sorted(exploration.originals(), key=lambda r: r.latency_ms):
        verdict = "meets" if r.latency_ms <= wb.config.deadline_ms else "misses"
        rows.append([r.base_name, f"{r.latency_ms:.3f}",
                     f"{r.accuracy:.4f}", verdict])
    return ("## Off-the-shelf networks (Fig. 1)\n\n"
            + _table(["network", "latency (ms)", "accuracy",
                      f"{wb.config.deadline_ms} ms deadline"], rows))


def _sweep_section(wb, exploration) -> str:
    rows = []
    for name in wb.config.networks:
        recs = exploration.for_base(name)
        origin = next(r for r in recs if r.blocks_removed == 0)
        best = max(recs, key=lambda r: r.accuracy)
        deepest = recs[-1]
        rows.append([name, len(recs) - 1, f"{origin.accuracy:.4f}",
                     f"{best.accuracy:.4f}", f"{deepest.accuracy:.4f}"])
    return ("## Blockwise TRN sweep (Figs 4-6)\n\n"
            + _table(["network", "TRNs", "origin acc", "best TRN acc",
                      "deepest-cut acc"], rows)
            + f"\n\nTotal TRNs explored: "
              f"{sum(1 for r in exploration.records if r.blocks_removed)}"
              f" (paper: 148); simulated retraining cost "
              f"{exploration.total_train_hours:.1f} K20m GPU-hours.")


def _pareto_section(wb, exploration) -> str:
    points = [CandidatePoint(r.trn_name, r.latency_ms, r.accuracy)
              for r in exploration.records]
    offshelf = [CandidatePoint(r.base_name, r.latency_ms, r.accuracy)
                for r in exploration.originals()]
    deadline = wb.config.deadline_ms
    baseline = best_under_deadline(offshelf, deadline)
    best = best_under_deadline(points, deadline)
    gain = relative_improvement(baseline, best)
    frontier = pareto_frontier(points)
    rows = [[p.name, f"{p.latency_ms:.3f}", f"{p.accuracy:.4f}"]
            for p in frontier]
    return ("## Pareto frontier (Fig. 7)\n\n"
            + _table(["frontier member", "latency (ms)", "accuracy"], rows)
            + f"\n\nAt the {deadline} ms deadline: baseline "
              f"{baseline.name} ({baseline.accuracy:.4f}) -> best TRN "
              f"{best.name} ({best.accuracy:.4f}), relative improvement "
              f"**{gain:+.2f}%** (paper: up to +10.43%).")


def estimator_errors(wb) -> dict[str, tuple[float, float, float]]:
    """Relative error (%) of the profiler, ε-SVR and linear estimators.

    Measured on the latency dataset (Fig. 9): one ``(profiler, svr,
    linear)`` triple per network of ``wb.config.networks``, plus ``"all"``
    over every point.
    """
    points = wb.latency_dataset()
    truth = np.array([p.measured_ms for p in points])
    profiler = wb.profiler_adapter()
    # a LatencyPoint names its cut node the way a Cutpoint does
    prof = np.array([profiler.estimate(wb.base(p.base_name), p)
                     for p in points])
    svr, _ = wb.analytical_model("rbf")
    lin, _ = wb.analytical_model("linear-ols")
    feats = [p.features for p in points]
    preds = (prof, svr.predict(feats), lin.predict(feats))
    names = np.array([p.base_name for p in points])
    masks = {net: names == net for net in wb.config.networks}
    masks["all"] = np.ones(len(points), dtype=bool)
    return {net: tuple(relative_error(pred[mask], truth[mask])
                       for pred in preds)
            for net, mask in masks.items()}


def _estimator_section(wb) -> str:
    errors = estimator_errors(wb)
    rows = [[net, *(f"{e:.2f}%" for e in errors[net])]
            for net in wb.config.networks]
    rows.append(["**all**", *(f"**{e:.2f}%**" for e in errors["all"])])
    return ("## Latency estimators (Figs 8-9)\n\n"
            + _table(["network", "profiler", "ε-SVR (RBF)", "linear (OLS)"],
                     rows)
            + "\n\nPaper averages: profiler 3.5% (0.024 ms), SVR 4.28% "
              "(0.029 ms), linear 23.81% (0.092 ms).")


def _netcut_section(wb, exploration) -> str:
    sections = []
    results = []
    for estimator in ("profiler", "analytical"):
        result = wb.netcut(estimator)
        results.append(result)
        rows = [[c.base_name, c.trn_name, c.blocks_removed,
                 f"{c.estimated_latency_ms:.3f}",
                 f"{c.measured_latency_ms:.3f}", f"{c.accuracy:.4f}"]
                for c in result.candidates]
        best = result.best
        sections.append(
            f"### {estimator} estimator\n\n"
            + _table(["base", "proposed TRN", "blocks removed", "est (ms)",
                      "meas (ms)", "accuracy"], rows)
            + f"\n\nWinner: **{best.trn_name}** "
              f"(accuracy {best.accuracy:.4f}).")
    comparison = compare_costs(exploration, *results)
    sections.append("### Exploration cost (Algorithm 1)\n\n"
                    + comparison.summary()
                    + "\n\nPaper: 95% fewer networks, 27x faster "
                      "(183 h -> 6.7 h).")
    return "## NetCut selections (Fig. 10)\n\n" + "\n\n".join(sections)


def _serving_section(wb) -> str:
    from repro.serve import Server, ServerConfig, TRNLadder
    from repro.workload import poisson_trace
    from repro.zoo import build_network

    base = build_network(wb.config.networks[0]).build(0)
    ladder = TRNLadder.from_base(base, wb.device,
                                 num_classes=wb.config.num_classes,
                                 max_rungs=4)
    full_ms = ladder.rungs[0].estimate_ms(1)
    deadline = 1.6 * full_ms
    trace = poisson_trace(600, 1.3e3 / full_ms, deadline, rng=0)
    rows = []
    for label, adaptive in (("TRN ladder", True), ("full TRN only", False)):
        server = Server(ladder, ServerConfig(
            deadline_ms=deadline, execute=False, seed=0, adaptive=adaptive,
            admission_control=False))
        m = server.run_trace(trace).metrics
        snap = m.snapshot()
        rows.append([label, f"{100 * m.miss_rate:.2f}%",
                     f"{snap['latency']['p99_ms']:.3f}",
                     snap["counters"]["degrade_events"]
                     + snap["counters"]["upgrade_events"]])
    return ("## Deadline-aware serving (beyond the paper)\n\n"
            + _table(["policy", "miss rate", "p99 (ms)", "transitions"],
                     rows)
            + f"\n\n{base.name} under 1.3x overload (600 Poisson requests, "
              f"deadline {deadline:.3f} ms = 1.6x the full TRN): degrading "
              "along the TRN ladder trades accuracy for deadline "
              "compliance instead of missing wholesale.")


def _observability_section(wb) -> str:
    from repro.estimators import ProfilerEstimator
    from repro.device import profile_network
    from repro.obs import DriftMonitor, Tracer
    from repro.serve import Server, ServerConfig, TRNLadder
    from repro.workload import poisson_trace
    from repro.trim import enumerate_blockwise, removed_node_set
    from repro.zoo import build_network

    base = build_network(wb.config.networks[0]).build(0)
    table = profile_network(base, wb.device, rng=0)
    slowest = sorted(table.records, key=lambda r: -r.recorded_ms)[:5]
    rows = [[r.anchor, len(r.node_names), f"{r.recorded_ms:.5f}",
             f"{100 * r.recorded_ms / table.recorded_total_ms:.2f}%"]
            for r in slowest]
    cut = enumerate_blockwise(base)[len(enumerate_blockwise(base)) // 2]
    removed = removed_node_set(base, cut.cut_node)
    est = ProfilerEstimator(base, table).estimate(removed)

    ladder = TRNLadder.from_base(base, wb.device,
                                 num_classes=wb.config.num_classes,
                                 max_rungs=4)
    full_ms = ladder.rungs[0].estimate_ms(1)
    tracer, drift = Tracer(), DriftMonitor()
    server = Server(ladder, ServerConfig(deadline_ms=1.6 * full_ms,
                                         execute=False, seed=0),
                    tracer=tracer, drift=drift)
    server.run_trace(poisson_trace(300, 1.3e3 / full_ms,
                                   1.6 * full_ms, rng=0))
    spans = ", ".join(f"{name}: {n}"
                      for name, n in tracer.snapshot()["by_name"].items())
    return ("## Observability (beyond the paper)\n\n"
            + _table(["slowest kernel", "fused nodes", "recorded (ms)",
                      "share"], rows)
            + f"\n\nPer-kernel profile of {base.name}: "
              f"recorded total {table.recorded_total_ms:.4f} ms > "
              f"end-to-end {table.end_to_end_ms:.4f} ms, reproducing the "
              "paper's event-overhead artefact; the ratio-form estimate at "
              f"cutpoint `{cut.cut_node}` is {est:.4f} ms. A traced "
              f"serving replay (300 requests) emitted spans {spans}; "
              f"estimator drift monitor: "
              f"{'DRIFTING' if drift.drifting else 'ok'} "
              f"(rolling error {100 * drift.rolling_error:.2f}%).")


def build_report(wb) -> str:
    """Assemble the full markdown report for a workbench."""
    exploration = wb.exploration()
    parts = [
        "# NetCut reproduction report",
        f"Configuration: {len(wb.config.networks)} networks, "
        f"{wb.config.hands_images} HANDS images, deadline "
        f"{wb.config.deadline_ms} ms, device `{wb.device.name}`.",
        _offtheshelf_section(wb, exploration),
        _sweep_section(wb, exploration),
        _pareto_section(wb, exploration),
        _estimator_section(wb),
        _netcut_section(wb, exploration),
        _serving_section(wb),
        _observability_section(wb),
    ]
    return "\n\n".join(parts) + "\n"
