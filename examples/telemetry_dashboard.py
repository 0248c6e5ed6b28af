"""Telemetry demo: a terminal dashboard over one chaos-struck serve run.

One seeded straggler-storm replay with the full observability stack
attached — labeled metric families sampled into the ring-buffer
time-series store on the virtual clock, the two canonical SLO burn-rate
rules — then everything is rendered from the *recorded* data, the way a
real dashboard reads a metrics backend:

1. **Sparklines** — queue depth, windowed p99, offered arrival rate and
   the deadline-miss burn rate (a counter-delta ratio, computed from the
   stored series exactly like the alert engine computes it), bucketed
   over the run's virtual time span.
2. **Alert timeline** — both rules fire mid-storm and resolve in the
   quiet tail; the firing window is marked under the sparklines.
3. **Run diff** — a second seed is replayed and the two runs' final
   metrics are diffed by the bench gate with no rules, the biggest
   relative movers first.

Everything is virtual-time and seeded: the dashboard prints the same
pixels on every machine.

Run:  python examples/telemetry_dashboard.py
"""

from repro.device import xavier
from repro.faults import build_scenario
from repro.obs import (
    AlertEngine,
    Telemetry,
    default_slo_rules,
    evaluate_gate,
    to_json,
    to_openmetrics,
)
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import poisson_trace
from repro.zoo import build_network

REQUESTS = 800
DEADLINE_MS = 2.5
SEED = 2
WIDTH = 64                      # dashboard columns
TICKS = " .:-=+*#%@"            # ASCII intensity ramp


def sparkline(points, t_hi: float, width: int = WIDTH) -> str:
    """Bucket ``(t_ms, value)`` points into a fixed-width intensity row."""
    cells: list[list[float]] = [[] for _ in range(width)]
    for t, v in points:
        if v != v:                                    # NaN: not yet warm
            continue
        col = min(width - 1, int(t / t_hi * width))
        cells[col].append(v)
    means = [sum(c) / len(c) if c else None for c in cells]
    finite = [m for m in means if m is not None]
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    out = []
    for m in means:
        if m is None:
            out.append(" ")
        else:
            out.append(TICKS[int((m - lo) / span * (len(TICKS) - 1))])
    return "".join(out), lo, hi


def row(label: str, points, t_hi: float) -> None:
    line, lo, hi = sparkline(points, t_hi)
    print(f"  {label:24s} |{line}|  {lo:8.2f} .. {hi:8.2f}")


def burn_rate(telemetry, t_hi: float):
    """Miss/completed ratio per bucket, from the stored counter series."""
    store = telemetry.store
    miss = store.series("serve_requests_total", (("event", "deadline_miss"),))
    done = store.series("serve_requests_total", (("event", "completed"),))
    points = []
    window = t_hi / WIDTH
    for i in range(WIDTH):
        t0, t1 = i * window, (i + 1) * window
        dm = _delta(miss, t0, t1)
        dc = _delta(done, t0, t1)
        if dc:
            points.append((t0, dm / dc))
    return points


def _delta(series, t0: float, t1: float) -> float:
    inside = [v for t, v in series if t0 <= t < t1]
    before = [v for t, v in series if t < t0]
    if not inside:
        return 0.0
    return inside[-1] - (before[-1] if before else 0.0)


def replay(seed: int):
    """One telemetered storm replay; returns (result, telemetry, alerts)."""
    base = build_network("mobilenet_v1_0.5").build(0)
    ladder = TRNLadder.from_base(base, xavier(), num_classes=5, max_rungs=6)
    rate = 0.65e3 / ladder.rungs[0].estimate_ms(1)
    trace = poisson_trace(REQUESTS, rate, DEADLINE_MS, rng=seed)
    scenario = build_scenario("straggler-storm",
                              trace[-1].arrival_ms * 0.5, seed=0)
    telemetry = Telemetry(sample_interval_ms=1.0)
    alerts = AlertEngine(default_slo_rules(DEADLINE_MS, miss_budget=0.05,
                                           fast_ms=8.0, slow_ms=24.0))
    telemetry.attach_alerts(alerts)
    config = ServerConfig(deadline_ms=DEADLINE_MS, execute=False,
                          seed=seed, adaptive=False)
    server = Server(ladder, config, faults=scenario.injector(),
                    telemetry=telemetry)
    return server.run_trace(trace), telemetry, alerts, scenario


def main() -> None:
    result, telemetry, alerts, scenario = replay(SEED)
    t_hi = max(t for t, _ in telemetry.store.series("serve_queue_depth", ()))

    print("=== 1. sparklines from the time-series store "
          f"(0 .. {t_hi:.0f} virtual ms, {WIDTH} buckets)")
    print(f"  {scenario.describe().splitlines()[0]}")
    store = telemetry.store
    row("queue depth", store.series("serve_queue_depth", ()), t_hi)
    row("windowed p99 (ms)", store.series("serve_recent_p99_ms", ()), t_hi)
    row("arrival rate (rps)",
        store.series("serve_arrival_rate_rps", ()), t_hi)
    row("miss burn rate", burn_rate(telemetry, t_hi), t_hi)

    print("\n=== 2. the SLO burn-rate alert timeline over the same run")
    print(alerts.report())
    firing = [e.time_ms for e in alerts.events if e.state == "firing"]
    resolved = [e.time_ms for e in alerts.events if e.state == "resolved"]
    marks = [" "] * WIDTH
    for t0 in firing:
        t1 = min((t for t in resolved if t > t0), default=t_hi)
        for col in range(int(t0 / t_hi * WIDTH),
                         min(WIDTH, int(t1 / t_hi * WIDTH) + 1)):
            marks[col] = "^"
    print(f"  {'alerts firing':24s} |{''.join(marks)}|")

    print("\n=== 3. diff both seeds' final metrics, biggest movers first")
    _, telemetry_b, _, _ = replay(SEED + 1)
    report = evaluate_gate({"run": to_json(telemetry)["metrics"]},
                           {"run": to_json(telemetry_b)["metrics"]},
                           rules=())
    for line in report.table(top=5).splitlines():
        print(f"  {line}")

    print("\n=== 4. the same surface, as OpenMetrics exposition (head)")
    for line in to_openmetrics(telemetry).splitlines()[:8]:
        print(f"  {line}")
    print(f"  ... ({len(to_openmetrics(telemetry).splitlines())} lines, "
          f"miss rate {100 * result.metrics.miss_rate:.1f}%, "
          f"final alerts active: {', '.join(alerts.active) or 'none'})")


if __name__ == "__main__":
    main()
