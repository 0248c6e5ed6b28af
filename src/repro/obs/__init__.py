"""Observability for the NetCut stack: trace, measure, and watch for drift.

NetCut's estimator is itself an observability artifact — a per-layer
latency table (:func:`repro.device.profile_network`) scaled by a
removed/total ratio — and the serving stack's control decisions all ride
on that estimate. This subpackage makes the instrumentation first-class:

- :class:`Tracer` / :class:`TraceBuffer` / :class:`Span` — request spans
  (``enqueue → admit → batch → forward → respond``, ``drop``) over the
  serving engine's virtual clock, exportable as JSONL
  (:func:`write_jsonl`) or ``chrome://tracing`` files
  (:func:`write_chrome_trace`).
- :class:`DriftMonitor` — an online comparator of predicted vs. observed
  service times that raises structured :class:`DriftEvent`\\ s when the
  rolling relative error crosses a threshold.
- :class:`Telemetry` — labeled metric families (:class:`Counter` /
  :class:`Gauge` / :class:`LatencyHistogram` children keyed by
  ``tenant``/``rung``/``replica``/``kernel`` labels) backed by a
  ring-buffer :class:`TimeSeriesStore` sampled on the virtual clock, with
  OpenMetrics text exposition (:func:`to_openmetrics`) and JSON export
  (:func:`to_json`).
- :class:`AlertEngine` — multi-window SLO burn-rate alerting
  (:class:`BurnRateRule`, :func:`default_slo_rules`) over the store,
  firing/resolving deterministically in virtual time.
- :func:`evaluate_gate` / :class:`GateRule` — the bench-regression gate:
  fresh ``BENCH_*.json`` payloads vs committed baselines under per-metric
  tolerances, failing CI with a movers table when a number slides. With
  ``rules=()`` it diffs any two runs' payloads, biggest movers first.

Attach to a server with plain keyword arguments::

    tracer, drift = Tracer(), DriftMonitor()
    telemetry = Telemetry(sample_interval_ms=1.0)
    telemetry.attach_alerts(AlertEngine(default_slo_rules(0.9)))
    server = Server(ladder, config, tracer=tracer, drift=drift,
                    telemetry=telemetry)
    server.run_trace(trace)
    print(to_openmetrics(telemetry))
    write_chrome_trace(tracer, "serve.trace.json")
"""

from .alerts import AlertEngine, AlertEvent, BurnRateRule, default_slo_rules
from .drift import DriftEvent, DriftMonitor
from .gate import (
    DEFAULT_RULES,
    GateFinding,
    GateReport,
    GateRule,
    evaluate_gate,
    load_bench_dir,
    run_gate,
)
from .export import chrome_trace, to_jsonl, write_chrome_trace, write_jsonl
from .telemetry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricFamily,
    Telemetry,
    TimeSeriesStore,
    to_json,
    to_openmetrics,
)
from .tracing import Span, TraceBuffer, Tracer

__all__ = [
    "Span",
    "TraceBuffer",
    "Tracer",
    "to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "DriftEvent",
    "DriftMonitor",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "TimeSeriesStore",
    "Telemetry",
    "to_openmetrics",
    "to_json",
    "BurnRateRule",
    "AlertEvent",
    "AlertEngine",
    "default_slo_rules",
    "GateRule",
    "GateFinding",
    "GateReport",
    "DEFAULT_RULES",
    "evaluate_gate",
    "load_bench_dir",
    "run_gate",
]
