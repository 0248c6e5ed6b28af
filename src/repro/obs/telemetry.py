"""Labeled time-series telemetry over the serving stack's virtual clock.

This module is the home of the metric primitives the rest of the repo
consumes (:class:`Counter`, :class:`Gauge`, :class:`LatencyHistogram`),
plus the label model and time dimension on top of them:

- :class:`MetricFamily` — one named metric with a fixed label schema
  (``serve_requests_total{event=...,tenant=...}``); children are created
  lazily per label combination, Prometheus-style.
- :class:`TimeSeriesStore` — bounded ring buffers of ``(t_ms, value)``
  points per (metric, labels) key, sampled on the *virtual* clock so a
  run's evolution is deterministic and replayable; counters get windowed
  deltas, gauges windowed means, and any series can be merged across one
  label (how :class:`repro.cluster.ClusterMetrics` folds replicas).
- :class:`Telemetry` — the registry tying it together: family creation,
  keyed sample-time collectors (queue depth, ladder cursor, fair-share
  gauges), interval-gated :meth:`~Telemetry.maybe_sample`, and an
  optional :class:`repro.obs.alerts.AlertEngine` evaluated at every
  sample.
- :func:`to_openmetrics` / :func:`to_json` — Prometheus/OpenMetrics text
  exposition (summary-style histograms) and a JSON export of the same
  surface plus the stored series.

Everything here is deliberately serve-agnostic: the serving stack
imports telemetry, never the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "TimeSeriesStore",
    "Telemetry",
    "to_openmetrics",
    "to_json",
]

LabelKey = tuple[tuple[str, str], ...]


# -- primitives ----------------------------------------------------------------

@dataclass
class Counter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def increment(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """A named value that goes up and down (queue depth, current rung, ...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class LatencyHistogram:
    """Streaming histogram over log-spaced bins (default 1 µs .. 10 s).

    Quantiles are estimated as the geometric midpoint of the bin holding
    the requested rank, which bounds the relative error by the bin ratio
    (~12% at 20 bins/decade) without retaining samples.
    """

    def __init__(self, lo_ms: float = 1e-3, hi_ms: float = 1e4,
                 bins_per_decade: int = 20):
        self.lo_ms = lo_ms
        self.hi_ms = hi_ms
        decades = math.log10(hi_ms / lo_ms)
        self.n_bins = int(round(decades * bins_per_decade))
        self._ratio = (hi_ms / lo_ms) ** (1.0 / self.n_bins)
        self._log_ratio = math.log(self._ratio)
        # two extra bins catch under/overflow
        self.counts = [0] * (self.n_bins + 2)
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    def observe(self, ms: float) -> None:
        """Record one latency sample (milliseconds)."""
        if ms < self.lo_ms:
            i = 0
        elif ms >= self.hi_ms:
            i = self.n_bins + 1
        else:
            i = 1 + int(math.log(ms / self.lo_ms) / self._log_ratio)
        self.counts[i] += 1
        self.count += 1
        self.total_ms += ms
        if ms < self.min_ms:
            self.min_ms = ms
        if ms > self.max_ms:
            self.max_ms = ms

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else float("nan")

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one (cluster roll-up).

        Bin-exact because both histograms share the log-spaced layout;
        histograms with different bounds or resolutions cannot be merged
        without re-binning, so that is rejected.
        """
        if (other.lo_ms, other.hi_ms, other.n_bins) != \
                (self.lo_ms, self.hi_ms, self.n_bins):
            raise ValueError("cannot merge histograms with different bins")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total_ms += other.total_ms
        self.min_ms = min(self.min_ms, other.min_ms)
        self.max_ms = max(self.max_ms, other.max_ms)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) in milliseconds.

        The under/overflow bins have no geometric midpoint (their inner
        edge is the only boundary known), so they clamp to ``lo_ms`` and
        ``max_ms`` respectively — further bounded by the observed
        min/max, which keeps the estimate sane when every sample falls
        outside the binned range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * (self.count - 1)
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum > rank:
                if i == 0:                      # underflow: all < lo_ms
                    return min(self.lo_ms, self.max_ms)
                if i == self.n_bins + 1:        # overflow: clamp to max
                    return self.max_ms
                lo = self.lo_ms * self._ratio ** (i - 1)
                return min(max(lo * math.sqrt(self._ratio), self.min_ms),
                           self.max_ms)
        return self.max_ms

    def snapshot(self) -> dict:
        """Summary statistics as a plain dict."""
        empty = self.count == 0
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "min_ms": float("nan") if empty else self.min_ms,
            "max_ms": float("nan") if empty else self.max_ms,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
        }


# -- the label model ---------------------------------------------------------

class MetricFamily:
    """One named metric with a fixed label schema and lazy children.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; children
    are one primitive per distinct label-value combination, created on
    first touch::

        requests = telemetry.counter("serve_requests_total",
                                     "requests by life-cycle event",
                                     labelnames=("event", "tenant"))
        requests.labels(event="arrived", tenant="batch").increment()

    ``labels()`` returns the live child, so hot paths should resolve a
    child once and keep the bound handle rather than re-resolving per
    event.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "_children",
                 "_hist_kwargs")

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 hist_kwargs: dict | None = None):
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}
        self._hist_kwargs = dict(hist_kwargs or {})

    def _make(self):
        if self.kind == "counter":
            return Counter(self.name)
        if self.kind == "gauge":
            return Gauge(self.name)
        return LatencyHistogram(**self._hist_kwargs)

    def labels(self, **labelvalues):
        """The child for this label combination (created on first use)."""
        try:
            key = tuple(str(labelvalues[n]) for n in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}") from exc
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}")
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def child(self, values: tuple[str, ...] = ()):
        """Positional-label variant of :meth:`labels` (hot-path friendly)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label "
                f"values, got {len(values)}")
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make()
        return child

    def drop(self, suffix: tuple[str, ...] = ()) -> None:
        """Forget every child whose label values end with ``suffix``.

        The next touch creates them afresh at zero. A new serving run
        calls this for its fixed label values (``()`` for a lone server,
        ``(replica,)`` in a cluster), so a telemetry shared across runs
        exposes the current run's counts; a previous run still holding
        its old children keeps reading them unchanged.
        """
        cut = len(self.labelnames) - len(suffix)
        for values in [v for v in self._children if v[cut:] == suffix]:
            del self._children[values]

    def children(self):
        """Iterate ``(label_key, child)`` with label_key name/value pairs."""
        for values, child in self._children.items():
            yield tuple(zip(self.labelnames, values)), child

    def snapshot(self) -> dict:
        """The family as one JSON-able dict (children keyed by labels)."""
        out = {"kind": self.kind, "help": self.help,
               "labelnames": list(self.labelnames), "children": []}
        for key, child in sorted(self.children()):
            value = child.snapshot() if self.kind == "histogram" \
                else child.value
            out["children"].append({"labels": dict(key), "value": value})
        return out


# -- the time dimension ------------------------------------------------------

class TimeSeriesStore:
    """Bounded ring buffers of ``(t_ms, value)`` per (metric, labels) key.

    Appends must be in non-decreasing virtual time per key (the sampler
    guarantees this); reads never mutate. ``capacity`` bounds each
    series, so memory is O(series x capacity) no matter how long a run
    goes on.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 2:
            raise ValueError("series capacity must be >= 2")
        self.capacity = capacity
        self._series: dict[tuple[str, LabelKey], deque] = {}

    def __len__(self) -> int:
        return len(self._series)

    @staticmethod
    def _key(name: str, labels: dict | LabelKey | None) -> tuple:
        if labels is None:
            labels = ()
        if isinstance(labels, dict):
            labels = tuple(sorted((str(k), str(v))
                                  for k, v in labels.items()))
        return (name, tuple(labels))

    def record(self, name: str, labels, t_ms: float, value: float) -> None:
        """Append one point to the series (creating it on first touch)."""
        key = self._key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = deque(maxlen=self.capacity)
        series.append((t_ms, value))

    def series(self, name: str, labels=None) -> list[tuple[float, float]]:
        """The points of one exact (name, labels) series (empty if unknown)."""
        return list(self._series.get(self._key(name, labels), ()))

    def latest(self, name: str, labels=None) -> float | None:
        pts = self._series.get(self._key(name, labels))
        return pts[-1][1] if pts else None

    def delta(self, name: str, labels, window_ms: float,
              now_ms: float) -> float | None:
        """Counter increase over the trailing window ending at ``now_ms``.

        The baseline is the last point at or before ``now - window``; a
        series younger than the window baselines at zero (counters start
        at zero). Returns ``None`` when the series has no point inside
        the window — no evidence, not zero evidence.
        """
        pts = self._series.get(self._key(name, labels))
        if not pts:
            return None
        cutoff = now_ms - window_ms
        latest = None
        baseline = 0.0
        for t, v in pts:
            if t > now_ms:
                break
            if t <= cutoff:
                baseline = v
            else:
                latest = v
        if latest is None:
            return None
        return latest - baseline

    def window_mean(self, name: str, labels, window_ms: float,
                    now_ms: float) -> float | None:
        """Mean of the gauge points inside the trailing window."""
        pts = self._series.get(self._key(name, labels))
        if not pts:
            return None
        cutoff = now_ms - window_ms
        total, n = 0.0, 0
        for t, v in pts:
            if cutoff < t <= now_ms and v == v:   # skip NaN points
                total += v
                n += 1
        return total / n if n else None

    def merged(self, name: str, drop_label: str
               ) -> dict[LabelKey, list[tuple[float, float]]]:
        """Sum series across one label (step-function carry-forward).

        The cross-replica roll-up: every series of ``name`` that carries
        ``drop_label`` is grouped by its remaining labels, and within a
        group the values are summed at the union of all timestamps, each
        source contributing its last-known value between its own samples.
        Series without the label pass through unchanged.
        """
        groups: dict[LabelKey, list[deque]] = {}
        for (n, key), pts in self._series.items():
            if n != name:
                continue
            rest = tuple(kv for kv in key if kv[0] != drop_label)
            groups.setdefault(rest, []).append(pts)
        out: dict[LabelKey, list[tuple[float, float]]] = {}
        for rest, sources in groups.items():
            seqs = [list(pts) for pts in sources]
            times = sorted({t for seq in seqs for t, _ in seq})
            merged = []
            cursors = [0] * len(seqs)
            last = [0.0] * len(seqs)
            for t in times:
                for i, seq in enumerate(seqs):
                    while cursors[i] < len(seq) and seq[cursors[i]][0] <= t:
                        last[i] = seq[cursors[i]][1]
                        cursors[i] += 1
                merged.append((t, sum(last)))
            out[rest] = merged
        return out

    def snapshot(self) -> dict:
        """Every series as ``{name: [{labels, points}, ...]}`` (JSON-able)."""
        out: dict[str, list] = {}
        for (name, key), pts in sorted(self._series.items()):
            out.setdefault(name, []).append(
                {"labels": dict(key),
                 "points": [[t, v] for t, v in pts]})
        return out


# -- the registry ------------------------------------------------------------

class Telemetry:
    """Labeled metric families + virtual-clock sampling + alerting.

    One ``Telemetry`` instance is the monitoring surface of one serving
    stack (a server, a cluster, a benchmark run). Components create
    families idempotently (:meth:`counter` / :meth:`gauge` /
    :meth:`histogram`), register keyed *collectors* — callables invoked
    at sample time to refresh derived gauges — and the engine drives
    :meth:`maybe_sample` on its virtual clock, which snapshots every
    family into the :class:`TimeSeriesStore` and evaluates the attached
    :class:`~repro.obs.alerts.AlertEngine`.
    """

    def __init__(self, sample_interval_ms: float = 1.0,
                 capacity: int = 2048, tracer=None):
        if sample_interval_ms <= 0:
            raise ValueError("sample_interval_ms must be positive")
        self.sample_interval_ms = sample_interval_ms
        self.store = TimeSeriesStore(capacity)
        self.tracer = tracer
        self.families: dict[str, MetricFamily] = {}
        self.alerts = None
        self._collectors: dict[str, object] = {}
        self._last_sample_ms: float | None = None
        self.samples_taken = 0

    # -- family creation (idempotent, schema-checked) ------------------------
    def _family(self, name: str, kind: str, help: str,
                labelnames: tuple[str, ...],
                hist_kwargs: dict | None = None) -> MetricFamily:
        fam = self.families.get(name)
        if fam is None:
            fam = self.families[name] = MetricFamily(
                name, kind, help, labelnames, hist_kwargs)
        elif fam.kind != kind or fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind} with "
                f"labels {fam.labelnames}; cannot re-register as {kind} "
                f"with {tuple(labelnames)}")
        return fam

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  **hist_kwargs) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames, hist_kwargs)

    # -- collectors ----------------------------------------------------------
    def collector(self, key: str, fn) -> None:
        """Register (or replace) a sample-time callback ``fn(now_ms)``.

        Keyed replacement is what keeps repeated runs sane: a fresh
        engine registering under the same key supersedes the dead one
        instead of piling up stale closures.
        """
        self._collectors[key] = fn

    def remove_collector(self, key: str) -> None:
        self._collectors.pop(key, None)

    # -- alerting ------------------------------------------------------------
    def attach_alerts(self, engine) -> None:
        """Evaluate this :class:`~repro.obs.alerts.AlertEngine` per sample."""
        self.alerts = engine

    # -- sampling ------------------------------------------------------------
    def maybe_sample(self, now_ms: float) -> bool:
        """Sample iff the virtual clock advanced a full interval.

        A clock that moved *backwards* means a new run started on the
        same telemetry (every run's virtual time begins at zero), so the
        gate resets rather than going silent for the rest of the run.
        """
        last = self._last_sample_ms
        if last is not None and now_ms < last:
            self._last_sample_ms = None
            last = None
        if last is not None and now_ms - last < self.sample_interval_ms:
            return False
        self.sample(now_ms)
        return True

    def sample(self, now_ms: float) -> None:
        """Record every family into the store; collectors run first."""
        for key in sorted(self._collectors):
            self._collectors[key](now_ms)
        record = self.store.record
        for fam in self.families.values():
            if fam.kind == "histogram":
                for labels, hist in fam.children():
                    record(fam.name + "_count", labels, now_ms, hist.count)
                    record(fam.name + "_mean", labels, now_ms,
                           hist.mean_ms if hist.count else 0.0)
                    record(fam.name + "_p99", labels, now_ms,
                           hist.quantile(0.99) if hist.count else 0.0)
            else:
                for labels, child in fam.children():
                    record(fam.name, labels, now_ms, child.value)
        self._last_sample_ms = now_ms
        self.samples_taken += 1
        if self.alerts is not None:
            self.alerts.evaluate(now_ms, self.store)

    # -- read-out ------------------------------------------------------------
    def snapshot(self) -> dict:
        out = {
            "sample_interval_ms": self.sample_interval_ms,
            "samples_taken": self.samples_taken,
            "families": {name: fam.snapshot()
                         for name, fam in sorted(self.families.items())},
        }
        if self.alerts is not None:
            out["alerts"] = self.alerts.snapshot()
        return out

    def report(self) -> str:
        lines = [f"telemetry: {len(self.families)} families, "
                 f"{len(self.store)} series, "
                 f"{self.samples_taken} samples"]
        for name, fam in sorted(self.families.items()):
            for labels, child in sorted(fam.children()):
                label_str = ",".join(f"{k}={v}" for k, v in labels)
                tag = f"{name}{{{label_str}}}" if label_str else name
                if fam.kind == "histogram":
                    s = child.snapshot()
                    lines.append(
                        f"  {tag}: n={s['count']} p50 {s['p50_ms']:.3f} "
                        f"p99 {s['p99_ms']:.3f} ms")
                else:
                    lines.append(f"  {tag}: {child.value:g}")
        if self.alerts is not None:
            lines.append(self.alerts.report())
        return "\n".join(lines)


# -- exposition --------------------------------------------------------------

def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _labels_text(labels: LabelKey, extra: tuple = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _num(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


def to_openmetrics(telemetry: Telemetry) -> str:
    """Render every family in the Prometheus/OpenMetrics text format.

    Counters and gauges expose one sample per child; histograms expose
    summary-style ``quantile`` samples plus ``_sum``/``_count`` (the
    fixed-memory log-binned histogram reads out quantiles, not
    cumulative buckets). Families and children are emitted in sorted
    order, so the exposition is byte-deterministic for a given state.
    """
    lines: list[str] = []
    for name in sorted(telemetry.families):
        fam = telemetry.families[name]
        if fam.help:
            lines.append(f"# HELP {name} {fam.help}")
        kind = "summary" if fam.kind == "histogram" else fam.kind
        lines.append(f"# TYPE {name} {kind}")
        for labels, child in sorted(fam.children()):
            if fam.kind == "histogram":
                for q in (0.5, 0.95, 0.99):
                    lines.append(
                        f"{name}"
                        f"{_labels_text(labels, (('quantile', q),))} "
                        f"{_num(child.quantile(q))}")
                lines.append(f"{name}_sum{_labels_text(labels)} "
                             f"{_num(child.total_ms)}")
                lines.append(f"{name}_count{_labels_text(labels)} "
                             f"{child.count}")
            else:
                lines.append(f"{name}{_labels_text(labels)} "
                             f"{_num(child.value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def to_json(telemetry: Telemetry) -> dict:
    """The whole telemetry surface — families and stored series — as JSON."""
    return {"metrics": telemetry.snapshot(),
            "series": telemetry.store.snapshot()}
