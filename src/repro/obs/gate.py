"""Bench-regression gate: BENCH payloads vs committed baselines, thresholded.

CI's bench-smoke job produces ``BENCH_*.json`` each run. This module
turns them into a gate: every numeric leaf of the just-produced payloads
(flattened to ``file.dotted.path`` keys) is matched against
:class:`GateRule` patterns with per-metric tolerances — ratio floors for
higher-is-better metrics (throughput, speedup, accuracy-at-deadline),
absolute increase caps for lower-is-better rates (deadline misses) — and
any violation fails the gate with a readable table of movers.

Wall-clock caveat, encoded in the default rules: absolute samples/s
numbers vary with the runner, so the forward bench is gated only on its
*speedup* columns (compiled over interpreted on the same machine), which
is the stable signal. Everything else in the BENCH files
is virtual-time or analytic and deterministic.

Used by ``scripts/bench_gate.py`` (the CI step) and ``repro obs gate``
(the same thresholds from the CLI). The gate is also the way to diff two
runs: ``repro obs gate --baselines A --current B`` over two BENCH
directories, or ``evaluate_gate(a, b, rules=()).table()`` in process —
with no rules every key is informational and the table lists the biggest
relative movers first.
"""

from __future__ import annotations

import fnmatch
import json
import os
from dataclasses import dataclass, field

__all__ = ["GateRule", "GateFinding", "GateReport", "DEFAULT_RULES",
           "evaluate_gate", "load_bench_dir", "run_gate"]


def _numeric_leaves(obj, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric leaf of a JSON payload to ``dotted.path``."""
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = float(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(obj[key], path))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            out.update(_numeric_leaves(item, f"{prefix}[{i}]"))
    return out


@dataclass(frozen=True)
class GateRule:
    """One tolerance: keys matching ``pattern`` must stay within bounds.

    ``min_ratio`` — current must be ≥ ``min_ratio × baseline``
    (higher-is-better metrics). ``max_abs_increase`` — current must be ≤
    ``baseline + max_abs_increase`` (lower-is-better rates; e.g. ``0.02``
    allows +2pp on a miss rate). The first rule whose pattern matches a
    key governs it; unmatched keys are informational only.
    """

    pattern: str
    min_ratio: float | None = None
    max_abs_increase: float | None = None
    note: str = ""

    def check(self, baseline: float, current: float) -> str | None:
        """``None`` when within tolerance, else a short violation reason."""
        if self.min_ratio is not None:
            if baseline > 0 and current < self.min_ratio * baseline:
                return (f"{current:.6g} < {self.min_ratio:g}x baseline "
                        f"{baseline:.6g}")
            if baseline < 0 and current < baseline:  # already-negative floor
                return f"{current:.6g} below baseline {baseline:.6g}"
        if self.max_abs_increase is not None \
                and current > baseline + self.max_abs_increase:
            return (f"{current:.6g} > baseline {baseline:.6g} "
                    f"+ {self.max_abs_increase:g}")
        return None


#: The repo's tolerances. Order matters: first match governs a key.
DEFAULT_RULES: tuple[GateRule, ...] = (
    # compiled-forward throughput, runner-independent form
    GateRule("BENCH_forward.*speedup*", min_ratio=0.85,
             note="compiled speedup >= 0.85x baseline"),
    # deadline-miss rates move at most +2pp anywhere they appear
    GateRule("*miss_rate*", max_abs_increase=0.02,
             note="miss rates within +2pp absolute"),
    # serving/cluster throughput floors
    GateRule("*admitted_rps*", min_ratio=0.85,
             note="admitted throughput >= 0.85x baseline"),
    # the builder bake-off must not lose accuracy at the deadline
    GateRule("BENCH_builders.*accuracy_at_deadline*", min_ratio=0.98,
             note="accuracy-at-deadline >= 0.98x baseline"),
)


@dataclass(frozen=True)
class GateFinding:
    """One compared key: its values, governing rule, and verdict."""

    key: str
    baseline: float | None
    current: float | None
    rule: GateRule | None
    violation: str | None = None


@dataclass
class GateReport:
    """Outcome of one gate evaluation."""

    findings: list[GateFinding] = field(default_factory=list)

    @property
    def violations(self) -> list[GateFinding]:
        return [f for f in self.findings if f.violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def gated(self) -> list[GateFinding]:
        """Findings a rule with actual bounds governs."""
        return [f for f in self.findings if f.rule is not None
                and (f.rule.min_ratio is not None
                     or f.rule.max_abs_increase is not None)]

    def table(self, top: int = 20) -> str:
        """Readable movers table: violations first, then biggest movers."""
        def rel(f: GateFinding) -> float:
            if not f.baseline or f.current is None:
                return 0.0
            return abs(f.current - f.baseline) / abs(f.baseline)

        bounded = set(map(id, self.gated))
        rows = sorted(self.findings,
                      key=lambda f: (not f.violation, -rel(f),
                                     id(f) not in bounded, f.key))
        lines = [f"{'key':58s} {'baseline':>12} {'current':>12} verdict"]
        for f in rows[:max(top, len(self.violations))]:
            b = "-" if f.baseline is None else f"{f.baseline:12.6g}"
            c = "-" if f.current is None else f"{f.current:12.6g}"
            verdict = f.violation or ("ok" if f.rule is not None else "info")
            lines.append(f"{f.key[:58]:58s} {b:>12} {c:>12} {verdict}")
        if len(rows) > top:
            lines.append(f"... {len(rows) - top} more keys")
        status = "PASS" if self.ok else "FAIL"
        lines.append(f"gate: {status} — {len(self.gated)} gated keys, "
                     f"{len(self.violations)} violation(s)")
        return "\n".join(lines)


def _governing(key: str, rules) -> GateRule | None:
    for rule in rules:
        if fnmatch.fnmatch(key, rule.pattern):
            return rule
    return None


def evaluate_gate(baseline: dict[str, dict], current: dict[str, dict],
                  rules: "tuple[GateRule, ...]" = DEFAULT_RULES
                  ) -> GateReport:
    """Compare payload dicts (``name → JSON payload``) under the rules.

    Baseline files absent from the current run are a violation for gated
    keys (a benchmark silently disappearing must not pass); current files
    without a baseline are informational (a new benchmark gates once its
    baseline is committed).
    """
    report = GateReport()
    for name in sorted(baseline):
        base_leaves = _numeric_leaves(baseline[name], name)
        cur_leaves = (_numeric_leaves(current[name], name)
                      if name in current else {})
        for key in sorted(base_leaves):
            rule = _governing(key, rules)
            bounded = rule is not None and (
                rule.min_ratio is not None
                or rule.max_abs_increase is not None)
            if key not in cur_leaves:
                report.findings.append(GateFinding(
                    key, base_leaves[key], None, rule,
                    "missing from current run" if bounded else None))
                continue
            violation = (rule.check(base_leaves[key], cur_leaves[key])
                         if rule is not None else None)
            report.findings.append(GateFinding(
                key, base_leaves[key], cur_leaves[key], rule, violation))
    for name in sorted(set(current) - set(baseline)):
        for key, value in sorted(_numeric_leaves(current[name],
                                                 name).items()):
            report.findings.append(GateFinding(key, None, value, None))
    return report


def load_bench_dir(directory: str) -> dict[str, dict]:
    """Every ``BENCH_*.json`` in a directory as ``stem → payload``."""
    payloads: dict[str, dict] = {}
    if not os.path.isdir(directory):
        return payloads
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as fh:
                payloads[entry[:-len(".json")]] = json.load(fh)
    return payloads


def run_gate(baseline_dir: str, current_dir: str = ".", top: int = 20,
             rules: "tuple[GateRule, ...]" = DEFAULT_RULES) -> int:
    """Directory-level gate: print the table, return a process exit code."""
    baseline = load_bench_dir(baseline_dir)
    if not baseline:
        print(f"bench gate: no BENCH_*.json baselines in {baseline_dir!r}; "
              "nothing to gate")
        return 0
    current = load_bench_dir(current_dir)
    report = evaluate_gate(baseline, current, rules)
    print(f"bench gate: {len(baseline)} baseline file(s) from "
          f"{baseline_dir!r} vs current run in {current_dir!r}")
    print(report.table(top))
    return 0 if report.ok else 1
