"""Benchmark for the serving simulator and host inference.

Runs one workload (see ``workloads.py``) in this process and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the process also
makes a separate traced run and prints the per-layer breakdown instead.
Any failed output check exits with code 1 and prints no result.

    python3 perfbench/run.py --workload fleet_overload --seed 1 \\
        --seconds 30 --trace 0

Spans of the traced run are written to ``.perfbench/`` at the root of
the checkout. Metric definitions: ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()   # set-up time counts from the first statement

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUPS = 3                 # set-up samples per run (this process + 2)
# one OpenBLAS thread: batch-1 GEMMs gain nothing from a second thread
# when the other core is busy, and on a shared machine whether it is busy
# changes from minute to minute, which moved the forward rate by up to a
# quarter between sets of runs with two threads
BLAS_THREADS = 1
# simulator requests per host-time window: single requests enter engines
# in clumps, and about 1% of them carry a rare expensive step (a
# collection, a telemetry sample, a re-fit), so per-request gaps put p99
# on a cliff; averaging windows of 10 consecutive requests keeps p99 on
# a steady part of the distribution
WINDOW = 10
# per-request samples per p99 block: each block's p99 has ten samples
# beyond it, and the median over blocks keeps a burst of interference
# from the rest of the machine inside the blocks it hit
BLOCK = 1000
WORKLOAD_NAMES = ("fleet_overload", "throttled_observed", "host_inference")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def configure_blas() -> int:
    """Pin the OpenBLAS pool before NumPy loads, never above nproc."""
    cores = len(os.sched_getaffinity(0))
    threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS",
                                     BLAS_THREADS)), cores)
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


class GcClock:
    """Collector time and collections, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1


def measure(workload, seconds: float, outcomes: list):
    """Untimed prepare, timed call, untimed check, until ``seconds`` pass.

    Runs every call at least once. ``outcomes[k]`` is filled on the first
    pass; later passes must reproduce it exactly. Returns per-call wall
    seconds (call index, seconds), per-request host seconds, the first
    call's preparation time and the collector clock of the first pass.

    A call of a simulator workload serves many requests; its per-request
    host times come from wall-clock stamps taken as each request enters
    an engine (``workload.STAMP``): the time from the start of the call
    through every ``WINDOW`` consecutive stamps, divided by ``WINDOW``.
    """
    from workloads import CheckFailed
    calls = workload.calls()
    times, per_request, stamps = [], [], []
    if workload.STAMP is not None:
        owner, attr = workload.STAMP
        original = owner.__dict__[attr]
        stamp, perf = stamps.append, time.perf_counter

        def stamped(*args, **kwargs):
            stamp(perf())
            return original(*args, **kwargs)
        setattr(owner, attr, stamped)
    gc_clock = GcClock()
    start = time.perf_counter()
    k = 0
    try:
        while k < calls or time.perf_counter() - start < seconds:
            i = k % calls
            t = time.perf_counter()
            call = workload.prepare(i)
            if k == 0:
                prepare_s = time.perf_counter() - t
                gc.callbacks.append(gc_clock)
            stamps.clear()
            t = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t
            times.append((i, dt))
            if k == calls - 1:
                gc.callbacks.remove(gc_clock)
            if workload.STAMP is None:
                per_request.append(dt)
            else:
                marks = [t] + stamps
                per_request.extend(
                    (marks[j + WINDOW] - marks[j]) / WINDOW
                    for j in range(0, len(marks) - WINDOW, WINDOW))
            outcome = workload.outcome(i, result)
            if k < calls:
                outcomes[i] = outcome
            elif outcome != outcomes[i]:
                raise CheckFailed(f"call {i} did not repeat its simulated "
                                  "outcome")
            k += 1
    finally:
        if gc_clock in gc.callbacks:
            gc.callbacks.remove(gc_clock)
        if workload.STAMP is not None:
            setattr(owner, attr, original)
    return times, per_request, prepare_s, gc_clock


def sim_summary(workload, outcomes):
    from workloads import summarize
    if workload.name == "host_inference":
        return summarize([workload.replay()])
    return summarize(outcomes)


def quantile(values, q):
    import numpy as np
    return float(np.quantile(np.asarray(values), q))


def end_to_end(workload, setup_s, times, per_request, outcomes, sim):
    """Rates are medians over rounds: ``ROUND`` consecutive calls that
    together make one unit of comparable work (one call per rung for
    ``host_inference``)."""
    size = workload.ROUND
    rounds = [times[i:i + size]
              for i in range(0, len(times) - size + 1, size)]

    def rate(count):
        return statistics.median(sum(count(i) for i, _ in r)
                                 / sum(dt for _, dt in r) for r in rounds)

    blocks = [per_request[i:i + BLOCK]
              for i in range(0, len(per_request) - BLOCK + 1, BLOCK)]
    blocks = blocks or [per_request]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "host_req_per_s": (rate(workload.requests), "1/s"),
        "infer_per_s": (rate(lambda i: outcomes[i]["completed"]), "1/s"),
        "infer_p50_ms": (1e3 * quantile(per_request, 0.50), "ms"),
        "infer_p99_ms": (1e3 * statistics.median(
            quantile(b, 0.99) for b in blocks), "ms"),
        "miss_rate": (sim["miss_rate"], "share"),
        "goodput_rps": (sim["goodput_rps"], "1/s"),
        "sim_p50_ms": (sim["sim_p50_ms"], "ms"),
        "sim_p99_ms": (sim["sim_p99_ms"], "ms"),
        "mean_rung_index": (sim["mean_rung_index"], "index"),
        "served_share": (sim["served_share"], "share"),
    }


def setup_samples(args, first: float) -> list[float]:
    """This process's set-up time plus fresh-process repeats."""
    samples = [first]
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def traced_run(args, untraced, times, outcomes):
    """Repeat one pass with every probe installed; per-layer metrics."""
    from spans import SpanRecorder
    from workloads import KERNEL_CLASSES, REJECT_REASONS, WORKLOADS, \
        CheckFailed, probes

    recorder = SpanRecorder()
    probe_list = probes()
    originals = [p.owner.__dict__[p.attr] for p in probe_list]
    recorder.install(probe_list)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup()
        workload.generate(args.seed)
        host = workload.name == "host_inference"
        if host:
            workload.check_parity()
            for rung in workload.rungs:
                rung.network.compile().enable_timing()
        traced = []
        for k in range(workload.calls()):
            call = workload.prepare(k)
            if k == 0:
                # set-up ends with the first call's serving objects
                latency_model_s = recorder.outside_roots(
                    "device.latency_model")
            traced.append(workload.outcome(k, recorder.root(call)))
        sim = sim_summary(workload, traced)
        kernels = workload.kernel_seconds() if host else {}
        costs = workload.kernel_cost() if host else {}
    finally:
        recorder.uninstall()
    if any(p.owner.__dict__[p.attr] is not o
           for p, o in zip(probe_list, originals)):
        raise CheckFailed("a probe outlived the traced run")
    if traced != outcomes or sim != sim_summary(untraced, outcomes):
        raise CheckFailed("simulated outcomes differ between the untraced "
                          "and the traced run")

    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.save(os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))

    root_s, self_s = recorder.self_times()
    calls, results = recorder.calls, recorder.results
    per_req = sum(workload.requests(k) for k in range(workload.calls()))

    def share(*names):
        return sum(self_s.get(n, 0.0) for n in names) / root_s

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_s = sum(kernels.values())
    m = {}
    m["cluster.choose.self_share"] = (share("cluster.choose"), "share")
    m["cluster.estimate_finish.self_share"] = (
        share("cluster.estimate_finish"), "share")
    m["cluster.estimate_finish.calls_per_req"] = (
        calls["cluster.estimate_finish"] / per_req, "1/req")
    m["cluster.advance.self_share"] = (share("cluster.advance"), "share")
    m["cluster.route_imbalance"] = (sim["cluster.route_imbalance"], "ratio")
    m["serve.run_until.self_share"] = (share("serve.run_until"), "share")
    m["serve.queue.self_share"] = (share("serve.queue"), "share")
    m["serve.batcher.self_share"] = (share("serve.batcher"), "share")
    m["serve.controller.self_share"] = (share("serve.controller"), "share")
    m["serve.controller.decision_share"] = (
        ratio(results["serve.controller"], calls["serve.controller"]),
        "share")
    m["serve.metrics.self_share"] = (share("serve.metrics"), "share")
    m["serve.estimate.calls_per_req"] = (
        calls["serve.estimate"] / per_req, "1/req")
    m["serve.batch_size_mean"] = (sim["serve.batch_size_mean"], "req")
    m["serve.queue_wait_p99_ms"] = (sim["serve.queue_wait_p99_ms"], "ms")
    m["serve.transitions"] = (sim["serve.transitions"], "count")
    for reason in REJECT_REASONS:
        key = f"serve.rejects.{reason}"
        m[key] = (sim[key], "count")
    m["device.sample.self_share"] = (share("device.sample"), "share")
    m["device.latency_model.self_share"] = (
        share("device.latency_model"), "share")
    m["device.latency_model_s"] = (latency_model_s, "s")
    m["obs.telemetry.sample.self_share"] = (
        share("obs.telemetry.sample"), "share")
    m["obs.telemetry.sample_share"] = (
        ratio(calls["obs.telemetry.sample"],
              calls["obs.telemetry.maybe_sample"]), "share")
    m["obs.tracer.emit.self_share"] = (share("obs.tracer.emit"), "share")
    m["obs.tracer.spans_per_req"] = (calls["obs.tracer.emit"] / per_req,
                                     "1/req")
    m["obs.drift.observe.self_share"] = (share("obs.drift.observe"), "share")
    m["obs.drift.events"] = (sim["obs.drift.events"], "count")
    m["netcut.reestimate.self_share"] = (
        share("netcut.record", "netcut.maybe_reestimate"), "share")
    m["netcut.fit_applied_share"] = (
        ratio(results["netcut.maybe_reestimate"],
              calls["netcut.maybe_reestimate"]), "share")
    m["netcut.rebuilds"] = (sim["netcut.rebuilds"], "count")
    m["faults.self_share"] = (share("faults"), "share")
    for cls in KERNEL_CLASSES:
        seconds = kernels.get(cls, 0.0)
        flops, moved = costs.get(cls, (0, 0))
        m[f"nn.kernel.{cls}.self_share"] = (seconds / root_s, "share")
        m[f"nn.kernel.{cls}.flops_computed"] = (flops, "FLOP")
        m[f"nn.kernel.{cls}.bytes_computed"] = (moved, "B")
        m[f"nn.kernel.{cls}.gflop_per_s"] = (
            ratio(flops / 1e9, seconds), "GFLOP/s")
    m["nn.dispatch.self_share"] = (
        (self_s.get("nn.forward", 0.0) - kernel_s) / root_s, "share")
    m["unattributed.self_share"] = (self_s[recorder.ROOT] / root_s, "share")

    # every probed layer must be reported: the shares cover all host time
    shares = sum(v for k, (v, _) in m.items() if k.endswith(".self_share"))
    if abs(shares - 1.0) > 1e-9:
        raise CheckFailed(f"per-layer shares sum to {shares}, not 1")

    by_call = {}
    for i, dt in times:
        by_call.setdefault(i, []).append(dt)
    m["trace.overhead"] = (statistics.median(
        traced / statistics.median(by_call[k])
        for k, traced in enumerate(recorder.root_durations())), "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = configure_blas()
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]()
    workload.setup()
    built_s = time.perf_counter() - T0
    t = time.perf_counter()
    workload.generate(args.seed)
    generate_s = time.perf_counter() - t
    if args.setup_only:
        t = time.perf_counter()
        workload.prepare(0)
        print(json.dumps({"setup_s": built_s + time.perf_counter() - t}))
        return 0
    try:
        if workload.name == "host_inference":
            workload.check_parity()
        outcomes = [None] * workload.calls()
        times, per_request, prepare_s, gc_clock = measure(
            workload, args.seconds, outcomes)
        requests = sum(workload.requests(i) for i, _ in times)
        if args.trace:
            metrics = traced_run(args, workload, times, outcomes)
            metrics["runtime.gc_s"] = (gc_clock.seconds, "s")
            metrics["runtime.gc_collections"] = (gc_clock.collections,
                                                 "count")
            metrics["runtime.blas_threads"] = (threads, "count")
            metrics["workload.generate_s"] = (generate_s, "s")
            attempted = requests + sum(workload.requests(k)
                                       for k in range(workload.calls()))
        else:
            sim = sim_summary(workload, outcomes)
            setup_s = statistics.median(
                setup_samples(args, built_s + prepare_s))
            metrics = end_to_end(workload, setup_s, times, per_request,
                                 outcomes, sim)
            attempted = requests
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value if isinstance(value, int)
                           else float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
