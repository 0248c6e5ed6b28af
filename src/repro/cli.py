"""Command-line interface: the paper's workflows as shell commands.

Usage (after installation, or via ``python -m repro.cli``):

    python -m repro.cli zoo                      # list the networks
    python -m repro.cli measure [--net NAME]     # Fig. 1 latencies
    python -m repro.cli explore                  # 148-TRN sweep (cached)
    python -m repro.cli netcut --deadline 0.9 --estimator profiler
    python -m repro.cli netcut online            # drift -> refit -> rebuild
    python -m repro.cli estimators               # Fig. 9 error table
    python -m repro.cli pareto                   # frontier + text scatter
    python -m repro.cli serve --deadline-ms 0.9 --trace poisson
    python -m repro.cli profile --net resnet --cutpoint 3
    python -m repro.cli trace --out serve.jsonl --chrome serve.trace.json
    python -m repro.cli faults --scenario straggler-storm --compare
    python -m repro.cli obs alerts                # SLO burn-rate timeline
    python -m repro.cli obs gate --baselines A --current B  # diff two runs

(``python -m repro ...`` is an equivalent spelling of every command.)

Heavy artifacts (pretrained weights, exploration, latency dataset) are
cached under ``~/.cache/repro-netcut`` (override with ``REPRO_CACHE_DIR``),
so repeated invocations are fast.
"""

from __future__ import annotations

import argparse
import sys


def _workbench(args):
    from repro import ExperimentConfig, Workbench
    from repro.train import PretrainConfig

    networks = getattr(args, "networks", None)
    quick = getattr(args, "quick", False)
    hands = 60 if quick else args.hands_images
    epochs = 6 if quick else args.head_epochs
    if networks:
        config = ExperimentConfig(networks=tuple(networks),
                                  hands_images=hands, head_epochs=epochs)
    elif quick:
        config = ExperimentConfig(hands_images=hands, head_epochs=epochs)
    else:
        config = ExperimentConfig()
    pretrain = (PretrainConfig(n_images=40, epochs=1, batch_size=16)
                if quick else None)
    return Workbench(config, cache_dir=getattr(args, "cache_dir", None),
                     pretrain_config=pretrain)


def _bounded(convert, ok, what: str):
    """An argparse type: ``convert`` the text, reject values failing ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_COUNT = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_RATE = _bounded(float, lambda v: 0 < v < float("inf"), "a finite number > 0")


def _scenario_flags(p, *, deadline_ms: float | None,
                    requests: int | None = None, rate: str | None = None,
                    max_rungs: int = 6, seed: int | None = 0,
                    deadline_help: str | None = None,
                    max_rungs_help: str | None = None) -> None:
    """Declare the flags every serving verb shares, with the verb's defaults.

    ``requests`` is the default trace length and ``rate`` describes the
    default offered load; a verb that draws no Poisson trace passes
    neither and gets no ``--requests``/``--rate``. ``seed=None`` omits
    ``--seed``.
    """
    p.add_argument("--net", default="mobilenet_v1_0.5",
                   help="zoo network (exact name, prefix or substring)")
    p.add_argument("--deadline-ms", type=float, default=deadline_ms,
                   help=deadline_help)
    if requests is not None:
        p.add_argument("--requests", type=_COUNT, default=requests)
        p.add_argument("--rate", type=_RATE, default=None,
                       help=f"offered load in requests/s (default: {rate})")
    p.add_argument("--max-rungs", type=_COUNT, default=max_rungs,
                   help=max_rungs_help)
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed)


def _base(args):
    """The zoo network ``--net`` names, by exact name, prefix or substring."""
    from repro.zoo import build_network

    return build_network(_resolve_net(args.net)).build(0)


def _ladder(args, base=None, spec=None):
    """The TRN ladder of ``base`` (default: ``--net``) on ``spec``.

    ``spec`` defaults to the simulated Xavier; ``--max-rungs`` caps the
    ladder's length.
    """
    from repro.device import xavier
    from repro.serve import TRNLadder

    return TRNLadder.from_base(base or _base(args), spec or xavier(),
                               num_classes=5, max_rungs=args.max_rungs)


def _trace(args, default_rate: float, deadline_ms: float | None = None,
           uniform: bool = False, **kwargs):
    """``--requests`` arrivals at ``--rate``, else at ``default_rate`` req/s.

    Poisson unless ``uniform``; every request carries ``deadline_ms``
    (default: ``--deadline-ms``). Returns ``(rate, trace)``.
    """
    from repro.workload import poisson_trace, uniform_trace

    rate = args.rate or default_rate
    maker = uniform_trace if uniform else poisson_trace
    return rate, maker(args.requests, rate, deadline_ms or args.deadline_ms,
                       rng=args.seed, **kwargs)


def cmd_zoo(args) -> int:
    """List the seven networks with their structural statistics."""
    from repro.trim import enumerate_blockwise
    from repro.zoo import NETWORKS, build_network

    print(f"{'network':22s} {'layers':>7} {'blocks':>7} {'params':>10} "
          f"{'MFLOPs':>8}")
    for name in NETWORKS:
        net = build_network(name).build(0)
        print(f"{name:22s} {net.layer_count():>7d} "
              f"{len(enumerate_blockwise(net)):>7d} "
              f"{net.total_params():>10,d} "
              f"{net.total_flops() / 1e6:>8.2f}")
    return 0


def cmd_measure(args) -> int:
    """Measure off-the-shelf transfer models on the simulated Xavier."""
    wb = _workbench(args)
    names = [args.net] if args.net else list(wb.config.networks)
    latencies = wb.base_latencies()
    print(f"{'network':22s} {'latency_ms':>10}   (deadline "
          f"{args.deadline} ms)")
    for name in names:
        ms = latencies[name]
        verdict = "meets" if ms <= args.deadline else "misses"
        print(f"{name:22s} {ms:>10.3f}   {verdict}")
    return 0


def cmd_explore(args) -> int:
    """Run (or load) the full blockwise exploration and print a summary."""
    wb = _workbench(args)
    exploration = wb.exploration(force=args.force)
    print(f"{exploration.networks_trained} TRNs explored "
          f"({exploration.total_train_hours:.1f} simulated K20m GPU-hours)")
    for name in wb.config.networks:
        rows = exploration.for_base(name)
        best = max(rows, key=lambda r: r.accuracy)
        print(f"  {name:22s} best TRN {best.trn_name:24s} "
              f"acc={best.accuracy:.4f} lat={best.latency_ms:.3f} ms")
    return 0


def cmd_netcut(args) -> int:
    """Run Algorithm 1 and print the proposed candidates."""
    if getattr(args, "netcut_cmd", None) == "online":
        return cmd_netcut_online(args)
    if getattr(args, "netcut_cmd", None) == "build":
        return cmd_netcut_build(args)
    wb = _workbench(args)
    result = wb.netcut(args.estimator, deadline_ms=args.deadline)
    print(f"NetCut ({args.estimator}) @ deadline {args.deadline} ms")
    for c in result.candidates:
        status = "ok" if c.feasible else "infeasible"
        print(f"  {c.base_name:22s} -> {c.trn_name:26s} "
              f"blocks_removed={c.blocks_removed:2d} "
              f"est={c.estimated_latency_ms:.3f} ms acc={c.accuracy:.4f} "
              f"[{status}]")
    best = result.best
    print(f"winner: {best.trn_name} (accuracy {best.accuracy:.4f}, "
          f"measured {best.measured_latency_ms:.3f} ms)")
    return 0


def cmd_netcut_build(args) -> int:
    """Bake off the pluggable ladder builders on one zoo network.

    Runs the selected :class:`repro.netcut.LadderBuilder` strategies over
    the base network on a simulated device, prints each strategy's rungs
    and accuracy-at-deadline, then the mixed Pareto frontier the serving
    ladder would actually mount. ``--save DIR`` writes the frontier as
    deployment artifacts (builder tags included) loadable with
    ``TRNLadder.from_artifacts``.
    """
    from repro.device import DEVICE_PROFILES, network_latency
    from repro.metrics import accuracy_at_deadline
    from repro.netcut import (
        BUILDERS,
        artifact_points,
        build_rungs,
        frontier_artifacts,
        save_artifact,
    )

    spec = DEVICE_PROFILES[args.device]()
    base = _base(args)
    names = args.strategy or sorted(BUILDERS)
    per_strategy = build_rungs(base, spec,
                               builders=[BUILDERS[n]() for n in names],
                               max_rungs=args.max_rungs)
    full_ms = network_latency(base, spec).total_ms
    deadline = args.deadline_ms or round(args.deadline_frac * full_ms, 6)
    print(f"{base.name} @ {spec.name}: full model {full_ms:.4f} ms, "
          f"deadline {deadline:.4f} ms")
    for strategy in sorted(per_strategy):
        points = artifact_points(per_strategy[strategy])
        acc = accuracy_at_deadline(points, deadline)
        print(f"\n[{strategy}] {len(points)} rungs, "
              f"acc@deadline {acc:.4f}")
        for p in sorted(points, key=lambda p: -p.latency_ms):
            marker = " " if p.latency_ms <= deadline else "!"
            print(f"  {marker} {p.name:42s} {p.latency_ms:8.4f} ms  "
                  f"acc {p.accuracy:.4f}")
    mixed = [a for strategy in sorted(per_strategy)
             for a in per_strategy[strategy]]
    front = frontier_artifacts(mixed)
    acc = accuracy_at_deadline(artifact_points(mixed), deadline)
    print(f"\nmixed frontier: {len(front)} of {len(mixed)} rungs, "
          f"acc@deadline {acc:.4f}")
    for a in front:
        print(f"    {a.trn_name:42s} {a.measured_latency_ms:8.4f} ms  "
              f"acc {a.accuracy:.4f}  [{a.builder}]")
    if args.save:
        import os

        os.makedirs(args.save, exist_ok=True)
        for a in front:
            save_artifact(a, os.path.join(args.save, f"{a.trn_name}.npz"))
        print(f"saved {len(front)} frontier artifacts to {args.save}/")
    return 0


def cmd_netcut_online(args) -> int:
    """Closed-loop NetCut: drift-triggered re-estimation under throttle.

    Serves a Poisson trace through a TRN ladder while a seeded thermal
    throttle slows the device mid-trace. The same trace replays twice:
    once with the deployment artifact's latency tables frozen (Algorithm 1
    believed at deploy time) and once with ``online_reestimation`` on, so
    the drift -> re-fit -> ladder-rebuild loop's effect on the deadline-
    miss rate reads side by side.
    """
    from repro.faults import FaultInjector, ThermalThrottle
    from repro.obs import DriftMonitor
    from repro.serve import Server, ServerConfig

    base = _base(args)
    ladder = _ladder(args, base)
    full = ladder.rungs[0].estimate_ms(1)
    deadline = args.deadline_ms or round(1.3 * full, 3)
    rate, trace = _trace(args, 0.4e3 / full, deadline)
    span = trace[-1].arrival_ms
    print(f"device: {ladder.rungs[0].spec.name}   ladder: {len(ladder)} "
          f"rungs of {base.name}   deadline: {deadline} ms")
    print(f"{args.requests} Poisson requests @ {rate:,.0f} req/s; thermal "
          f"throttle to {args.factor}x from t={0.1 * span:,.0f} ms "
          f"(never recovers)")
    print("\nladder (deployment artifact's estimates):")
    for rung in ladder.rungs:
        print(f"  {rung.name:28s} est {rung.estimate_ms(1):.3f} ms")

    def replay(online: bool):
        faults = FaultInjector([ThermalThrottle(
            start_ms=0.1 * span, duration_ms=10 * span,
            factor=args.factor, ramp_ms=0.03 * span)], seed=args.seed)
        drift = DriftMonitor(threshold=0.2, window=16, min_observations=8,
                             cooldown=8)
        config = ServerConfig(
            deadline_ms=deadline, execute=False, seed=args.seed,
            adaptive=False, online_reestimation=online,
            reestimate_method=args.method, reestimate_cooldown_ms=10.0,
            reestimate_min_samples=8, reestimate_max_samples=16)
        server = Server(ladder, config, drift=drift, faults=faults)
        return server.run_trace(trace), server, drift

    for label, online in (("static estimates", False),
                          ("online re-estimation", True)):
        result, server, drift = replay(online)
        print(f"\n--- {label} ---")
        print(result.metrics.report())
        if online:
            print(server.engine.reestimator.report())
            print("calibrated ladder after the run:")
            # read the engine's ladder: under fault injection it is the
            # wrapped copy whose re-sorted order the original never sees
            for rung in server.engine.ladder.rungs:
                print(f"  {rung.name:28s} est {rung.estimate_ms(1):.3f} ms "
                      f"(scale {rung.estimate_scale:.2f}x)")
        if args.verbose:
            print(drift.report())
    return 0


def cmd_estimators(args) -> int:
    """Print the Fig. 9 estimator-error table."""
    from repro.report import estimator_errors

    wb = _workbench(args)
    errors = estimator_errors(wb)
    print(f"{'network':22s} {'profiler%':>10} {'svr%':>8} {'linear%':>9}")
    for net in wb.config.networks:
        prof, svr, lin = errors[net]
        print(f"{net:22s} {prof:>10.2f} {svr:>8.2f} {lin:>9.2f}")
    return 0


def cmd_pareto(args) -> int:
    """Print the TRN Pareto frontier and a terminal scatter plot."""
    from repro.metrics import CandidatePoint, pareto_frontier
    from repro.viz import scatter

    wb = _workbench(args)
    exploration = wb.exploration()
    by_family: dict[str, list[tuple[float, float]]] = {}
    for r in exploration.records:
        by_family.setdefault(r.base_name, []).append(
            (r.latency_ms, r.accuracy))
    print(scatter(by_family, xlabel="latency (ms)", ylabel="accuracy",
                  vline=args.deadline))
    frontier = pareto_frontier([
        CandidatePoint(r.trn_name, r.latency_ms, r.accuracy)
        for r in exploration.records])
    print("\nPareto frontier:")
    for p in frontier:
        print(f"  {p.name:26s} {p.latency_ms:>8.3f} ms  acc {p.accuracy:.4f}")
    return 0


def cmd_serve(args) -> int:
    """Replay a synthetic request trace through the deadline-aware server.

    Builds the TRN ladder of one zoo network (structure only — serving is
    about latency, so no pretraining is needed), offers Poisson or uniform
    traffic against the simulated Xavier, and prints the metrics report.
    By default the offered load is calibrated to overload the full TRN so
    the ladder degradation is visible; pass ``--rate`` to choose your own.
    """
    from repro.serve import Server, ServerConfig

    base = _base(args)
    ladder = _ladder(args, base)
    rate, trace = _trace(args, 1.3e3 / ladder.rungs[0].estimate_ms(1),
                         uniform=args.trace == "uniform",
                         image_size=base.input_shape[0], render=args.execute)
    config = ServerConfig(deadline_ms=args.deadline_ms,
                          max_batch=args.max_batch,
                          adaptive=not args.no_ladder,
                          execute=args.execute, seed=args.seed)
    server = Server(ladder, config)
    result = server.run_trace(trace)

    print(f"TRN ladder for {base.name} on {ladder.rungs[0].spec.name}:")
    print(ladder.describe())
    print(f"\n{args.trace} trace: {args.requests} requests @ "
          f"{rate:,.0f} req/s, deadline {args.deadline_ms} ms, "
          f"ladder {'off' if args.no_ladder else 'on'}")
    print("\n" + result.metrics.report())
    return 0


def _resolve_net(name: str) -> str:
    """Resolve a zoo network by exact name or unique prefix/substring."""
    from repro.zoo import NETWORKS

    if name in NETWORKS:
        return name
    matches = [n for n in NETWORKS if n.startswith(name)] \
        or [n for n in NETWORKS if name in n]
    if len(matches) != 1:
        raise SystemExit(
            f"--net {name!r} is ambiguous or unknown; zoo networks: "
            + ", ".join(NETWORKS))
    return matches[0]


def cmd_profile(args) -> int:
    """Profile one zoo network kernel-by-kernel on the modelled Xavier.

    Prints the per-kernel latency table of
    :func:`repro.device.profile_network` and — when ``--cutpoint`` is
    given — the paper's ratio-form TRN latency estimate from that table,
    next to the TRN's direct model latency.
    """
    from repro.device import network_latency, profile_network, xavier
    from repro.estimators import ProfilerEstimator
    from repro.trim import build_trn, enumerate_blockwise, removed_node_set
    from repro.zoo import build_network

    spec = xavier()
    net = build_network(_resolve_net(args.net)).build(0)
    table = profile_network(net, spec, rng=args.seed, profile_runs=args.runs)
    print(table.describe(top=args.top))
    if args.cutpoint is None:
        return 0
    cuts = enumerate_blockwise(net)
    if not 0 <= args.cutpoint < len(cuts):
        raise SystemExit(f"--cutpoint {args.cutpoint} out of range; "
                         f"{net.name} has {len(cuts)} blockwise cutpoints")
    cut = cuts[args.cutpoint]
    removed = removed_node_set(net, cut.cut_node)
    est = ProfilerEstimator(net, table).estimate(removed)
    trn = build_trn(net, cut.cut_node, num_classes=5)
    direct = network_latency(trn, spec).total_ms
    print(f"\ncutpoint {args.cutpoint} ({cut.cut_node}, "
          f"{cut.blocks_removed} blocks removed) -> {trn.name}")
    print(f"ratio estimate from the table: {est:.4f} ms")
    print(f"TRN direct model latency:      {direct:.4f} ms "
          "(feature part estimated, fresh head replaces the old one)")
    return 0


def cmd_trace(args) -> int:
    """Replay a serve trace with full observability attached.

    Same scenario as ``serve``, plus a request tracer (JSONL and Chrome
    trace export) and an estimator-drift monitor; prints the final rung
    and each component's report.
    """
    from repro.obs import (
        DriftMonitor,
        Tracer,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.serve import Server, ServerConfig

    ladder = _ladder(args)
    rate, trace = _trace(args, 1.3e3 / ladder.rungs[0].estimate_ms(1))
    tracer = Tracer(capacity=args.buffer)
    drift = DriftMonitor(threshold=args.drift_threshold)
    server = Server(ladder, ServerConfig(deadline_ms=args.deadline_ms,
                                         execute=False, seed=args.seed),
                    tracer=tracer, drift=drift)
    result = server.run_trace(trace)

    print(f"{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, seed {args.seed}\n")
    print(f"serve.final_rung: {ladder.current_index}")
    for name, component in (("serve", result.metrics), ("trace", tracer),
                            ("drift", drift)):
        print(f"-- {name} --")
        print(component.report())
    if args.out:
        n = write_jsonl(tracer, args.out)
        print(f"\nwrote {n} spans to {args.out}")
    if args.chrome:
        n = write_chrome_trace(tracer, args.chrome)
        print(f"wrote {n} spans to {args.chrome} "
              "(load in chrome://tracing)")
    return 0


def cmd_faults(args) -> int:
    """Replay a chaos scenario against the resilient serving engine.

    Same traffic as ``serve``, but the ladder is wrapped in a named fault
    scenario (see :data:`repro.faults.SCENARIOS`) and the engine runs with
    timeouts, retries and circuit breakers. With ``--compare`` the same
    scenario is also replayed with resilience off, so the deadline-miss
    rates can be read side by side; ``--no-resilience`` runs only the
    undefended engine.
    """
    from repro.faults import build_scenario
    from repro.serve import Server, ServerConfig

    ladder = _ladder(args)
    rate, trace = _trace(args, 1.3e3 / ladder.rungs[0].estimate_ms(1))
    if args.rung:
        rungs = tuple(args.rung)
    elif args.scenario in ("rung-failure", "mixed"):
        # break the most accurate rung by default: the breaker opens and
        # traffic visibly shifts down the ladder instead of stalling
        rungs = (ladder.rungs[0].name,)
    else:
        rungs = None
    scenario = build_scenario(args.scenario, trace[-1].arrival_ms,
                              seed=args.seed, rungs=rungs)
    print(scenario.describe())
    print(f"\n{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, seed {args.seed}")

    def replay(resilient: bool):
        injector = scenario.injector()
        config = ServerConfig(deadline_ms=args.deadline_ms,
                              execute=False, seed=args.seed,
                              resilience=resilient)
        server = Server(ladder, config, faults=injector)
        return server.run_trace(trace), injector

    runs = []
    if not args.no_resilience:
        runs.append(("resilient", True))
    if args.no_resilience or args.compare:
        runs.append(("undefended", False))
    for label, resilient in runs:
        result, injector = replay(resilient)
        print(f"\n--- {label} engine "
              f"(resilience {'on' if resilient else 'off'}) ---")
        print(result.metrics.report())
        if args.verbose:
            print(injector.report())
    return 0


def cmd_workload(args) -> int:
    """Production traffic: generate/record, replay, or fluid-predict.

    ``generate`` samples a named workload shape (diurnal, flash crowd,
    MMPP, superpositions) into a request trace — multi-tenant when
    ``--tenants`` is given — serves it, and optionally records the run to
    a versioned JSONL file. ``replay`` re-serves a recorded trace and
    verifies the outcomes byte-for-byte against what was recorded.
    ``fluid`` skips the event loop entirely: the analytical model
    predicts per-tenant admitted throughput and miss rate per rung, or
    sweeps fleet sizes / plans the smallest fleet for a miss target.
    """
    import repro.workload as wl
    from repro.serve import Server, ServerConfig

    ladder = _ladder(args)
    mix = wl.default_tenants() if args.tenants else None
    policy = None
    if args.fair:
        if mix is None:
            raise SystemExit("--fair needs --tenants (weighted-fair "
                             "admission is per-tenant)")
        policy = wl.WeightedFairAdmission(mix, watermark=args.watermark)
    config = ServerConfig(deadline_ms=args.deadline_ms, execute=False,
                          adaptive=not args.no_ladder, seed=args.seed,
                          queue_capacity=args.queue_capacity,
                          admission_policy=policy)

    if args.workload_cmd == "replay":
        recorded = wl.load_trace(args.path)
        print(f"loaded {args.path}: {recorded.describe()}")
        result = Server(ladder, config).run_trace(recorded.requests)
        print("\n" + result.metrics.report())
        if recorded.outcomes:
            problems = wl.verify_replay(recorded, result.responses)
            if problems:
                print(f"\nreplay DIVERGED from the recording "
                      f"({len(problems)} outcomes differ):")
                for line in problems[:10]:
                    print(f"  {line}")
                return 1
            print(f"\nreplay reproduced all {len(recorded.outcomes)} "
                  "recorded outcomes exactly")
        return 0

    process = wl.make_process(args.kind, args.base_rate, args.horizon_ms)
    print(f"workload: {process.describe()} over {args.horizon_ms:.0f} ms")
    if mix is not None:
        print("tenants:\n" + mix.describe())

    if args.workload_cmd == "generate":
        trace = wl.generate_trace(process, args.horizon_ms,
                                  deadline_ms=args.deadline_ms,
                                  tenants=mix, rng=args.seed)
        rate = len(trace) * 1e3 / args.horizon_ms
        print(f"sampled {len(trace)} requests ({rate:,.0f} rps offered)")
        result = Server(ladder, config).run_trace(trace)
        print("\n" + result.metrics.report())
        if args.out:
            wl.record_run(args.out, trace, result.responses,
                          meta={"kind": args.kind, "seed": args.seed,
                                "horizon_ms": args.horizon_ms,
                                "net": args.net})
            print(f"\nrecorded run -> {args.out}")
        return 0

    # fluid: analytical predictions, no event loop
    fluid = wl.FluidModel.from_ladder(ladder, config, tenants=mix)
    if args.plan_miss is not None:
        n = fluid.plan_fleet(process, args.horizon_ms, args.plan_miss,
                             rung=ladder.rungs[args.rung].name)
        if n is None:
            print(f"no fleet up to 256 replicas holds miss rate "
                  f"<= {args.plan_miss:.2%}")
            return 1
        print(f"smallest fleet with every tenant at miss rate "
              f"<= {args.plan_miss:.2%}: {n} replica(s)")
        print(fluid.solve(process, args.horizon_ms, replicas=n,
                          rung=ladder.rungs[args.rung].name).report())
    elif args.replicas_sweep:
        counts = [int(x) for x in args.replicas_sweep.split(",")]
        preds = fluid.sweep(process, args.horizon_ms, counts,
                            rung=ladder.rungs[args.rung].name)
        for n, pred in preds.items():
            print(f"\n-- {n} replica(s) --")
            print(pred.report())
    else:
        for name, pred in fluid.solve_ladder(process, args.horizon_ms,
                                             replicas=args.replicas).items():
            print(f"\n-- rung {name} --")
            print(pred.report())
    return 0


def cmd_cluster(args) -> int:
    """Route a request trace across a fleet of serving replicas.

    Same traffic model as ``serve``, dispatched across ``--replicas``
    shards under a routing policy. ``--device`` (repeatable) builds a
    heterogeneous fleet from named device profiles; ``--kill-replica``
    hard-fails every rung of one replica over the middle of the trace
    (resilience is switched on so its breakers open and the router
    routes around it); ``--autoscale`` starts from one replica and lets
    the autoscaler grow the fleet.
    """
    from dataclasses import replace

    from repro.cluster import (
        Autoscaler,
        AutoscalerConfig,
        Replica,
        Router,
        make_policy,
    )
    from repro.device import DEVICE_PROFILES
    from repro.faults import build_scenario
    from repro.serve import ServerConfig

    specs = ([DEVICE_PROFILES[name]() for name in args.device]
             if args.device else [None] * args.replicas)
    fleet_size = args.replicas if args.autoscale else len(specs)
    if args.kill_replica is not None \
            and not 0 <= args.kill_replica < fleet_size:
        raise SystemExit(f"--kill-replica {args.kill_replica} out of range; "
                         f"the fleet has {fleet_size} replica(s)")
    base = _base(args)
    config = ServerConfig(deadline_ms=args.deadline_ms,
                          max_batch=args.max_batch, execute=False,
                          seed=args.seed, queue_capacity=64, window=16,
                          min_observations=8, cooldown=8,
                          resilience=args.kill_replica is not None)
    probe = _ladder(args, base)
    rate, trace = _trace(
        args, 0.8e3 * args.replicas / probe.fastest.estimate_ms(1))

    def build_replica(i: int, spec=None) -> Replica:
        faults = None
        if args.kill_replica == i:
            faults = build_scenario("rung-failure", trace[-1].arrival_ms,
                                    seed=args.seed).injector()
        return Replica(f"r{i}", _ladder(args, base, spec),
                       replace(config, seed=config.seed + i), faults=faults)

    autoscaler = None
    if args.autoscale:
        # start from one replica; the autoscaler builds the rest on Xavier
        specs = specs[:1]
        autoscaler = Autoscaler(build_replica, AutoscalerConfig(
            max_replicas=args.replicas, check_interval_ms=1.0,
            cooldown_ms=2.0, up_load=4.0))
    replicas = [build_replica(i, spec) for i, spec in enumerate(specs)]

    policy = make_policy(args.policy, args.seed)
    result = Router(replicas, policy, autoscaler=autoscaler).run(trace)

    fleet = ", ".join(f"{r.name}({r.spec.name})" for r in result.replicas)
    print(f"fleet: {fleet}")
    print(f"{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, policy {policy.name}, "
          f"seed {args.seed}")
    if args.kill_replica is not None:
        print(f"replica r{args.kill_replica} hard-fails over the middle "
              f"of the trace")
    print("\n" + result.metrics.report())
    return 0


def cmd_obs(args) -> int:
    """Telemetry workflows: exposition, burn-rate alerts, the bench gate.

    ``expose`` replays a serve trace with labeled telemetry attached and
    prints the OpenMetrics text exposition (pipe it to a scraper or a
    file). ``alerts`` replays a chaos scenario against an *undefended*
    pinned-rung engine with the canonical SLO burn-rate rules attached
    and prints the firing/resolved timeline — exit status 1 if any alert
    is still firing when the trace drains. ``gate`` applies the
    bench-regression tolerances (the same ones CI enforces) to fresh
    ``BENCH_*.json`` files against the committed baselines — exit status
    1 on any violation — and is also how two runs' BENCH directories are
    diffed, biggest relative movers first.
    """
    if args.obs_cmd == "gate":
        from repro.obs import run_gate

        return run_gate(args.baselines, args.current, top=args.top)

    from repro.obs import (
        AlertEngine,
        Telemetry,
        default_slo_rules,
        to_json,
        to_openmetrics,
    )

    # expose / alerts: one telemetered serving replay
    from repro.serve import Server, ServerConfig

    ladder = _ladder(args)
    full_est = ladder.rungs[0].estimate_ms(1)
    telemetry = Telemetry(sample_interval_ms=args.sample_ms)

    if args.obs_cmd == "expose":
        _, trace = _trace(args, 1.3e3 / full_est)
        config = ServerConfig(deadline_ms=args.deadline_ms, execute=False,
                              seed=args.seed)
        Server(ladder, config, telemetry=telemetry).run_trace(trace)
        if args.json:
            import json

            with open(args.json, "w") as fh:
                json.dump(to_json(telemetry), fh, sort_keys=True)
            print(f"wrote JSON export to {args.json}", file=sys.stderr)
        # exposition only on stdout: scrape-able / pipe-able
        sys.stdout.write(to_openmetrics(telemetry))
        return 0

    # alerts: chaos replay with the SLO burn-rate rules attached.  The
    # engine is pinned to the full rung and undefended so the storm's
    # misses actually reach the series (the calibrated defaults fire
    # both rules mid-storm and resolve them in the quiet tail).
    from repro.faults import build_scenario

    rate, trace = _trace(args, 0.65e3 / full_est)
    scenario = build_scenario(args.scenario, trace[-1].arrival_ms * 0.5,
                              seed=args.fault_seed)
    engine = AlertEngine(default_slo_rules(args.deadline_ms,
                                           miss_budget=args.miss_budget,
                                           fast_ms=args.fast_ms,
                                           slow_ms=args.slow_ms))
    telemetry.attach_alerts(engine)
    config = ServerConfig(deadline_ms=args.deadline_ms, execute=False,
                          seed=args.seed, adaptive=False)
    server = Server(ladder, config, faults=scenario.injector(),
                    telemetry=telemetry)
    result = server.run_trace(trace)

    print(scenario.describe())
    print(f"\n{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, seed {args.seed} "
          "(pinned full rung, resilience off)")
    print("\n" + engine.report())
    print("\n" + result.metrics.report())
    return 1 if engine.active else 0


def cmd_figures(args) -> int:
    """List every reproduced figure/claim and its benchmark."""
    from repro.figures import EXPERIMENTS

    for e in EXPERIMENTS:
        print(f"{e.id:10s} {e.paper_ref:22s} {e.benchmark}")
        print(f"{'':10s} {e.claim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--networks", action="append", default=None,
                        metavar="NAME",
                        help="restrict to this zoo network (repeatable)")
    parser.add_argument("--hands-images", type=int, default=1100,
                        dest="hands_images")
    parser.add_argument("--head-epochs", type=int, default=50,
                        dest="head_epochs")
    parser.add_argument("--cache-dir", default=None, dest="cache_dir")
    parser.add_argument("--quick", action="store_true",
                        help="tiny budgets for a fast smoke run "
                             "(minutes, not paper-quality numbers)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("zoo", help="list the seven networks")

    p = sub.add_parser("measure", help="measure off-the-shelf latencies")
    p.add_argument("--net", default=None, help="measure only this network")
    p.add_argument("--deadline", type=float, default=0.9)

    p = sub.add_parser("explore", help="run the 148-TRN blockwise sweep")
    p.add_argument("--force", action="store_true",
                   help="ignore the on-disk cache")

    p = sub.add_parser("netcut", help="run Algorithm 1")
    p.add_argument("--deadline", type=float, default=0.9)
    p.add_argument("--estimator", default="profiler",
                   choices=["profiler", "analytical", "linear"])
    # nested verbs: `netcut` alone keeps running Algorithm 1 (required
    # stays False), `netcut online` closes the serving-time loop,
    # `netcut build` bakes off the pluggable ladder builders
    nsub = p.add_subparsers(dest="netcut_cmd", required=False)
    pb = nsub.add_parser(
        "build",
        help="bake off the ladder builders, print the mixed frontier")
    _scenario_flags(pb, deadline_ms=None, max_rungs=4, seed=None,
                    deadline_help="deadline for acc@deadline (overrides "
                                  "the fraction)",
                    max_rungs_help="rung budget per strategy")
    pb.add_argument("--device", default="xavier",
                    choices=["xavier", "nano", "agx_boosted"])
    pb.add_argument("--strategy", action="append", default=None,
                    choices=["greedy", "filter-prune", "halp", "dp-depth"],
                    help="builder to run (repeatable; default: all)")
    pb.add_argument("--deadline-frac", type=float, default=0.6,
                    dest="deadline_frac",
                    help="deadline as a fraction of the full model "
                         "latency")
    pb.add_argument("--save", default=None, metavar="DIR",
                    help="write the mixed frontier as .npz artifacts")
    po = nsub.add_parser(
        "online",
        help="drift-triggered re-estimation + live ladder rebuild")
    _scenario_flags(po, deadline_ms=None, requests=1000,
                    rate="0.4x the full TRN's single-request capacity",
                    deadline_help="serving deadline (default: 1.3x the "
                                  "full TRN)")
    po.add_argument("--factor", type=float, default=2.5,
                    help="thermal-throttle slowdown factor")
    po.add_argument("--method", default="ratio", choices=["ratio", "svr"],
                    help="re-estimation fit (per-rung median or pooled SVR)")
    po.add_argument("--verbose", action="store_true",
                    help="also print the drift monitor's event report")

    sub.add_parser("estimators", help="estimator error table (Fig. 9)")

    sub.add_parser("figures", help="list the reproduced figures/claims")

    p = sub.add_parser("pareto", help="TRN Pareto frontier + scatter")
    p.add_argument("--deadline", type=float, default=0.9)

    full_trn = "1.3x the full TRN's single-request capacity"
    p = sub.add_parser("serve",
                       help="deadline-aware serving on a TRN ladder")
    _scenario_flags(p, deadline_ms=0.9, requests=400, rate=full_trn)
    p.add_argument("--trace", choices=["poisson", "uniform"],
                   default="poisson")
    p.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    p.add_argument("--no-ladder", action="store_true", dest="no_ladder",
                   help="pin the full TRN (disable degradation)")
    p.add_argument("--execute", action="store_true",
                   help="run real forward passes on rendered images "
                        "(slower; default is timing-only simulation)")

    from repro.faults import SCENARIOS

    p = sub.add_parser("faults",
                       help="chaos replay against the resilient engine")
    p.add_argument("--scenario", default="straggler-storm",
                   choices=sorted(SCENARIOS),
                   help="built-in chaos scenario to replay")
    _scenario_flags(p, deadline_ms=0.9, requests=400, rate=full_trn)
    p.add_argument("--rung", action="append", default=None,
                   help="rung name targeted by rung-specific faults "
                        "(repeatable; default: the most accurate rung)")
    p.add_argument("--compare", action="store_true",
                   help="also replay with resilience off, side by side")
    p.add_argument("--no-resilience", action="store_true",
                   dest="no_resilience",
                   help="replay only the undefended engine")
    p.add_argument("--verbose", action="store_true",
                   help="print the injector's fault event log")

    from repro.cluster import POLICIES
    from repro.device import DEVICE_PROFILES

    p = sub.add_parser("cluster",
                       help="multi-replica scale-out serving")
    _scenario_flags(p, deadline_ms=3.0, requests=2000,
                    rate="~1.4x one replica's batched capacity per fleet "
                         "replica")
    p.add_argument("--replicas", type=_COUNT, default=3,
                   help="fleet size (with --autoscale: the cap)")
    p.add_argument("--policy", default="p2c-deadline",
                   choices=sorted(POLICIES),
                   help="routing policy")
    p.add_argument("--device", action="append", default=None,
                   choices=sorted(DEVICE_PROFILES),
                   help="device profile per replica (repeatable; builds "
                        "a heterogeneous fleet and overrides --replicas)")
    p.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    p.add_argument("--autoscale", action="store_true",
                   help="start from one replica and let the autoscaler "
                        "grow the fleet up to --replicas")
    p.add_argument("--kill-replica", type=int, default=None,
                   dest="kill_replica", metavar="INDEX",
                   help="hard-fail this replica's rungs mid-trace "
                        "(rung-failure scenario; enables resilience)")

    from repro.workload import WORKLOAD_KINDS

    p = sub.add_parser("workload",
                       help="production traffic: generate, replay, fluid")
    wsub = p.add_subparsers(dest="workload_cmd", required=True)

    def _workload_common(wp, with_process=True):
        _scenario_flags(wp, deadline_ms=3.0,
                        deadline_help="deadline for untagged (single-class) "
                                      "traffic")
        wp.add_argument("--queue-capacity", type=int, default=64,
                        dest="queue_capacity")
        wp.add_argument("--no-ladder", action="store_true",
                        dest="no_ladder",
                        help="pin the full TRN (disable degradation)")
        wp.add_argument("--tenants", action="store_true",
                        help="two-class interactive/batch tenant mix")
        wp.add_argument("--fair", action="store_true",
                        help="weighted-fair admission (needs --tenants)")
        wp.add_argument("--watermark", type=float, default=0.25,
                        help="queue fill fraction where fair shares bind")
        if with_process:
            wp.add_argument("--kind", default="diurnal-flash",
                            choices=list(WORKLOAD_KINDS),
                            help="workload shape")
            wp.add_argument("--base-rate", type=float, default=4000.0,
                            dest="base_rate",
                            help="base arrival rate in requests/s")
            wp.add_argument("--horizon-ms", type=float, default=300.0,
                            dest="horizon_ms")

    wp = wsub.add_parser("generate",
                         help="sample a workload, serve it, record the run")
    _workload_common(wp)
    wp.add_argument("--out", default=None, metavar="PATH",
                    help="record requests + outcomes as versioned JSONL")

    wp = wsub.add_parser("replay",
                         help="re-serve a recorded trace and verify it")
    _workload_common(wp, with_process=False)
    wp.add_argument("path", help="JSONL trace written by generate")

    wp = wsub.add_parser("fluid",
                         help="analytical throughput/miss predictions")
    _workload_common(wp)
    wp.add_argument("--replicas", type=_COUNT, default=1,
                    help="fleet size for the per-rung predictions")
    wp.add_argument("--rung", type=int, default=0,
                    help="rung index for --sweep/--plan-miss (0 = most "
                         "accurate)")
    wp.add_argument("--sweep", default=None, dest="replicas_sweep",
                    metavar="N,N,...",
                    help="comma-separated fleet sizes to sweep")
    wp.add_argument("--plan-miss", type=float, default=None,
                    dest="plan_miss", metavar="RATE",
                    help="plan the smallest fleet with every tenant at "
                         "or under this miss rate")

    p = sub.add_parser("obs",
                       help="telemetry: exposition, alerts, bench gate")
    osub = p.add_subparsers(dest="obs_cmd", required=True)

    def _sample_ms(op):
        op.add_argument("--sample-ms", type=float, default=1.0,
                        dest="sample_ms",
                        help="telemetry sampling interval (virtual ms)")

    op = osub.add_parser("expose",
                         help="serve with telemetry, print OpenMetrics text")
    _scenario_flags(op, deadline_ms=0.9, requests=400, rate=full_trn)
    _sample_ms(op)
    op.add_argument("--json", default=None, metavar="PATH",
                    help="also write the JSON export (metrics + series)")

    op = osub.add_parser("alerts",
                         help="burn-rate alert timeline on a chaos replay "
                              "(exit 1 if still firing at drain)")
    _scenario_flags(op, deadline_ms=2.5, requests=800, seed=2,
                    rate="0.65x the full TRN's single-request capacity")
    _sample_ms(op)
    op.add_argument("--scenario", default="straggler-storm",
                    choices=sorted(SCENARIOS),
                    help="chaos scenario over the first half of the trace")
    op.add_argument("--miss-budget", type=float, default=0.05,
                    dest="miss_budget",
                    help="SLO deadline-miss budget (fraction of completions)")
    op.add_argument("--fast-ms", type=float, default=8.0, dest="fast_ms",
                    help="fast burn-rate window (virtual ms)")
    op.add_argument("--slow-ms", type=float, default=24.0, dest="slow_ms",
                    help="slow burn-rate window (virtual ms)")
    op.add_argument("--fault-seed", type=int, default=0, dest="fault_seed")

    op = osub.add_parser("gate",
                         help="bench-regression gate: fresh BENCH_*.json "
                              "vs committed baselines (exit 1 on "
                              "regression)")
    op.add_argument("--baselines", default="benchmarks/baselines",
                    metavar="DIR",
                    help="directory of committed BENCH_*.json baselines")
    op.add_argument("--current", default=".", metavar="DIR",
                    help="directory with the just-produced BENCH_*.json")
    op.add_argument("--top", type=int, default=20,
                    help="movers-table rows (violations always shown)")

    p = sub.add_parser("profile",
                       help="per-kernel latency table on the modelled Xavier")
    p.add_argument("--net", default="mobilenet_v1_0.5",
                   help="zoo network (exact name, prefix or substring)")
    p.add_argument("--cutpoint", type=int, default=None,
                   help="blockwise cutpoint index: also print the "
                        "ratio-form TRN estimate from the table")
    p.add_argument("--runs", type=int, default=100,
                   help="profiled runs averaged per kernel")
    p.add_argument("--top", type=int, default=None,
                   help="show only the N slowest kernels")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("trace",
                       help="traced serving replay with drift monitoring")
    _scenario_flags(p, deadline_ms=0.9, requests=400, rate=full_trn)
    p.add_argument("--buffer", type=int, default=65536,
                   help="trace buffer capacity (spans)")
    p.add_argument("--drift-threshold", type=float, default=0.25,
                   dest="drift_threshold",
                   help="rolling |relative error| that raises a drift event")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write spans as JSON lines")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="write a chrome://tracing JSON file")
    return parser


_COMMANDS = {
    "zoo": cmd_zoo,
    "measure": cmd_measure,
    "explore": cmd_explore,
    "netcut": cmd_netcut,
    "estimators": cmd_estimators,
    "figures": cmd_figures,
    "pareto": cmd_pareto,
    "serve": cmd_serve,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "faults": cmd_faults,
    "cluster": cmd_cluster,
    "workload": cmd_workload,
    "obs": cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
