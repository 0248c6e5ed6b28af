#!/usr/bin/env sh
# Benchmark smoke: the fast (virtual-time, no-Workbench) benchmark subset
# plus the machine-readable perf trajectory.
#
# The figure-reproduction benchmarks rebuild the pretrained zoo and the
# 148-TRN exploration — minutes of work with tight tolerances — so they
# stay out of the smoke run; this covers the serve, cluster, obs and
# faults and workload benchmarks, all seeded and wall-clock-independent,
# then emits BENCH_serve.json, BENCH_workload.json and BENCH_forward.json
# at the repo root so the perf trajectory accumulates commit over commit.
# (BENCH_forward.json is real wall-clock NumPy compute — its speedup and
# parity columns are the stable signals, not the absolute samples/sec.)
#
# Two bench runs are diffed by pointing the gate at their BENCH
# directories: `python -m repro obs gate --baselines A --current B`.
#
# Heavy rung construction (bench_builders.py) reuses the same on-disk
# workbench cache examples_smoke.sh warms — ~/.cache/repro-netcut,
# override with REPRO_CACHE_DIR — so CI's cache step makes reruns cheap.
set -eu

cd "$(dirname "$0")/.."

REPRO_CACHE_DIR="${REPRO_CACHE_DIR:-$HOME/.cache/repro-netcut}"
export REPRO_CACHE_DIR

PYTHONHASHSEED=random PYTHONPATH=src python -m pytest \
    benchmarks/test_serve_throughput.py \
    benchmarks/test_cluster_scaleout.py \
    benchmarks/test_obs_overhead.py \
    benchmarks/test_faults_chaos.py \
    benchmarks/test_netcut_online.py \
    benchmarks/test_workload_slo.py \
    benchmarks/test_builder_bakeoff.py \
    -q --benchmark-disable "$@"

PYTHONPATH=src python scripts/bench_serve.py
PYTHONPATH=src python scripts/bench_workload.py
PYTHONPATH=src python scripts/bench_forward.py
PYTHONPATH=src python scripts/bench_builders.py

