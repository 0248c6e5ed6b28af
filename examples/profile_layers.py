"""Per-kernel profiling demo: the paper's estimator from measured kernels.

NetCut's profiler-based estimator needs one per-layer latency table per
original network. The paper builds it with CUDA events around every layer
on the Jetson Xavier. This demo builds the same kind of table from real
forward passes on the host CPU: the compiled forward path times every
fused kernel launch (``net.compile().enable_timing()``), and
``latency_table()`` averages those timings into a
:class:`repro.device.LatencyTable` with one record per fused kernel — the
same anchors :func:`repro.device.profile_network` uses for the modelled
Xavier, so :class:`repro.estimators.ProfilerEstimator` takes either table
unchanged.

It then prints the paper's ratio-form TRN latency estimate

    Latency(TRN) = Latency(Net0) * (1 - sum(removed t_i) / sum(all t_i))

from both tables at every cut depth. The two columns are not expected to
agree: one is host wall-clock, the other the modelled Xavier.

Run:  python examples/profile_layers.py
"""

import numpy as np

from repro.device import profile_network, xavier
from repro.estimators import ProfilerEstimator
from repro.trim import enumerate_blockwise, removed_node_set
from repro.zoo import build_network

NETWORK = "mobilenet_v1_0.25"
WARMUP = 20             # untimed forwards (caches, arena allocation)
RUNS = 100              # timed forward passes

net = build_network(NETWORK).build(0)
x = np.zeros(net.input_shape, dtype=np.float32)

# every forward of a compiled network routes through the fused plan
plan = net.compile()
for _ in range(WARMUP):
    net.forward_one(x)
plan.enable_timing()
for _ in range(RUNS):
    net.forward_one(x)
host = plan.latency_table()

print(host.describe(top=10))
print(f"\n({RUNS} timed forwards after {WARMUP} untimed warm-up runs)\n")

# the modelled Xavier's table, kernel for kernel
modelled = profile_network(net, xavier())
assert [r.anchor for r in host.records] \
    == [r.anchor for r in modelled.records]
est_host = ProfilerEstimator(net, host)
est_xavier = ProfilerEstimator(net, modelled)

print(f"{'cutpoint':24s} {'blocks':>6} {'host est (ms)':>14} "
      f"{'Xavier est (ms)':>16}")
for cut in enumerate_blockwise(net):
    removed = removed_node_set(net, cut.cut_node)
    print(f"{cut.cut_node:24s} {cut.blocks_removed:>6d} "
          f"{est_host.estimate(removed):>14.4f} "
          f"{est_xavier.estimate(removed):>16.4f}")
