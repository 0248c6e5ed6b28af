"""NetAdapt-style iterative channel pruning (related work, §II).

NetAdapt (Yang et al., 2018) adapts a *single* pretrained network to a
latency budget: every iteration it generates one candidate per prunable
layer (removing just enough of that layer's filters to save a fixed latency
step), short-fine-tunes each candidate, keeps the best, and repeats until
the budget is met. The NetCut paper's critique is the exploration cost —
each iteration retrains as many candidates as there are layers — which this
implementation reproduces and accounts for in simulated GPU-hours, so the
comparison benchmark can quantify it against NetCut's one-TRN-per-network
cost on the same task.

The pruning surgery supports chain topologies (MobileNetV1: stem plus
depthwise-separable blocks — the very network NetAdapt targeted). Removing
output channels of a pointwise convolution propagates through the following
batch-norm, activation, depthwise convolution and into the next pointwise
convolution's (or the head's) input dimension. The short fine-tune is
approximated by retraining the transfer head on the pruned features — the
same fast frozen-feature protocol the rest of this repository uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.k20m import TrainingCostModel
from repro.device.latency import network_latency
from repro.device.spec import DeviceSpec
from repro.metrics.angular import mean_angular_similarity
from repro.nn.graph import Network
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
)
from repro.train.features import record_gap_features
from repro.train.trainer import train_head_on_features

__all__ = ["prune_output_channels", "NetAdaptConfig", "NetAdaptResult",
           "run_netadapt"]


def _consumers(net: Network) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {name: [] for name in net.nodes}
    for node in net.nodes.values():
        for dep in node.inputs:
            out[dep].append(node.name)
    return out


def _reindex(param, idx: np.ndarray, axis: int) -> None:
    param.value = np.take(param.value, idx, axis=axis)
    param.grad = np.zeros_like(param.value)


def prune_output_channels(net: Network, conv_name: str,
                          keep: np.ndarray) -> None:
    """Remove output channels of a convolution, propagating downstream.

    ``keep`` is the sorted index array of channels to retain. The selection
    propagates through channel-wise layers (batch norm, activations,
    pooling, depthwise convolutions) until it is absorbed by the input
    dimension of the next full convolution or dense layer. Branching
    topologies are rejected — chain networks only (MobileNetV1 family).

    The network's cached shapes are refreshed afterwards.
    """
    node = net.nodes[conv_name]
    if not isinstance(node.layer, Conv2D):
        raise ValueError(f"{conv_name!r} is not a Conv2D")
    keep = np.asarray(keep, dtype=int)
    if keep.size < 1:
        raise ValueError("must keep at least one channel")
    conv = node.layer
    _reindex(conv.params["w"], keep, axis=3)
    if conv.use_bias:
        _reindex(conv.params["b"], keep, axis=0)
    conv.filters = int(keep.size)

    consumers = _consumers(net)
    current = conv_name
    while True:
        nexts = consumers[current]
        if len(nexts) != 1:
            raise ValueError(
                f"pruning requires a chain topology; {current!r} has "
                f"{len(nexts)} consumers")
        current = nexts[0]
        layer = net.nodes[current].layer
        if isinstance(layer, BatchNorm):
            for pname in ("gamma", "beta"):
                _reindex(layer.params[pname], keep, axis=0)
            layer.running_mean = layer.running_mean[keep].copy()
            layer.running_var = layer.running_var[keep].copy()
        elif isinstance(layer, DepthwiseConv2D):
            _reindex(layer.params["w"], keep, axis=2)
            if layer.use_bias:
                _reindex(layer.params["b"], keep, axis=0)
        elif isinstance(layer, Conv2D):
            _reindex(layer.params["w"], keep, axis=2)
            break
        elif isinstance(layer, Dense):
            _reindex(layer.params["w"], keep, axis=0)
            break
        # activations / pooling / GAP: channel count passes through
    net.build(0)  # refresh cached shapes; built layers are not re-initialised


def _channel_saliency(conv: Conv2D) -> np.ndarray:
    """L2 norm of each output channel's filter (magnitude pruning)."""
    w = conv.params["w"].value
    return np.sqrt(np.sum(w * w, axis=(0, 1, 2)))


@dataclass(frozen=True)
class NetAdaptConfig:
    """Hyper-parameters of the simplified NetAdapt loop."""

    step_ms: float = 0.02          # latency reduction per iteration
    min_channels: int = 2
    head_epochs_short: int = 15    # the per-candidate short fine-tune
    head_epochs_final: int = 50    # the final long fine-tune
    seed: int = 0


@dataclass
class IterationRecord:
    """One NetAdapt iteration: what was pruned and what it achieved."""

    iteration: int
    pruned_layer: str
    channels_left: int
    latency_ms: float
    proxy_accuracy: float
    candidates_evaluated: int


@dataclass
class NetAdaptResult:
    """Outcome of a NetAdapt run."""

    network: Network
    accuracy: float
    latency_ms: float
    history: list[IterationRecord] = field(default_factory=list)
    candidates_trained: int = 0
    train_hours: float = 0.0


def _head_input_node(net: Network) -> str:
    if "head_gap" in net.nodes:
        return net.nodes["head_gap"].inputs[0]
    return net.nodes["gap"].inputs[0]


def _proxy_accuracy(net: Network, train_x, train_y, test_x, test_y,
                    epochs: int, seed: int) -> float:
    node = _head_input_node(net)
    feats_train = record_gap_features(net, train_x, [node])
    feats_test = record_gap_features(net, test_x, [node])
    head = train_head_on_features(feats_train[node], train_y,
                                  train_y.shape[1], epochs=epochs,
                                  rng=seed).network
    return mean_angular_similarity(head.forward(feats_test[node]), test_y)


def run_netadapt(net: Network, budget_ms: float, device: DeviceSpec,
                 train_x: np.ndarray, train_y: np.ndarray,
                 test_x: np.ndarray, test_y: np.ndarray,
                 config: NetAdaptConfig = NetAdaptConfig(),
                 cost_model: TrainingCostModel | None = None,
                 max_iterations: int = 60) -> NetAdaptResult:
    """Adapt ``net`` (a chain-topology transfer model) to ``budget_ms``.

    The network is modified on a working copy; the input network is left
    untouched. Raises ``RuntimeError`` if the budget cannot be reached
    before every layer hits ``min_channels`` — up front, before any
    fine-tune, when even the fully pruned network misses it.
    """
    work = net.copy()
    work.build(config.seed)
    result = NetAdaptResult(work, float("nan"),
                            network_latency(work, device).total_ms)
    prunable = [name for name, node in work.nodes.items()
                if isinstance(node.layer, Conv2D) and node.role != "head"]
    if result.latency_ms > budget_ms:
        # latency is monotone in channel count, so the all-min_channels
        # network is the fastest the loop below can ever reach
        floor = work.copy()
        floor.build(config.seed)
        for lname in prunable:
            if floor.nodes[lname].layer.filters > config.min_channels:
                prune_output_channels(floor, lname,
                                      np.arange(config.min_channels))
        floor_ms = network_latency(floor, device).total_ms
        if floor_ms > budget_ms:
            raise RuntimeError(
                f"cannot reach {budget_ms} ms: with every prunable layer "
                f"at {config.min_channels} channels the network still "
                f"takes {floor_ms:.4g} ms")

    iteration = 0
    while result.latency_ms > budget_ms:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError("NetAdapt exceeded its iteration budget")
        target = result.latency_ms - config.step_ms
        # (reached_target, accuracy, latency, network, layer, channels)
        best: tuple[bool, float, float, Network, str, int] | None = None
        evaluated = 0
        for lname in prunable:
            conv = work.nodes[lname].layer
            if conv.filters <= config.min_channels:
                continue
            saliency = _channel_saliency(conv)
            order = np.argsort(saliency)  # prune smallest-norm first
            # smallest number of removals reaching the target, else the
            # deepest allowed prune of this layer (partial progress)
            candidate = None
            reached = False
            for n_remove in range(1, conv.filters - config.min_channels + 1):
                keep = np.sort(order[n_remove:])
                trial = work.copy()
                trial.build(config.seed)
                prune_output_channels(trial, lname, keep)
                ms = network_latency(trial, device).total_ms
                candidate = trial
                if ms <= target:
                    reached = True
                    break
            if candidate is None:
                continue
            ms = network_latency(candidate, device).total_ms
            if ms >= result.latency_ms - 1e-9:
                continue  # pruning this layer saves nothing
            evaluated += 1
            acc = _proxy_accuracy(candidate, train_x, train_y, test_x,
                                  test_y, config.head_epochs_short,
                                  config.seed)
            if cost_model is not None:
                result.train_hours += cost_model.train_hours_for_flops(
                    candidate.total_flops()) * (
                        config.head_epochs_short / cost_model.epochs)
            kept = candidate.nodes[lname].layer.filters
            # prefer candidates that reached the step target; among equals,
            # highest proxy accuracy (NetAdapt's selection rule)
            key = (reached, acc)
            if best is None or key > (best[0], best[1]):
                best = (reached, acc, ms, candidate, lname, kept)
        if best is None:
            raise RuntimeError(
                f"cannot reach {budget_ms} ms: no layer can be pruned "
                f"further at iteration {iteration}")
        _, acc, _, work, lname, kept = best
        result.network = work
        result.latency_ms = network_latency(work, device).total_ms
        result.candidates_trained += evaluated
        result.history.append(IterationRecord(
            iteration, lname, kept, result.latency_ms, acc, evaluated))

    result.accuracy = _proxy_accuracy(work, train_x, train_y, test_x,
                                      test_y, config.head_epochs_final,
                                      config.seed)
    if cost_model is not None:
        result.train_hours += cost_model.train_hours_for_flops(
            work.total_flops())
    return result
