"""Tests of the benchmark itself: seeding, probe removal, failing checks.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402


def outcomes(cls, seed: int, calls: int) -> list[dict]:
    workload = cls()
    workload.setup()
    workload.generate(seed)
    return [workload.outcome(k, workload.prepare(k)())
            for k in range(calls)]


@pytest.mark.parametrize("cls", [workloads.FleetOverload,
                                 workloads.ThrottledObserved])
def test_simulated_outcomes_repeat_for_a_seed_and_follow_it(cls):
    first = outcomes(cls, 1, 2)
    assert outcomes(cls, 1, 2) == first
    assert outcomes(cls, 2, 2) != first


def test_fleet_calls_build_no_latency_table(monkeypatch):
    workload = workloads.FleetOverload()
    workload.setup()
    workload.generate(1)
    call = workload.prepare(0)
    built = []
    real = workloads.device_runtime.network_latency

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads.device_runtime, "network_latency", counted)
    workload.outcome(0, call())
    assert built == []


def test_device_replay_repeats_for_a_seed_and_follows_it():
    def replay(seed):
        workload = workloads.HostInference()
        workload.setup()
        workload.generate(seed)
        return workload.replay()

    first = replay(1)
    assert replay(1) == first
    assert replay(2)["latency_ms"] != first["latency_ms"]


def probed_attributes():
    return [(p.owner, p.attr, p.owner.__dict__[p.attr])
            for p in workloads.probes()]


def assert_probes_gone(before):
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_traced_run_reports_every_layer_and_removes_its_probes(capsys):
    before = probed_attributes()
    assert run.main(["--workload", "host_inference", "--seed", "3",
                     "--seconds", "0.1", "--trace", "1"]) == 0
    assert_probes_gone(before)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    layers = [v["value"] for k, v in metrics.items()
              if k.endswith(".self_share")]
    assert sum(layers) == pytest.approx(1.0)
    assert metrics["nn.kernel.ConvKernel.self_share"]["value"] > 0
    assert metrics["serve.controller.self_share"]["value"] == 0


def test_probes_are_removed_when_the_traced_run_fails(monkeypatch, capsys):
    before = probed_attributes()
    real = workloads.HostInference.outcome

    def failing(self, k, result):
        if workloads.TRNRung.__dict__["forward"] is not before_forward:
            raise workloads.CheckFailed("injected failure")
        return real(self, k, result)

    before_forward = workloads.TRNRung.__dict__["forward"]
    monkeypatch.setattr(workloads.HostInference, "outcome", failing)
    assert run.main(["--workload", "host_inference", "--seed", "3",
                     "--seconds", "0.1", "--trace", "1"]) == 1
    assert_probes_gone(before)
    assert "injected failure" in capsys.readouterr().err


def test_a_traced_outcome_that_differs_fails_the_command(monkeypatch,
                                                        capsys):
    real = workloads.HostInference.outcome
    plain_forward = workloads.TRNRung.__dict__["forward"]

    def drifting(self, k, result):
        out = real(self, k, result)
        if workloads.TRNRung.__dict__["forward"] is not plain_forward:
            out = {**out, "completed": 2}      # only while probed
        return out

    monkeypatch.setattr(workloads.HostInference, "outcome", drifting)
    assert run.main(["--workload", "host_inference", "--seed", "3",
                     "--seconds", "0.1", "--trace", "1"]) == 1
    captured = capsys.readouterr()
    assert "differ between the untraced and the traced run" in captured.err
    assert captured.out == ""


def test_broken_conservation_fails_the_command(monkeypatch, capsys):
    real = workloads.ThrottledObserved.outcome

    def lossy(self, k, result):
        result.responses.pop()          # one request loses its response
        return real(self, k, result)

    monkeypatch.setattr(workloads.ThrottledObserved, "outcome", lossy)
    before = probed_attributes()
    assert run.main(["--workload", "throttled_observed", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0"]) == 1
    assert_probes_gone(before)          # the request-entry stamps too
    captured = capsys.readouterr()
    assert "conservation" in captured.err
    assert captured.out == ""


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_overload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
