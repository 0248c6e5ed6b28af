"""Golden pins of the ``repro`` command-line verbs.

Every fast verb (no Workbench needed) runs in-process on its seeded
defaults and on the flag combinations that take a different code path;
each case's stdout and exit code are compared byte for byte against a
committed file under ``tests/golden/cli``. The cases run in one temporary
working directory with relative output paths, so the paths they print
are stable, and ``workload replay`` re-serves the file the ``generate``
case just recorded.

A deliberate change to what a verb prints regenerates the files::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import tempfile

import pytest

from repro import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")

# (case name, argv); run in this order, in one shared working directory
CASES = [
    ("zoo", ["zoo"]),
    ("figures", ["figures"]),
    ("serve", ["serve"]),
    ("serve_uniform_no_ladder", ["serve", "--trace", "uniform",
                                 "--no-ladder"]),
    ("serve_execute", ["serve", "--execute", "--requests", "60"]),
    ("trace_out_chrome", ["trace", "--out", "serve.jsonl",
                          "--chrome", "serve.trace.json"]),
    ("faults_compare_verbose", ["faults", "--compare", "--verbose"]),
    ("faults_rung_failure", ["faults", "--scenario", "rung-failure"]),
    ("cluster", ["cluster"]),
    ("cluster_autoscale", ["cluster", "--autoscale"]),
    ("cluster_kill_replica", ["cluster", "--kill-replica", "1"]),
    ("cluster_devices", ["cluster", "--device", "xavier",
                         "--device", "nano"]),
    ("workload_generate", ["workload", "generate", "--tenants", "--fair",
                           "--out", "run.jsonl"]),
    ("workload_replay", ["workload", "replay", "run.jsonl", "--tenants",
                         "--fair"]),
    ("workload_fluid", ["workload", "fluid"]),
    ("workload_fluid_sweep", ["workload", "fluid", "--sweep", "1,2",
                              "--tenants"]),
    ("workload_fluid_plan", ["workload", "fluid", "--plan-miss", "0.05"]),
    ("obs_expose", ["obs", "expose"]),
    ("obs_alerts", ["obs", "alerts"]),
    ("netcut_online", ["netcut", "online"]),
    ("netcut_build", ["netcut", "build", "--max-rungs", "2"]),
    ("profile_cutpoint", ["profile", "--cutpoint", "3"]),
]

# verbs that build a Workbench (pretrained networks, cached exploration);
# tests/test_cli_integration.py drives them, and plain `netcut`, in
# --quick mode
EXEMPT = {"measure", "explore", "estimators", "pareto"}


def run_case(argv: list[str]) -> str:
    """One verb's exit code and stdout, as the golden file holds them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"$ repro {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


def render() -> dict[str, str]:
    """Every case's rendering, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return {name: run_case(argv) for name, argv in CASES}
        finally:
            os.chdir(cwd)


@pytest.fixture(scope="module")
def rendered():
    return render()


def test_every_command_has_a_case():
    covered = {argv[0] for _, argv in CASES}
    missing = set(cli._COMMANDS) - covered - EXEMPT
    assert not missing, f"repro verbs without a golden CLI case: {missing}"
    assert not EXEMPT & covered
    assert EXEMPT <= set(cli._COMMANDS)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_output_matches_golden(rendered, name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as fh:
        assert rendered[name] == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in render().items():
        path = os.path.join(GOLDEN_DIR, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
