"""CLI integration tests: every subcommand end-to-end in --quick mode."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("clicache"))


def run(cache, *argv, capsys=None):
    code = main(["--quick", "--cache-dir", cache,
                 "--networks", "mobilenet_v1_0.25",
                 "--networks", "mobilenet_v1_0.5",
                 *argv])
    assert code == 0


class TestCLIIntegration:
    def test_measure(self, cache, capsys):
        run(cache, "measure", "--deadline", "0.35")
        out = capsys.readouterr().out
        assert "mobilenet_v1_0.5" in out
        assert "meets" in out or "misses" in out

    def test_measure_single_net(self, cache, capsys):
        run(cache, "measure", "--net", "mobilenet_v1_0.25")
        out = capsys.readouterr().out
        assert "mobilenet_v1_0.25" in out
        assert "mobilenet_v1_0.5" not in out.splitlines()[-1]

    def test_explore(self, cache, capsys):
        run(cache, "explore")
        out = capsys.readouterr().out
        assert "TRNs explored" in out
        assert "best TRN" in out

    def test_netcut(self, cache, capsys):
        run(cache, "netcut", "--deadline", "0.35",
            "--estimator", "profiler")
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "blocks_removed" in out

    def test_netcut_online(self, cache, capsys):
        # the nested verb must not disturb the flat `netcut` form above
        run(cache, "netcut", "online", "--requests", "200")
        out = capsys.readouterr().out
        assert "static estimates" in out
        assert "online re-estimation" in out
        assert "re-estimations" in out
        assert "calibrated ladder" in out

    def test_estimators(self, cache, capsys):
        run(cache, "estimators")
        out = capsys.readouterr().out
        assert "profiler%" in out
        assert "mobilenet_v1_0.5" in out

    def test_pareto(self, cache, capsys):
        run(cache, "pareto", "--deadline", "0.35")
        out = capsys.readouterr().out
        assert "Pareto frontier:" in out
        assert "latency (ms)" in out


class TestObservabilityCommands:
    """``trace`` and ``profile`` need no Workbench cache, so they run at
    full size and their output is pinned against the library calls."""

    def test_trace_prints_final_rung_and_component_reports(self, capsys):
        from repro.device import xavier
        from repro.obs import DriftMonitor, Tracer
        from repro.serve import Server, ServerConfig, TRNLadder
        from repro.workload import poisson_trace
        from repro.zoo import build_network

        assert main(["trace", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        # the same default scenario, rebuilt from the library
        base = build_network("mobilenet_v1_0.5").build(0)
        ladder = TRNLadder.from_base(base, xavier(), num_classes=5,
                                     max_rungs=6)
        rate = 1.3e3 / ladder.rungs[0].estimate_ms(1)
        tracer = Tracer(capacity=65536)
        drift = DriftMonitor(threshold=0.25)
        server = Server(ladder, ServerConfig(deadline_ms=0.9, execute=False,
                                             seed=0),
                        tracer=tracer, drift=drift)
        result = server.run_trace(poisson_trace(200, rate, 0.9, rng=0))
        expected = [
            f"200 Poisson requests @ {rate:,.0f} req/s, "
            "deadline 0.9 ms, seed 0",
            "",
            f"serve.final_rung: {ladder.current_index}",
            "-- serve --", result.metrics.report(),
            "-- trace --", tracer.report(),
            "-- drift --", drift.report(),
        ]
        assert out == "\n".join(expected) + "\n"

    def test_profile_prints_table_and_ratio_estimate(self, capsys):
        from repro.device import profile_network, xavier
        from repro.zoo import build_network

        assert main(["profile", "--net", "mobilenet_v1_0.25",
                     "--cutpoint", "3", "--top", "3"]) == 0
        out = capsys.readouterr().out
        net = build_network("mobilenet_v1_0.25").build(0)
        table = profile_network(net, xavier(), rng=0)
        described = table.describe(top=3)
        assert out.startswith(described + "\n")
        # header + column row + 3 kernels + the overhead footer
        assert len(described.splitlines()) == 6
        assert "recorded total" in described and "end-to-end" in described
        lines = out.splitlines()
        assert any(line.startswith("cutpoint 3 (") for line in lines)
        estimates = [line for line in lines
                     if line.startswith("ratio estimate")]
        assert len(estimates) == 1
        assert estimates[0].endswith(" ms")
