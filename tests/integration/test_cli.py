"""The `python -m repro.bench` CLI."""

import json

from repro.bench.__main__ import main
from repro.bench.acceptance import PLANES, Plane
from repro.bench.envelope import SCHEMA, load_bench_report, write_bench_report
from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentResult


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig13ab", "table3", "fig16bc"):
            assert name in out

    def test_help(self, capsys):
        assert main([]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_runs_one_experiment(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Q1" in out and "took" in out

    def test_registry_complete(self):
        # Every paper table/figure has an entry.
        for required in (
            "table3",
            "table4",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig4d",
            "fig6",
            "fig10a",
            "fig10b",
            "fig12",
            "fig13ab",
            "fig13cd",
            "fig14ab",
            "fig14c",
            "fig14d",
            "fig15a",
            "fig15b",
            "fig16a",
            "fig16bc",
        ):
            assert required in ALL_EXPERIMENTS

    def test_every_experiment_has_docstring(self):
        for name, fn in ALL_EXPERIMENTS.items():
            assert fn.__doc__, name

    def test_json_export(self, tmp_path, capsys):
        assert main(["table4", "--json", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "table4.json").read_text())
        assert doc["experiment"] == "table4"
        assert doc["rows"]

    def test_json_flag_needs_dir(self, capsys):
        assert main(["table4", "--json"]) == 1


class TestBenchCli:
    def test_list_names_every_plane(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "dataplane", "fault_tolerance", "membership", "metadata_chaos",
            "obs_overhead", "overload", "paper", "partition", "qos",
        ):
            assert name in out
        assert len(PLANES) == 9

    def test_unknown_plane(self, capsys):
        assert main(["bench", "nope"]) == 1
        assert "unknown plane" in capsys.readouterr().err

    def test_failing_check_exits_1_and_writes_the_verdict(
        self, monkeypatch, tmp_path, capsys
    ):
        def scenario():
            """A fake plane."""
            return ExperimentResult(
                experiment="fake", title="fake", headers=["x"], rows=[[1]],
                raw={"fusion": {"x": 1}, "baseline": {"x": 2}},
            )

        plane = Plane(scenario, lambda raw: {"x_is_2": raw["x"] == 2}, {"x": 2})
        monkeypatch.setitem(PLANES, "fake", plane)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "fake"]) == 1
        out = capsys.readouterr().out
        assert "fusion: FAIL" in out and "FAILED check: x_is_2" in out
        assert "baseline: PASS" in out
        doc = load_bench_report(str(tmp_path / "BENCH_fake.json"))
        assert doc["acceptance"] == {"pass": False, "floors": {"x": 2}}
        assert doc["detail"]["systems"]["fusion"] == {"x": 1, "checks": {"x_is_2": False}}

    def test_summary_aggregates_envelopes(self, tmp_path, capsys):
        write_bench_report(str(tmp_path / "BENCH_a.json"), "a", 1.5, True, {"f": 1}, {})
        write_bench_report(str(tmp_path / "BENCH_b.json"), "b", 2.0, False, {}, {})
        assert main(["bench", "summary", str(tmp_path)]) == 1
        summary = json.loads((tmp_path / "BENCH_SUMMARY.json").read_text())
        assert summary == {
            "benchmarks": [
                {"file": "BENCH_a.json", "benchmark": "a", "schema": SCHEMA,
                 "wall_seconds": 1.5, "pass": True, "floors": {"f": 1}},
                {"file": "BENCH_b.json", "benchmark": "b", "schema": SCHEMA,
                 "wall_seconds": 2.0, "pass": False, "floors": {}},
            ],
            "total": 2,
            "passed": 1,
            "failed": 1,
            "all_pass": False,
        }
        assert "1/2 passed, 1 failed" in capsys.readouterr().out

    def test_summary_of_an_empty_directory_fails(self, tmp_path, capsys):
        assert main(["bench", "summary", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().err
