"""The paper scorecard: ``BENCH_paper.json`` is what a run of this tree writes.

Every scorecard number is simulated or a pure layout computation, so a
fresh ``python -m repro.bench scorecard`` must reproduce the committed
report exactly, apart from ``wall_seconds``.  A change that moves a
paper number fails here until it re-commits the report and says why.
"""

import pathlib

import pytest

from repro.bench.__main__ import main
from repro.bench.envelope import load_bench_report
from repro.bench.scorecard import FIGURES, failed_checks, verdicts

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _without_wall(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if key != "wall_seconds"}


def test_a_fresh_scorecard_equals_the_committed_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["scorecard"]) == 0
    out = capsys.readouterr().out
    assert all(f"{name}: PASS" in out for name in FIGURES)
    fresh = load_bench_report(str(tmp_path / "BENCH_paper.json"))
    committed = load_bench_report(str(ROOT / "BENCH_paper.json"))
    assert _without_wall(fresh) == _without_wall(committed)


def test_every_figure_records_the_paper_and_ours_under_the_same_keys():
    systems = load_bench_report(str(ROOT / "BENCH_paper.json"))["detail"]["systems"]
    assert set(systems) == set(FIGURES)
    for name, entry in systems.items():
        assert entry["paper"] == FIGURES[name].paper
        assert set(entry["ours"]) == set(entry["paper"])
        assert entry["checks"] == verdicts(name, entry["series"])


@pytest.mark.parametrize(
    "raw, failed",
    [
        (
            {"tpc-h lineitem": {0.1: 100, 1.0: 100, 10.0: 90, 100.0: 61}, "taxi": {100.0: 24}},
            ["25 <= lineitem split % at 100MB <= 60"],
        ),
        (
            {"tpc-h lineitem": {0.1: 100, 1.0: 80, 10.0: 90, 100.0: 40}, "taxi": {100.0: 14}},
            ["15 <= taxi split % at 100MB <= 40", "lineitem splits grow as blocks shrink"],
        ),
    ],
)
def test_a_shape_check_fails_when_its_number_crosses_the_bound(raw, failed):
    assert failed_checks("fig4a", raw) == failed


def test_fig16a_checks_read_both_skews():
    raw = {(skew, n): 0.5 for skew in (0.0, 0.99) for n in (50, 500, 1000)}
    assert failed_checks("fig16a", raw) == []
    raw[(0.99, 1000)] = 0.6
    raw[(0.0, 50)] = 2.0
    raw[(0.0, 500)] = 1.6
    assert failed_checks("fig16a", raw) == [
        "zipf 0: overhead at 500 chunks < 1.0%",
        "zipf 0.99: overhead at 1000 chunks < 0.6%",
        "zipf 0 and 0.99 within 1 point at 500 chunks",
    ]
