"""Figure 13: the headline per-column latency reductions and breakdowns."""

from repro.bench.experiments import fig13ab_column_sweep, fig13cd_breakdown
from repro.bench.scorecard import failed_checks


def test_fig13ab_column_sweep(run_experiment):
    result = run_experiment(fig13ab_column_sweep, num_queries=50)
    # Paper headline: up to ~65% median / ~81% tail reduction on the big
    # split-prone columns; Fusion wins clearly on columns 1, 2, 5, 15.
    # Small, highly-compressed columns benefit less than the big ones
    # (paper: "modest" for 3 and 9).
    assert failed_checks("fig13ab", result.raw) == []


def test_fig13cd_breakdown(run_experiment):
    result = run_experiment(fig13cd_breakdown, num_queries=20)
    raw = result.raw
    # Column 5: the baseline is network-bound (paper: ~57%); Fusion is not.
    assert raw[(5, "baseline")]["network"] > 0.5
    assert raw[(5, "fusion")]["network"] < 0.2
    # Fusion's time goes to disk + processing instead.
    fusion5 = raw[(5, "fusion")]
    assert fusion5["disk"] + fusion5["processing"] > 0.7
