"""Figure 4: the motivation experiments (splits, breakdown, CDF, padding)."""

from repro.bench.experiments import (
    fig4a_chunk_splits,
    fig4b_baseline_breakdown,
    fig4c_chunk_cdf,
    fig4d_padding_overhead,
)
from repro.bench.scorecard import failed_checks


def test_fig4a_chunk_splits(run_experiment):
    result = run_experiment(fig4a_chunk_splits)
    # Paper: splits remain significant even at 100MB blocks (~40% / ~24%),
    # and worsen monotonically as blocks shrink.
    assert failed_checks("fig4a", result.raw) == []


def test_fig4b_baseline_breakdown(run_experiment):
    result = run_experiment(fig4b_baseline_breakdown, num_queries=20)
    frac = result.raw["fractions"]
    # Paper: ~50% of baseline time goes to network reassembly; disk small.
    assert frac["network"] > 0.4
    assert frac["network"] > frac["disk"]
    assert frac["network"] > frac["processing"]


def test_fig4c_chunk_cdf(run_experiment):
    result = run_experiment(fig4c_chunk_cdf)
    lineitem = result.raw["lineitem"]
    taxi = result.raw["taxi"]
    # Lineitem is bimodal: median tiny relative to max; taxi more uniform.
    assert lineitem[50] < 10
    assert taxi[75] > lineitem[75]


def test_fig4d_padding_overhead(run_experiment):
    result = run_experiment(fig4d_padding_overhead)
    # Padding overhead is substantial (tens of %) on every dataset.
    for (name, code), pct in result.raw.items():
        assert pct > 10, (name, code, pct)
