"""Figure 15: real-world SQL queries (latency and network traffic)."""

from repro.bench.experiments import fig15a_realworld, fig15b_traffic
from repro.bench.scorecard import failed_checks


def test_fig15a_realworld_latency(run_experiment):
    result = run_experiment(fig15a_realworld, num_queries=30)
    # Paper: Fusion reduces latency on all four queries (up to 48%/40% on
    # TPC-H, up to 32%/48% on taxi).
    assert failed_checks("fig15a", result.raw) == []


def test_fig15b_network_traffic(run_experiment):
    result = run_experiment(fig15b_traffic, num_queries=30)
    # Paper: Fusion generates up to 8.9x less traffic; always less.
    assert failed_checks("fig15b", result.raw) == []
