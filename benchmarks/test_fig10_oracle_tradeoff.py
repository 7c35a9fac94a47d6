"""Figure 10: oracle runtime explosion and the pushdown trade-off grid."""

from repro.bench.experiments import fig10a_oracle_runtime, fig10b_tradeoff


def test_fig10a_oracle_runtime(run_experiment):
    result = run_experiment(fig10a_oracle_runtime)
    raw = result.raw
    times = [point["oracle_s"] for point in raw.values()]
    # The point of the figure: solve time grows rapidly with chunk count.
    assert max(times) > 5 * min(times)
    # Every solve is a proved optimum, so FAC never beats it.
    for n, point in raw.items():
        assert point["oracle_objective"] <= point["fac_objective"], n
    # The oracle is orders of magnitude slower than FAC on the same chunks
    # (paper: up to 3.91x the put latency, where FAC is microseconds).
    largest = raw[max(raw)]
    assert largest["oracle_s"] > 100 * largest["fac_s"]


def test_fig10b_tradeoff(run_experiment):
    result = run_experiment(
        fig10b_tradeoff,
        column_ids=(5, 4),
        selectivities=(0.01, 0.5, 1.0),
        num_queries=16,
    )
    raw = result.raw
    # Always-on pushdown: big wins at low selectivity...
    assert raw[(5, 0.01)] > 30
    assert raw[(4, 0.01)] > 30
    # ...and it stops helping (or hurts) at full selectivity.
    assert raw[(5, 1.0)] < 15
    assert raw[(4, 1.0)] < 15
    # Within a column, lower selectivity is never worse.
    assert raw[(5, 0.01)] >= raw[(5, 1.0)]
