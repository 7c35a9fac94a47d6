"""Ablations of DESIGN.md's design choices and the extension bench."""

from repro.bench.experiments import (
    ablation_contention,
    ablation_cost_model,
    ablation_fac_policy,
    ablation_page_skipping,
    ext_aggregate_pushdown,
    ext_degraded_reads,
    ext_grouped_query,
)


def test_ablation_cost_model(run_experiment):
    result = run_experiment(ablation_cost_model, num_queries=20)
    raw = result.raw
    # Favourable regime (c5 @ 1%): adaptive ~ always, both beat never.
    assert raw[(5, 0.01, "adaptive")] <= raw[(5, 0.01, "never")] * 0.9
    assert raw[(5, 0.01, "adaptive")] <= raw[(5, 0.01, "always")] * 1.15
    # Unfavourable regime (c4 @ 75%): adaptive ~ never, no worse than always.
    assert raw[(4, 0.75, "adaptive")] <= raw[(4, 0.75, "always")] * 1.1
    assert raw[(4, 0.75, "adaptive")] <= raw[(4, 0.75, "never")] * 1.15


def test_ablation_contention(run_experiment):
    result = run_experiment(ablation_contention, num_queries=30)
    solo_f, solo_b = result.raw[1]
    crowd_f, crowd_b = result.raw[10]
    # Queueing under 10 clients inflates latency for both systems.
    assert crowd_b.p99() > solo_b.p99()
    assert crowd_f.p99() > solo_f.p99()
    # And the baseline's tail inflates more in absolute terms (it funnels
    # far more bytes through the shared coordinator).
    assert (crowd_b.p99() - solo_b.p99()) > (crowd_f.p99() - solo_f.p99())


def test_ablation_fac_policy(run_experiment):
    result = run_experiment(ablation_fac_policy, runs=10)
    # Least-occupied never does materially worse than first-fit.
    for (n, skew), (least_occupied, first_fit) in result.raw.items():
        assert least_occupied <= first_fit + 0.1, (n, skew)


def test_ext_aggregate_pushdown(run_experiment):
    result = run_experiment(ext_aggregate_pushdown, num_queries=20)
    on = result.raw["aggregate pushdown"]
    off = result.raw["coordinator aggregates"]
    # The paper's future-work extension: less traffic and lower latency.
    assert on.network_bytes < off.network_bytes
    assert on.p50() < off.p50()


def test_ablation_page_skipping(run_experiment):
    result = run_experiment(ablation_page_skipping, num_queries=20)
    on = result.raw[True]
    off = result.raw[False]
    # Page stats only ever help (stats are conservative).
    assert on.p50() <= off.p50() * 1.01


def test_ext_degraded_reads(run_experiment):
    result = run_experiment(ext_degraded_reads, num_queries=20)
    healthy = result.raw["healthy"]
    degraded = result.raw["degraded"]
    recovered = result.raw["recovered"]
    # On-the-fly reconstruction is much more expensive than a healthy
    # read, and recovery restores the original latency.
    assert degraded.p50() > 2 * healthy.p50()
    assert recovered.p50() < 1.2 * healthy.p50()


def test_ext_grouped_query(run_experiment):
    result = run_experiment(ext_grouped_query, num_queries=20)
    comp = result.raw["comparison"]
    # The GROUP BY form of Q4 still favours Fusion strongly.
    assert comp.p50_reduction > 40
    assert result.raw["groups"] > 10
