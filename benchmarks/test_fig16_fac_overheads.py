"""Figure 16: FAC storage/runtime overhead vs the optimum and padding."""

from repro.bench.experiments import fig16a_fac_overhead, fig16bc_strategy_compare
from repro.bench.scorecard import failed_checks


def test_fig16a_fac_overhead(run_experiment):
    result = run_experiment(
        fig16a_fac_overhead, chunk_counts=(50, 100, 500, 1000), skews=(0.0, 0.99), runs=10
    )
    # Overhead decreases with chunk count and converges toward zero
    # (paper: ~3% at 100 chunks, 0.8% at 500); skew barely matters (the
    # paper's surprising finding).
    assert failed_checks("fig16a", result.raw) == []


def test_fig16bc_strategy_compare(run_experiment):
    result = run_experiment(fig16bc_strategy_compare)
    raw = result.raw
    for name in ("lineitem", "taxi", "recipe", "ukpp"):
        fac_overhead, fac_runtime, fac_runtime_pct = raw[(name, "fac")]
        pad_overhead, _pad_runtime, _ = raw[(name, "padding")]
        # Paper: FAC <= 1.24% overhead at negligible runtime; padding
        # overhead is 1-2 orders of magnitude worse.
        assert fac_overhead < 2.0, name
        assert fac_runtime < 0.05, name
        assert fac_runtime_pct < 1.0, name
        assert pad_overhead > 10 * fac_overhead, name
