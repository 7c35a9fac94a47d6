"""Operational benches: Put latency, recovery time, mixed workloads,
and the wide-code overhead variant."""

from repro.bench.experiments import (
    fig16a_wide_code,
    mixed_workload,
    put_latency,
    recovery_time,
)


def test_put_latency(run_experiment):
    result = run_experiment(put_latency)
    for name, (f_report, b_report) in result.raw.items():
        # FAC adds negligible Put cost over fixed-block striping (the
        # paper's claim): within 3% here (lineitem 1.008x, taxi 1.001x).
        # The metadata round is charged at its real size, and each data
        # block leaves the coordinator as its bytes arrive from the
        # client, so both Puts overlap the upload with the egress.
        assert f_report.simulated_put_seconds < 1.03 * b_report.simulated_put_seconds, name
        assert f_report.layout_build_seconds < 0.05, name
        assert not f_report.fallback, name


def test_recovery_time(run_experiment):
    result = run_experiment(recovery_time)
    f_rebuilt, f_time = result.raw["fusion"]
    b_rebuilt, b_time = result.raw["baseline"]
    assert f_rebuilt > 0 and b_rebuilt > 0
    # Both systems use the same conventional RS repair; times are of the
    # same order of magnitude.
    assert f_time < 10 * b_time and b_time < 10 * f_time


def test_mixed_workload(run_experiment):
    result = run_experiment(mixed_workload, num_queries=40)
    comp = result.raw["comparison"]
    assert comp.p50_reduction > 30
    assert comp.p99_reduction > 30
    assert comp.traffic_ratio > 2


def test_fig16a_wide_code(run_experiment):
    result = run_experiment(fig16a_wide_code, chunk_counts=(50, 500), runs=10)
    raw = result.raw
    # The paper: RS(14,10) exhibits a similar pattern to RS(9,6).
    for code in ("RS(9,6)", "RS(14,10)"):
        assert raw[(code, 500)] < raw[(code, 50)]
        assert raw[(code, 500)] < 1.0
