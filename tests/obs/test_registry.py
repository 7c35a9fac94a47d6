"""Metrics registry: counters/gauges/histograms, the ClusterMetrics feed,
and the Prometheus/JSON exports."""

import math

import pytest

from repro.cluster.metrics import ClusterMetrics, QueryMetrics
from repro.obs.registry import (
    BYTES_BUCKETS,
    Histogram,
    MetricsRegistry,
    export_merged,
    log_buckets,
)
from repro.obs.validate import validate_prometheus_text


def test_counter_monotone_and_labelled():
    reg = MetricsRegistry()
    c = reg.counter("repro_things_total", "things", kind="a")
    c.inc()
    c.inc(2)
    assert c.value == 3
    with pytest.raises(ValueError):
        c.inc(-1)
    # Same name+labels returns the same instance; new labels a new one.
    assert reg.counter("repro_things_total", kind="a") is c
    assert reg.counter("repro_things_total", kind="b") is not c


def test_name_and_type_collisions_rejected():
    reg = MetricsRegistry()
    reg.counter("repro_x_total")
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total")
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("repro_y_total", **{"0bad": "v"})


def test_log_buckets_geometric():
    bounds = log_buckets(1.0, 16.0)
    assert bounds == [1.0, 2.0, 4.0, 8.0, 16.0]
    with pytest.raises(ValueError):
        log_buckets(0.0, 10.0)


def test_histogram_quantiles_nearest_rank():
    h = Histogram({}, bounds=[1.0, 2.0, 4.0, 8.0])
    for v in [0.5, 1.5, 1.6, 3.0, 7.0, 20.0]:
        h.observe(v)
    assert h.count == 6
    assert h.sum == pytest.approx(33.6)
    # Ranks: p50 -> 3rd of 6 -> the le=2.0 bucket's bound.
    assert h.p50() == 2.0
    # p99 -> 6th of 6 -> overflow bucket, reported at the tracked max.
    assert h.p99() == 20.0
    assert h.quantile(0.0) == 1.0  # rank clamps to 1


def test_histogram_bucket_edges():
    """Each value's bucket, pinned at the edges a bucket search can get
    wrong: ``bisect.bisect_left`` would file NaN in the first bucket, while
    ``observe`` files it under ``+Inf`` (NaN is not ``<=`` any bound)."""
    bounds = [1.0, 2.0, 4.0]
    for value, bucket in [
        (0.5, 0),  # below the first bound
        (1.0, 0),  # equal to a bound: ``le`` is inclusive
        (2.0, 1),
        (2.5, 2),
        (4.0, 2),
        (4.5, 3),  # above the last bound: +Inf
        (math.inf, 3),
        (math.nan, 3),
    ]:
        h = Histogram({}, bounds=bounds)
        h.observe(value, trace_id=1)
        assert h.counts == [int(i == bucket) for i in range(4)], value
        assert list(h.exemplars) == [bucket], value


def test_histogram_empty_quantile_zero():
    assert Histogram({}).p99() == 0.0


def _qm(latency=0.2, network=1000):
    qm = QueryMetrics()
    qm.start_time = 0.0
    qm.end_time = latency
    qm.network_bytes = network
    qm.pushed_down_chunks = 3
    qm.fallback_chunks = 1
    qm.rpcs_issued = 7
    qm.retries = 1
    qm.timeouts = 2
    qm.add("network", 0.1)
    return qm


def test_record_query_feeds_named_metrics():
    reg = MetricsRegistry()
    reg.record_query(_qm())
    reg.record_query(_qm(latency=0.4))
    d = reg.to_dict()
    assert d["repro_queries_total"]["samples"][0]["value"] == 2
    lat = d["repro_query_latency_seconds"]["samples"][0]
    assert lat["count"] == 2
    assert lat["sum"] == pytest.approx(0.6)
    decisions = {
        s["labels"]["decision"]: s["value"]
        for s in d["repro_pushdown_chunks_total"]["samples"]
    }
    assert decisions == {"pushdown": 6, "fallback": 2}
    assert d["repro_op_timeouts_total"]["samples"][0]["value"] == 4


def test_cluster_metrics_duck_types_into_registry():
    cm = ClusterMetrics()
    reg = MetricsRegistry()
    cm.registry = reg
    cm.record_query(_qm())
    cm.record_repair(5000, 3, 1.5)
    d = reg.to_dict()
    assert d["repro_queries_total"]["samples"][0]["value"] == 1
    assert d["repro_repair_bytes_total"]["samples"][0]["value"] == 5000
    assert d["repro_repair_blocks_total"]["samples"][0]["value"] == 3


def test_prometheus_export_valid_and_has_inf_bucket():
    reg = MetricsRegistry(const_labels={"system": "fusion"})
    reg.record_query(_qm())
    text = reg.export()
    assert validate_prometheus_text(text) == []
    assert 'le="+Inf"' in text
    assert 'system="fusion"' in text


def test_export_merged_keeps_systems_distinct():
    a = MetricsRegistry(const_labels={"system": "fusion"})
    b = MetricsRegistry(const_labels={"system": "baseline"})
    a.record_query(_qm())
    b.record_query(_qm())
    b.record_query(_qm())
    text = export_merged([a, b])
    assert validate_prometheus_text(text) == []
    assert 'repro_queries_total{system="fusion"} 1' in text
    assert 'repro_queries_total{system="baseline"} 2' in text
    # One HELP/TYPE header per family, not per registry.
    assert text.count("# TYPE repro_queries_total") == 1


def test_bytes_buckets_cover_terabytes():
    assert BYTES_BUCKETS[0] == 64.0
    assert BYTES_BUCKETS[-1] >= 4e12
    assert all(not math.isinf(b) for b in BYTES_BUCKETS)


def test_label_values_escaped_in_export():
    reg = MetricsRegistry()
    reg.counter(
        "repro_weird_total", "odd labels", tenant='te"na\\nt\nwith newline'
    ).inc()
    text = reg.export()
    assert validate_prometheus_text(text) == []
    # Quote, backslash and (crucially) the literal newline are escaped —
    # an unescaped newline would split the sample line in two.
    assert 'tenant="te\\"na\\\\nt\\nwith newline"' in text
    # An unescaped newline would have split the sample across two lines.
    assert not any(line.startswith("with newline") for line in text.splitlines())


def test_tenant_labelled_families_share_one_header():
    reg = MetricsRegistry()
    for tenant in ("a", "b", "c"):
        qm = _qm()
        qm.tenant = tenant
        reg.record_query(qm)
    text = reg.export()
    assert validate_prometheus_text(text) == []
    # Three tenant label sets, exactly one HELP/TYPE header per family.
    assert text.count("# TYPE repro_tenant_queries_total") == 1
    assert text.count("# HELP repro_tenant_queries_total") == 1
    assert text.count("# TYPE repro_tenant_query_latency_seconds") == 1
    for tenant in ("a", "b", "c"):
        assert f'repro_tenant_queries_total{{tenant="{tenant}"}} 1' in text


def test_tenant_families_merge_across_registries_with_one_header():
    a = MetricsRegistry(const_labels={"system": "fusion"})
    b = MetricsRegistry(const_labels={"system": "baseline"})
    for reg, tenants in ((a, ("x", "y")), (b, ("x",))):
        for tenant in tenants:
            qm = _qm()
            qm.tenant = tenant
            reg.record_query(qm)
    text = export_merged([a, b])
    assert validate_prometheus_text(text) == []
    assert text.count("# TYPE repro_tenant_queries_total") == 1
    assert 'repro_tenant_queries_total{system="fusion",tenant="x"} 1' in text
    assert 'repro_tenant_queries_total{system="baseline",tenant="x"} 1' in text


def test_newline_in_help_text_escaped():
    reg = MetricsRegistry()
    reg.counter("repro_multiline_total", "line one\nline two").inc()
    text = reg.export()
    assert validate_prometheus_text(text) == []
    assert "# HELP repro_multiline_total line one\\nline two" in text


def test_empty_registry_exports_cleanly():
    # A registry that never saw an instrument: valid (empty) Prometheus
    # text, an empty JSON dump, and a clean merged export.
    reg = MetricsRegistry()
    text = reg.export()
    assert validate_prometheus_text(text) == []
    assert reg.to_dict() == {}
    merged = export_merged([reg, MetricsRegistry()])
    assert validate_prometheus_text(merged) == []
    assert export_merged([]) is not None


def test_zero_observation_histogram_exports_cleanly():
    reg = MetricsRegistry()
    reg.histogram("repro_idle_seconds", "never observed")
    text = reg.export()
    assert validate_prometheus_text(text) == []
    sample = reg.to_dict()["repro_idle_seconds"]["samples"][0]
    assert sample["count"] == 0
    assert sample["p99"] == 0.0
    assert sample["max"] == 0.0
    assert "exemplars" not in sample


def test_exemplars_capture_largest_trace_per_bucket():
    h = Histogram({}, bounds=[1.0, 10.0])
    h.observe(0.5, trace_id=11)
    h.observe(0.7, trace_id=12)  # larger value wins the bucket
    h.observe(5.0)  # no trace id: never an exemplar
    h.observe(50.0, trace_id=13)
    assert h.exemplars[0] == (0.7, 12)
    assert h.exemplars[2] == (50.0, 13)
    assert 1 not in h.exemplars
    # p99 rank lands in the overflow bucket; its exemplar comes back.
    assert h.exemplar_for_quantile(0.99) == (50.0, 13)
    # A quantile whose bucket holds no exemplar falls to the nearest
    # exemplared bucket (here: the le=10 bucket is bare, overflow wins).
    assert h.exemplar_for_quantile(0.6) == (50.0, 13)


def test_exemplar_for_quantile_without_exemplars_is_none():
    h = Histogram({}, bounds=[1.0])
    assert h.exemplar_for_quantile(0.99) is None
    h.observe(0.5)
    assert h.exemplar_for_quantile(0.99) is None


def test_record_query_exemplars_follow_the_registry_knob():
    off = MetricsRegistry()
    qm = _qm()
    qm.trace_id = 77
    off.record_query(qm)
    hist_off = off.histogram("repro_query_latency_seconds", "")
    assert hist_off.exemplars == {}

    on = MetricsRegistry(exemplars_enabled=True)
    qm2 = _qm()
    qm2.tenant = "t1"
    qm2.trace_id = 78
    on.record_query(qm2)
    hist_on = on.histogram("repro_query_latency_seconds", "")
    assert hist_on.exemplar_for_quantile(0.99) == (pytest.approx(0.2), 78)
    # The tenant-labelled latency family carries the exemplar too, and
    # the JSON export surfaces it.
    sample = on.to_dict()["repro_query_latency_seconds"]["samples"][0]
    assert any(e["trace_id"] == 78 for e in sample["exemplars"].values())
