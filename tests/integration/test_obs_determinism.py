"""The observability knobs must be pure observers: a fault-free workload
scheduled with tracing + metrics + audit all on must produce an event
stream identical to the same workload with everything off."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator, record_schedule
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import write_table
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
]
NUM_CLIENTS = 4
NUM_QUERIES = 12


def _run(store_cls, obs_on: bool, telemetry_on: bool = False):
    """One concurrent workload; returns the full scheduled-event stream
    (time, seq) plus per-query metrics fingerprints and results."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            tracing_enabled=obs_on,
            metrics_registry_enabled=obs_on,
            pushdown_audit_enabled=obs_on,
            # The whole workload lasts well under a simulated second, so
            # scrape on a millisecond cadence to actually collect samples.
            scrape_interval_s=0.005 if telemetry_on else 0.0,
            slo_enabled=telemetry_on,
            exemplars_enabled=telemetry_on,
        ),
    )
    store.put("tbl", data)

    metrics_out: list[QueryMetrics] = []
    results_out = []
    per_client = [NUM_QUERIES // NUM_CLIENTS] * NUM_CLIENTS
    for i in range(NUM_QUERIES % NUM_CLIENTS):
        per_client[i] += 1

    def client(cid: int, count: int):
        for qi in range(count):
            sql = QUERIES[(cid + qi * NUM_CLIENTS) % len(QUERIES)]
            qm = QueryMetrics()
            result = yield from store.query_process(sql, qm)
            metrics_out.append(qm)
            results_out.append(result)

    for cid, count in enumerate(per_client):
        if count:
            sim.process(client(cid, count))
    sim.run()

    fingerprint = [
        (qm.start_time, qm.end_time, qm.network_bytes, qm.rpcs_issued)
        for qm in metrics_out
    ]
    return stream, fingerprint, results_out, store, sim


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_obs_knobs_do_not_perturb_the_event_stream(store_cls):
    stream_off, fp_off, results_off, store_off, _sim = _run(store_cls, obs_on=False)
    stream_on, fp_on, results_on, store_on, sim_on = _run(store_cls, obs_on=True)

    assert stream_on == stream_off  # every scheduled event at the same time
    assert fp_on == fp_off
    assert all(a.equals(b) for a, b in zip(results_on, results_off))

    # The instrumented run actually observed things; the bare run did not.
    assert sim_on.tracer is not None and sim_on.tracer.spans
    assert store_on.cluster.metrics.registry is not None
    assert store_off.sim.tracer is None
    assert store_off.cluster.metrics.registry is None
    assert store_off.audit.records == []
    if store_cls is FusionStore:
        assert store_on.audit.records


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_telemetry_knobs_do_not_perturb_the_event_stream(store_cls):
    """Scraper + SLO engine + exemplars armed on top of full observability
    must still leave the scheduled-event stream bit-identical."""
    stream_off, fp_off, results_off, _store, _sim = _run(
        store_cls, obs_on=False, telemetry_on=False
    )
    stream_on, fp_on, results_on, store_on, sim_on = _run(
        store_cls, obs_on=True, telemetry_on=True
    )

    assert stream_on == stream_off
    assert fp_on == fp_off
    assert all(a.equals(b) for a, b in zip(results_on, results_off))

    # And the telemetry plane actually observed the run.
    scraper = store_on.cluster.scraper
    assert scraper.times and scraper.times[0] == 0.005
    assert store_on.cluster.slo is not None
    hist = store_on.cluster.metrics.registry.histogram(
        "repro_query_latency_seconds", "End-to-end query latency"
    )
    assert hist.exemplar_for_quantile(0.99) is not None


def test_timeseries_export_is_byte_identical_across_runs():
    a = _run(FusionStore, obs_on=True, telemetry_on=True)
    b = _run(FusionStore, obs_on=True, telemetry_on=True)
    assert a[3].cluster.scraper.to_json() == b[3].cluster.scraper.to_json()
    import json

    from repro.obs.validate import validate_alerts, validate_timeseries

    doc = json.loads(a[3].cluster.scraper.to_json())
    assert validate_timeseries(doc) == []
    assert validate_alerts(a[3].cluster.slo.to_dict()) == []


def test_default_config_keeps_observers_off():
    config = StoreConfig()
    assert config.tracing_enabled is False
    assert config.metrics_registry_enabled is False
    assert config.pushdown_audit_enabled is True  # metadata-plane, zero events
    assert config.scrape_interval_s == 0.0
    assert config.slo_enabled is False
    assert config.exemplars_enabled is False
