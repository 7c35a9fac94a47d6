"""The QoS layer must be event-free until it acts: a fault-free workload
run with QoS armed but inert — fair queues installed, generous weights,
quotas far above the offered load — and **no tenant on any request**
must produce an event stream bit-identical to the pre-QoS default run.
Tenanted runs must be deterministic, and the default config keeps every
QoS knob off."""

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


def _store_config(qos_on: bool) -> StoreConfig:
    base = dict(
        size_scale=50.0,
        storage_overhead_threshold=0.1,
        block_size=500_000,
    )
    if qos_on:
        # Armed but inert: fair queues installed on every service loop,
        # quotas far above anything the workload offers.  Untenanted
        # requests must still take the legacy code path untouched.
        base.update(
            qos_enabled=True,
            tenant_weights={"a": 2.0, "b": 1.0},
            tenant_requests_per_s={"a": 1e9},
            tenant_queue_depth=10_000,
        )
    return StoreConfig(**base)


def _run(store_cls, qos_on: bool, tenant: str | None = None):
    """One concurrent workload; returns the full scheduled-event stream
    (time, seq) plus per-query metrics fingerprints and results."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(cluster, _store_config(qos_on))
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
            result = yield from store.query_process(sql, qm, tenant=tenant)
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
def test_armed_qos_does_not_perturb_an_untenanted_run(store_cls):
    stream_off, fp_off, results_off, store_off, _ = _run(store_cls, False)
    stream_on, fp_on, results_on, store_on, _ = _run(store_cls, True)

    assert stream_on == stream_off  # every scheduled event at the same time
    assert fp_on == fp_off
    assert all(a.equals(b) for a, b in zip(results_on, results_off))

    # The armed run really installed the machinery; none of it fired.
    assert store_on.cluster.qos is not None
    assert store_off.cluster.qos is None
    for node in store_on.cluster.nodes:
        assert node.cpu.fair is not None
        assert node.cpu.fair.total == 0
        assert node.disk.device.fair is not None
    cm = store_on.cluster.metrics
    assert cm.quota_exceeded == 0
    assert cm.tenants == {}


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_tenanted_run_is_deterministic_and_labelled(store_cls):
    stream_1, fp_1, results_1, store_1, _ = _run(store_cls, True, tenant="a")
    stream_2, fp_2, results_2, _store_2, _ = _run(store_cls, True, tenant="a")

    assert stream_1 == stream_2
    assert fp_1 == fp_2
    assert all(a.equals(b) for a, b in zip(results_1, results_2))

    cm = store_1.cluster.metrics
    assert set(cm.tenants) == {"a"}
    assert cm.tenants["a"]["queries"] == NUM_QUERIES
    assert cm.tenants["a"]["goodput"] == NUM_QUERIES
    assert store_1.cluster.qos.stats["a"]["admitted"] == NUM_QUERIES


def test_default_config_keeps_qos_off():
    config = StoreConfig()
    assert config.qos_enabled is False
    assert config.tenant_weights == {}
    assert config.tenant_requests_per_s == {}
    assert config.tenant_queue_depth == 0
