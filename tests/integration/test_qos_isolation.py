"""Noisy-neighbour isolation at test scale: tenant A storms open-loop at
2.5x the calibrated capacity while tenant B stays closed-loop within its
share.  The QoS layer (DRR weights + A's quota) must keep B whole: B is
refused nothing, keeps >= 80% of its isolated goodput and its p99 under
the deadline, while every one of A's refusals is a *typed* failure."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.cluster import qos
from repro.cluster.overload import DeadlineExceeded
from repro.cluster.qos import QuotaExceeded
from repro.cluster.simcore import QueueFull
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.core.scatter_gather import RemoteOpError
from repro.format import write_table
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
]
TYPED = (QuotaExceeded, DeadlineExceeded, QueueFull, RemoteOpError)


def _build(store_cls, **qos_overrides):
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    config = StoreConfig(
        size_scale=50.0,
        storage_overhead_threshold=0.1,
        block_size=500_000,
        **qos_overrides,
    )
    store = store_cls(cluster, config)
    store.put("tbl", data)
    return sim, cluster, store


def _drive(sim, store, duration_s, open_loop=None, closed_loop=None):
    """Mixed open-loop (tenant -> qps) / closed-loop (tenant -> clients)
    workload for ``duration_s``; returns per-tenant (ok latencies,
    refusal count).  An untyped failure propagates and fails the test."""
    open_loop = open_loop or {}
    closed_loop = closed_loop or {}
    start = sim.now
    oks = {t: [] for t in (*open_loop, *closed_loop)}
    refused = {t: 0 for t in oks}

    def one_query(sql, tenant, arrival):
        qm = QueryMetrics()
        try:
            yield from store.query_process(sql, qm, tenant=tenant)
        except TYPED:
            refused[tenant] += 1
        else:
            oks[tenant].append(sim.now - arrival)

    def storm(tenant, rate):
        for i in range(int(rate * duration_s)):
            sim.process(one_query(QUERIES[i % len(QUERIES)], tenant, sim.now))
            yield sim.timeout(1.0 / rate)

    def paced(tenant, cid):
        qi = 0
        while sim.now - start < duration_s:
            yield from one_query(QUERIES[(cid + qi) % len(QUERIES)], tenant, sim.now)
            qi += 1

    for tenant, rate in open_loop.items():
        sim.process(storm(tenant, rate))
    for tenant, clients in closed_loop.items():
        for cid in range(clients):
            sim.process(paced(tenant, cid))
    sim.run()
    return oks, refused


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_storming_tenant_cannot_crowd_out_a_paced_one(store_cls, monkeypatch):
    # Calibrate: closed-loop capacity and uncontended latency, QoS off.
    sim, _cluster, store = _build(store_cls)
    oks, _ = _drive(sim, store, 2.0, closed_loop={"cal": 6})
    capacity_qps = len(oks["cal"]) / 2.0
    deadline = 10.0 * max(oks["cal"])
    assert capacity_qps > 0

    storm_rate = 2.5 * capacity_qps
    duration = 60 / storm_rate
    # At test scale the whole run lasts a fraction of a second, so the
    # burst window must shrink with it or A's storm is admitted
    # wholesale out of the initial bucket.
    monkeypatch.setattr(qos, "QUOTA_BURST_S", duration / 10.0)
    policy = dict(
        tenant_weights={"A": 1.0, "B": 4.0},
        tenant_requests_per_s={"A": 0.2 * capacity_qps},
        admission_queue_depth=16,
    )

    # Tenant B alone under the same policy: the isolation yardstick.
    sim, _cluster, store = _build(store_cls, **policy)
    store.config.default_deadline_s = deadline  # armed after the load
    iso_oks, iso_refused = _drive(sim, store, duration, closed_loop={"B": 3})
    assert iso_refused["B"] == 0
    iso_goodput = len(iso_oks["B"])

    # The storm: A open-loop at 2.5x capacity against the same paced B.
    sim, cluster, store = _build(store_cls, **policy)
    store.config.default_deadline_s = deadline
    oks, refused = _drive(
        sim, store, duration, open_loop={"A": storm_rate}, closed_loop={"B": 3}
    )

    # B is refused nothing and keeps its share of goodput and latency.
    assert refused["B"] == 0
    assert len(oks["B"]) >= 0.8 * iso_goodput
    assert max(oks["B"]) <= deadline

    # A absorbs the squeeze entirely as typed refusals (anything untyped
    # would have propagated out of _drive), most of them at the quota.
    assert refused["A"] > 0
    assert cluster.qos.stats["A"]["quota_rejected"] > 0

    # Both tenants surface in the per-tenant metrics roll-up.
    tenants = cluster.metrics.tenants
    assert set(tenants) == {"A", "B"}
    assert tenants["B"]["goodput"] == len(oks["B"])
    assert tenants["A"]["quota_exceeded"] == cluster.qos.stats["A"]["quota_rejected"]
