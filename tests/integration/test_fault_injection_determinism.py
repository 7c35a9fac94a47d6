"""Reproducible chaos: the same fault-schedule seed and workload must
replay bit-identically, and a mid-workload crash must not fail or
corrupt a single query."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultInjector,
    QueryMetrics,
    Simulator,
    random_schedule,
)
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
]
NUM_CLIENTS = 4
NUM_QUERIES = 12


def _build(store_cls, schedule=None, fault_seed=0):
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000),
    )
    store.put("tbl", data)
    injector = None
    if schedule is not None:
        injector = FaultInjector(cluster, schedule, seed=fault_seed).install()
    return store, cluster, table, data, injector


def _run_workload(store, num_clients=NUM_CLIENTS, num_queries=NUM_QUERIES):
    """Closed-loop concurrent workload (issue order is deterministic)."""
    sim = store.sim
    start = sim.now
    metrics_out: list[QueryMetrics] = []
    results_out = []
    per_client = [num_queries // num_clients] * num_clients
    for i in range(num_queries % num_clients):
        per_client[i] += 1

    def client(cid: int, count: int):
        for qi in range(count):
            sql = QUERIES[(cid + qi * num_clients) % len(QUERIES)]
            qm = QueryMetrics()
            result = yield from store.query_process(sql, qm)
            metrics_out.append(qm)
            results_out.append(result)

    for cid, count in enumerate(per_client):
        if count:
            sim.process(client(cid, count))
    sim.run()
    return results_out, metrics_out, sim.now - start


def _fingerprint(metrics: list[QueryMetrics], cluster) -> list:
    per_query = [
        (
            qm.start_time,
            qm.end_time,
            qm.network_bytes,
            qm.retries,
            qm.timeouts,
            qm.degraded_reads,
            qm.rpcs_issued,
        )
        for qm in metrics
    ]
    totals = cluster.metrics
    return [
        per_query,
        totals.network_bytes,
        totals.retries,
        totals.timeouts,
        totals.degraded_reads,
        totals.rpcs_issued,
    ]


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_same_fault_seed_replays_bit_identically(store_cls):
    # Calibrate the horizon so the schedule lands inside the workload.
    store, _cl, _t, _d, _ = _build(store_cls)
    _r, _m, horizon = _run_workload(store)
    assert horizon > 0

    def one_run():
        schedule = random_schedule(
            12,
            horizon,
            seed=33,
            crashes=2,
            blips=1,
            slow_windows=1,
            drop_windows=1,
            corruptions=0,
            max_concurrent_down=2,
        )
        store, cluster, _table, _data, injector = _build(
            store_cls, schedule, fault_seed=33
        )
        results, metrics, _ = _run_workload(store)
        log = [(a.at, a.event.kind, a.event.node_id) for a in injector.log]
        return results, _fingerprint(metrics, cluster), log

    results_a, fp_a, log_a = one_run()
    results_b, fp_b, log_b = one_run()
    assert len(results_a) == NUM_QUERIES
    assert all(a.equals(b) for a, b in zip(results_a, results_b))
    assert fp_a == fp_b
    assert log_a == log_b and log_a  # faults actually fired


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_mid_workload_crash_zero_failed_queries(store_cls):
    # Ground truth and wall-clock from a fault-free run.
    store, _cl, table, _d, _ = _build(store_cls)
    clean_results, _m, horizon = _run_workload(store)

    store, cluster, _table, _data, _ = _build(store_cls)
    victim = next(n.node_id for n in cluster.nodes if n.stored_bytes)
    schedule = [
        FaultEvent(at=store.sim.now + 0.5 * horizon, kind="crash", node_id=victim)
    ]
    injector = FaultInjector(cluster, schedule, seed=1).install()
    results, metrics, _ = _run_workload(store)

    assert len(results) == NUM_QUERIES  # zero failed queries
    assert injector.log and not cluster.node(victim).alive  # crash fired
    expected = {sql: execute_local(sql, table) for sql in QUERIES}
    # Completion order may differ from the clean run, but every result
    # must match the ground truth for one of the workload's queries.
    for result in results:
        assert any(result.equals(exp) for exp in expected.values())
    for sql, exp in expected.items():
        assert any(r.equals(exp) for r in results), sql
    assert len(clean_results) == len(results)


def test_different_fault_seed_changes_drop_outcomes():
    """The schedule seed is load-bearing: different seeds give different
    drop decisions (sanity check that randomness is not ignored)."""
    outcomes = {}
    for seed in (1, 2):
        store, cluster, _t, _d, injector = _build(
            FusionStore,
            [FaultEvent(at=0.0, kind="drop", node_id=0, duration=1e9, rate=0.5)],
            fault_seed=seed,
        )
        store.sim.run()  # let the driver open the drop window
        decisions = tuple(injector.drop_rpc(0) for _ in range(64))
        outcomes[seed] = decisions
    assert outcomes[1] != outcomes[2]
