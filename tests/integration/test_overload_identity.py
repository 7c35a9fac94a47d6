"""Overload protection must be event-free until it acts: a fault-free
workload run with every protection knob armed (deadlines far away,
admission queues far deeper than any backlog, breakers with huge
thresholds, jitter enabled but never drawn) must produce an event stream
bit-identical to the default-knob run.  Jitter, when it *does* act, must
be deterministic per seed."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator, record_schedule
from repro.cluster.faults import FaultEvent, FaultInjector
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


def _store_config(protection_on: bool) -> StoreConfig:
    base = dict(
        size_scale=50.0,
        storage_overhead_threshold=0.1,
        block_size=500_000,
    )
    if protection_on:
        # Armed but inert: nothing here can fire on a fault-free run.
        base.update(
            default_deadline_s=1e6,
            admission_queue_depth=10_000,
            breaker_failure_threshold=1000,
            allow_partial_results=True,
            rpc_retry_jitter=0.5,
        )
    return StoreConfig(**base)


def _run(store_cls, protection_on: bool):
    """One concurrent workload; returns the full scheduled-event stream
    (time, seq) plus per-query metrics fingerprints and results."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(cluster, _store_config(protection_on))
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
def test_armed_protection_does_not_perturb_a_fault_free_run(store_cls):
    stream_off, fp_off, results_off, store_off, _ = _run(store_cls, False)
    stream_on, fp_on, results_on, store_on, sim_on = _run(store_cls, True)

    assert stream_on == stream_off  # every scheduled event at the same time
    assert fp_on == fp_off
    assert all(a.equals(b) for a, b in zip(results_on, results_off))

    # The armed run really installed the machinery; none of it fired.
    assert store_on.cluster.breakers is not None
    assert store_on.cluster.breakers.open_count() == 0
    assert store_off.cluster.breakers is None
    for node in store_on.cluster.nodes:
        assert node.cpu.max_queue == 10_000
        assert node.cpu.rejected_total == 0
    cm = store_on.cluster.metrics
    assert cm.deadline_exceeded == 0
    assert cm.requests_rejected == 0
    assert cm.partial_results == 0


def test_default_config_keeps_protection_off():
    config = StoreConfig()
    assert config.default_deadline_s == 0.0
    assert config.admission_queue_depth == 0
    assert config.breaker_failure_threshold == 0
    assert config.allow_partial_results is False
    assert config.rpc_retry_jitter == 0.0


# ---------------------------------------------------------------------------
# Jitter: inert without retries, deterministic per seed, active under loss
# ---------------------------------------------------------------------------


def _run_with_drop_window(jitter: float, placement_seed: int = 17):
    """A workload whose RPCs to one node are dropped for a window, forcing
    the retry/backoff path.  Returns (event stream, total retries)."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=12, placement_seed=placement_seed))
    store = FusionStore(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            rpc_retry_jitter=jitter,
        ),
    )
    store.put("tbl", data)

    FaultInjector(
        cluster,
        [FaultEvent(at=0.0, kind="drop", node_id=3, duration=10.0, rate=1.0)],
        seed=5,
    ).install()

    metrics_out: list[QueryMetrics] = []

    def client():
        for qi in range(6):
            qm = QueryMetrics()
            yield from store.query_process(QUERIES[qi % len(QUERIES)], qm)
            metrics_out.append(qm)

    sim.process(client())
    sim.run()
    return stream, sum(qm.retries for qm in metrics_out)


def test_jitter_is_deterministic_and_changes_backoff_under_retries():
    stream_plain, retries_plain = _run_with_drop_window(jitter=0.0)
    assert retries_plain > 0  # the drop window really forced retries

    stream_j1, retries_j1 = _run_with_drop_window(jitter=0.5)
    stream_j2, retries_j2 = _run_with_drop_window(jitter=0.5)
    # Seeded: the jittered run is exactly reproducible.
    assert stream_j1 == stream_j2
    assert retries_j1 == retries_j2 > 0
    # And it genuinely perturbs backoff sleeps relative to no jitter.
    assert stream_j1 != stream_plain
