"""Golden identity: the event kernel may get faster, never different.

One small scenario per store (Put, 20 queries from 4 closed-loop clients,
one wiped node read degraded, repaired, restored and queried again) is
reduced to three sha256 digests: the scheduled-event stream ``(at, seq)``,
the per-query ``QueryMetrics`` and the tracer's span list.  The digests
were computed on the commit *before* the kernel fast lanes (PR 17's
parent, 8443fb6) and must never move under a wall-only change; a model
change re-pins them and says so in CHANGES.md.
"""

import hashlib

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator, record_schedule
from repro.core import BaselineStore, FusionStore, RepairManager, StoreConfig
from repro.format import write_table
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
    "SELECT id FROM tbl WHERE note LIKE '%77%'",
]
NUM_CLIENTS = 4
NUM_QUERIES = 20
VICTIM = 2

#: The full-telemetry knob set of ``benchmarks/perf/configs.py``.
TELEMETRY = {
    "tracing_enabled": True,
    "metrics_registry_enabled": True,
    "pushdown_audit_enabled": True,
    "scrape_interval_s": 0.25,
    "slo_enabled": True,
    "exemplars_enabled": True,
}

#: (store, telemetry) -> (stream, query metrics, spans) digests on 8443fb6.
GOLDEN = {
    ("fusion", False): (
        "630be899702d4cd8364d1323a130a05001423e51aad199d1d9ffa6850b6bf4fa",
        "18cbaa049aa7c0e0bb38d3bcf6e78ead14a23a132b77e6fe387362e3bd6a5c53",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("fusion", True): (
        "630be899702d4cd8364d1323a130a05001423e51aad199d1d9ffa6850b6bf4fa",
        "18cbaa049aa7c0e0bb38d3bcf6e78ead14a23a132b77e6fe387362e3bd6a5c53",
        "086ef880ef12cd6e94260d220f34cfa9cc298dac1dbbd33b037aa3f3bcbb2384",
    ),
    ("baseline", False): (
        "43ab50155fe5a5b7da8b7a5105b6c076bae5ebe860c131de4a5f8781d33692e4",
        "96c6be6b0f21e75297984bab613a29131cb47e7be166b2a4d17574444aa85fa7",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("baseline", True): (
        "43ab50155fe5a5b7da8b7a5105b6c076bae5ebe860c131de4a5f8781d33692e4",
        "96c6be6b0f21e75297984bab613a29131cb47e7be166b2a4d17574444aa85fa7",
        "6bf59736d46aff84ad12650f7253f99444cc75352be79317e0bf184e58d783bc",
    ),
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


def scenario(store_cls, telemetry: bool) -> tuple[str, str, str]:
    """Run the scenario; returns the three digests."""
    data = write_table(make_small_table(num_rows=2500, seed=77), row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            **(TELEMETRY if telemetry else {}),
        ),
    )
    store.put("tbl", data)
    metrics: list[QueryMetrics] = []

    def client(cid: int, count: int):
        for qi in range(count):
            qm = QueryMetrics()
            yield from store.query_process(QUERIES[(cid + qi * NUM_CLIENTS) % len(QUERIES)], qm)
            metrics.append(qm)

    def closed_loop(total: int) -> None:
        for cid in range(NUM_CLIENTS):
            sim.process(client(cid, total // NUM_CLIENTS))
        sim.run()

    closed_loop(NUM_QUERIES)
    cluster.fail_node(VICTIM, wipe=True)
    assert store.get("tbl") == data  # degraded read
    closed_loop(NUM_CLIENTS)
    manager = RepairManager(store)
    assert manager.repair_node(VICTIM).blocks_repaired > 0
    cluster.restore_node(VICTIM)
    manager.repair_read_reported()
    closed_loop(NUM_CLIENTS)
    assert store.verify_object("tbl").clean

    spans = sim.tracer.spans if sim.tracer is not None else []
    assert bool(spans) == telemetry
    return (
        _digest(stream),
        _digest((q.start_time, q.end_time, q.network_bytes, q.rpcs_issued) for q in metrics),
        _digest((s.span_id, s.parent_id, s.name, s.start, s.end) for s in spans),
    )


@pytest.mark.parametrize("telemetry", [False, True], ids=["default", "telemetry"])
@pytest.mark.parametrize("kind", ["fusion", "baseline"])
def test_scenario_hashes_to_the_values_pinned_on_the_parent(kind, telemetry):
    store_cls = FusionStore if kind == "fusion" else BaselineStore
    assert scenario(store_cls, telemetry) == GOLDEN[kind, telemetry]


def test_telemetry_leaves_stream_and_query_metrics_alone():
    for kind in ("fusion", "baseline"):
        assert GOLDEN[kind, True][:2] == GOLDEN[kind, False][:2]
