"""Golden identity: the event kernel may get faster, never different.

One small scenario per store (Put, 20 queries from 4 closed-loop clients,
one wiped node read degraded, repaired, restored and queried again) is
reduced to three sha256 digests: the scheduled-event stream ``(at, seq)``,
the per-query ``QueryMetrics`` and the tracer's span list.  The digests
were computed on the commit *before* the kernel fast lanes (PR 17's
parent, 8443fb6) and must never move under a wall-only change; a model
change re-pins them and says so in CHANGES.md.  With telemetry on, every
exported artifact (TIMESERIES.json, OpenMetrics text, Chrome trace, text
summary, SLO state, a critical-path attribution) is pinned the same way,
so the obs layer's storage may change and its output may not.
"""

import hashlib
import json

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator, record_schedule
from repro.core import BaselineStore, FusionStore, RepairManager, StoreConfig
from repro.format import write_table
from repro.obs import CriticalPathAnalyzer, SLObjective, SLOEngine, slowest_roots
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

#: The full-telemetry knob set of ``benchmarks/perf/configs.py``, scraping
#: every 5 ms instead of 250 ms: the scenario lasts 0.10-0.17 simulated
#: seconds, and the scraper never schedules an event, so the interval moves
#: no stream, metrics or span digest - it only decides how many samples the
#: exported artifacts hold (33 Fusion, 19 baseline).
TELEMETRY = {
    "tracing_enabled": True,
    "metrics_registry_enabled": True,
    "pushdown_audit_enabled": True,
    "scrape_interval_s": 0.005,
    "slo_enabled": True,
    "exemplars_enabled": True,
}

WATCH_OBJECTIVES = [
    SLObjective(
        name="fast_queries", kind="latency_p99", target=0.9, threshold=0.008,
        series="repro_query_latency_seconds", burn_threshold=2.0,
    ),
    SLObjective(
        name="node3_ingress_idle", kind="gauge_above", threshold=2.0,
        series="repro_node_queue_depth", labels={"node": "3", "resource": "nic_in"},
        short_window_s=0.0125, long_window_s=0.03, burn_threshold=0.5, severity="ticket",
    ),
]

#: (store, telemetry) -> (stream, query metrics, spans) digests on 8443fb6;
#: with telemetry, six artifact digests follow (see ``_export_digests``),
#: computed on e7d8134, the parent of the columnar telemetry storage.
#: The baseline's span, Chrome-trace and text-summary digests (indices 2,
#: 5, 6) were re-pinned when its Put stopped labelling block writes
#: ``disk.read``: the one ``_write_block`` of the store kernel calls
#: ``disk.write`` - same events, so the stream and the other six did not move.
#: Both Fusion entries were re-pinned by the declared model change that
#: replaced the snappy-greedy bitmap wire form with the container-chosen
#: frame of ``repro.sql.bitmap``: filter replies and bitmap-carrying
#: requests weigh a few bytes more or less, so transfer times, the stream
#: and everything derived from them moved; only the SLO state (index 7: the
#: same objectives burn and resolve) did not.  No baseline digest moved:
#: the baseline ships no bitmaps.  Both Fusion entries were re-pinned
#: again by the declared model change that charges a degraded gather once
#: per (request, stripe): the degraded Get and the degraded queries read
#: the survivors of a lost bin's stripe once, not once per chunk in the
#: bin, so the stream, the query metrics, the spans and five of the six
#: artifacts moved; the critical-path attribution (index 8) did not.  No
#: baseline digest moved: the victim holds one block per stripe and the
#: baseline reads each lost block once per request.
GOLDEN = {
    ("fusion", False): (
        "839f81f77c4f2f062426a4e6f168e64f5fafdcb4ed11fbbd9aa555dbfc03ddd0",
        "958a2008b67191c930200cdb8bc91878c0c0ec6b5920727c372b41cd716454cd",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("fusion", True): (
        "839f81f77c4f2f062426a4e6f168e64f5fafdcb4ed11fbbd9aa555dbfc03ddd0",
        "958a2008b67191c930200cdb8bc91878c0c0ec6b5920727c372b41cd716454cd",
        "085593dddc4fec012315f6b2882a4ca8f934cfc8ae74b0dd491875fe8369030a",
        "d5d40f33e4d8dc4464162119664061d6d3f16e05f3e09c214ed1ad380807a228",
        "cc90d41c717e0558563c19fea8402d88e0749cf859ebaaea47bfe5d4500df1c7",
        "25c980d591ba123f6717db9cf5aafad7d8de7feb1db15da6b1e96a26f3ca35a7",
        "4213ff357d1b97c90e460ea1715295323c288eae0eac6fb02475ad8a9ecb62a5",
        "645bba012d047deb53311a01ba6911532bf06574b27fbd9d676b647130dc97d4",
        "1f03dd7b712f61edfb70b244952b895e344d06b777a63196c3c2f90c7beaccfd",
    ),
    ("baseline", False): (
        "43ab50155fe5a5b7da8b7a5105b6c076bae5ebe860c131de4a5f8781d33692e4",
        "96c6be6b0f21e75297984bab613a29131cb47e7be166b2a4d17574444aa85fa7",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("baseline", True): (
        "43ab50155fe5a5b7da8b7a5105b6c076bae5ebe860c131de4a5f8781d33692e4",
        "96c6be6b0f21e75297984bab613a29131cb47e7be166b2a4d17574444aa85fa7",
        "6c6a473d4ac23f5deab81000b9d5a8c8b5b9c5d15502839b28c44c391324e49e",
        "448d6d2573725adad2bf51eba13f36fa751e64e87ef7260c2c5edb56515dbc85",
        "3d752af4a6695bf2f437b7969ab2c111194c0b9bf63c86d0deb3e3b2f25e1f11",
        "22d4020845b460163ed64a1244cb80307e4b6224228ee136b048be0d1e209d85",
        "1cd1938bdd7edf8b40fe67dbe904829865b0a48995ba7fca899d0c26bd4db793",
        "17fffc6b7804620ee3f83ac628db575e576c6685891d011cb1473d6a6b1cc03e",
        "f9e3b9cd4b22f0a4840c6f36ed51dc6b371dd2914585e1f5fe19164e54c0ce13",
    ),
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


def scenario(store_cls, telemetry: bool) -> tuple[str, ...]:
    """Run the scenario; returns the three digests, plus the artifact
    digests with telemetry on."""
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
    # The stock objectives never burn on a healthy 0.1 s run; these two do
    # (and resolve, and fire again), so the SLO digest covers window reads
    # and the alert counters become registry series born mid-run.
    watch = SLOEngine(
        cluster.scraper, WATCH_OBJECTIVES, registry=cluster.metrics.registry, tracer=sim.tracer
    ) if telemetry else None
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
    core = (
        _digest(stream),
        _digest((q.start_time, q.end_time, q.network_bytes, q.rpcs_issued) for q in metrics),
        _digest((s.span_id, s.parent_id, s.name, s.start, s.end) for s in spans),
    )
    return core + (_export_digests(sim, cluster, watch) if telemetry else ())


def _export_digests(sim, cluster, watch) -> tuple[str, ...]:
    """sha256 of every telemetry artifact: TIMESERIES.json, OpenMetrics,
    Chrome trace, text summary, SLO state, slowest query's critical path."""
    tracer = sim.tracer
    (slowest,) = slowest_roots(tracer, "query", fraction=0.0)
    texts = (
        cluster.scraper.to_json(),
        cluster.scraper.openmetrics(),
        json.dumps(tracer.chrome_trace()),
        tracer.text_summary(),
        json.dumps([cluster.slo.to_dict(), watch.to_dict()], sort_keys=True),
        json.dumps(CriticalPathAnalyzer(tracer).attribute(slowest), sort_keys=True),
    )
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


@pytest.mark.parametrize("telemetry", [False, True], ids=["default", "telemetry"])
@pytest.mark.parametrize("kind", ["fusion", "baseline"])
def test_scenario_hashes_to_the_values_pinned_on_the_parent(kind, telemetry):
    store_cls = FusionStore if kind == "fusion" else BaselineStore
    assert scenario(store_cls, telemetry) == GOLDEN[kind, telemetry]


def test_telemetry_leaves_stream_and_query_metrics_alone():
    for kind in ("fusion", "baseline"):
        assert GOLDEN[kind, True][:2] == GOLDEN[kind, False][:2]
