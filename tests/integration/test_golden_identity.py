"""Golden identity: the event kernel may get faster, never different.

One small scenario per store (Put, 20 queries from 4 closed-loop clients,
one wiped node read degraded, repaired, restored and queried again) is
reduced to three sha256 digests: the ``stream`` and ``queries`` digests of
``repro.check.fingerprint`` and the tracer's span list.  The digests
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

from repro.check import digest, fingerprint
from repro.core import RepairManager
from repro.obs import CriticalPathAnalyzer, SLObjective, SLOEngine, slowest_roots
from tests.closed_loop import NUM_CLIENTS, encoded, recorded, run

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
#: baseline reads each lost block once per request.  All four entries were
#: re-pinned by the declared model change in which a degraded Get reads
#: the survivors of a stripe it reconstructs only through that stripe's
#: gather, and ``repair_node`` answers the read-repair hints the Get
#: queued (the drain after it moves no bytes): the stream and the query
#: metrics moved for both stores, and with telemetry every artifact but
#: Fusion's critical-path attribution (index 8).  The span digest without
#: telemetry (index 2, the empty list) did not move.  Both Fusion entries
#: were re-pinned by the declared model change that charges Fusion's Put
#: metadata round and footer parse at real size, not times ``size_scale``:
#: the Put ends sooner and every later event with it, so the stream, the
#: query metrics (their start and end times) and, with telemetry, every
#: artifact but the critical-path attribution (index 8) moved.  No
#: baseline digest moved: its Put ships no metadata.  All four entries
#: were re-pinned by the declared model change that gathers every lost
#: stripe of a degraded Get in the Get's one scatter-gather round (one
#: exchange per node, not one per (stripe, node)).  Fusion's Get ends
#: sooner, so its stream, query metrics and every telemetry artifact but
#: the critical-path attribution (index 8) moved.  The baseline's Get
#: reconstructs one stripe and already read it in one exchange per node:
#: it ends at the same time, and only the stream, the spans, the Chrome
#: trace and the text summary (indices 0, 2, 5, 6) moved, because the
#: gather no longer runs as a nested round under a standalone op.  Both
#: telemetry entries had TIMESERIES.json and the OpenMetrics text
#: (indices 3, 4) re-pinned when hedged reads, quota demotion and
#: shed-lowest-priority eviction were deleted: those exports lost the
#: always-zero ``repro_hedged_reads_total``, ``repro_quota_demotions_total``
#: and ``repro_requests_shed_total`` series and nothing else.  Every other
#: digest held.  All four entries were re-pinned by the declared model
#: change of the data-first write: a Put spawns each stripe's data-block
#: writes before the coordinator's encode charge and only the parity
#: writes after it, so the Put ends sooner and every later event with it.
#: The stream and the query metrics moved for both stores; with telemetry
#: every artifact moved but Fusion's SLO state (index 7).  The span digest
#: without telemetry (index 2, the empty list) did not move.  All four
#: entries were re-pinned by the declared model change of the streamed
#: Put: the client uploads the object in pieces and each data block is
#: written as its bytes arrive, so the Put ends sooner and every later
#: event with it.  The stream and the query metrics (their start and end
#: times) moved for both stores, and with telemetry every artifact did.
#: The span digest without telemetry (index 2, the empty list) did not.
#: All four entries were re-pinned by the declared model change that
#: repairs in rounds: ``repair_node`` reads each source node's shards in
#: one exchange and writes each holder's rebuilt blocks in one, so the
#: repair ends sooner and the queries after it start earlier.  The stream
#: and the query metrics moved for both stores; with telemetry every
#: artifact moved but the baseline's SLO state and critical-path
#: attribution (indices 7 and 8) and Fusion's critical-path attribution
#: (index 8).  The span digest without telemetry (index 2) did not move.
#: Both telemetry entries had the spans, the Chrome trace and the text
#: summary (indices 2, 5, 6) re-pinned when every degraded read's gather
#: became the stripe's ``_gather_ops`` run as a round of its own: the
#: fetch that completes the decode set charges the decode, so a degraded
#: query's decode ``cpu.compute`` span opens under that fetch's
#: ``rpc.op``, as a degraded Get's already did.  No event and no time
#: moved, and every other digest held.
GOLDEN = {
    ("fusion", False): (
        "5d83fde61ddfd923fc78072fec87f92926be7a892301a047a9f12b9d78692f8c",
        "2c935948679d3cc985504ff6819ee26b52503161bbb6cb7ae3fe7f060f033605",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("fusion", True): (
        "5d83fde61ddfd923fc78072fec87f92926be7a892301a047a9f12b9d78692f8c",
        "2c935948679d3cc985504ff6819ee26b52503161bbb6cb7ae3fe7f060f033605",
        "7066bcb362f66e3fa70ebc26637c3c959abfa3c62c489cf7e2b29961669c9cc3",
        "0e40d0512e0d830b64c012cd0a2b3aa4157e54ab04f269dfcbaac4cd45bf237e",
        "fb67ee1c762cdda4d877027119b6fda9ddc75fd9b147ce85b757ba4debd96482",
        "6bbc9bd3f7997aeb602dd80ad432d865d31012880205f8c97fef4fe851a11bfd",
        "e58f46386718f7c41a420028a157d52b7d73933dd7b2b5780fc8c885f7b0c1dc",
        "e82e23cfb823892dc66b474f2986d5705d6a7e18f0a23f4e274b72dffe1d8475",
        "2d47a9f6359d65a7fe1f9722fcab8fd9dbae5e0ba939d2c972df9ca897a65ec0",
    ),
    ("baseline", False): (
        "327192310965e35de01c99730b298cd319c36f8b5beee9bf0c0250b9d5b83052",
        "243953814573f0e16d5f17860953b47ed55f3a4e43e0eaf25f7b4e210a815c26",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("baseline", True): (
        "327192310965e35de01c99730b298cd319c36f8b5beee9bf0c0250b9d5b83052",
        "243953814573f0e16d5f17860953b47ed55f3a4e43e0eaf25f7b4e210a815c26",
        "676ed42ead3388f9ab34930d94dedabd26c218fb702fade52711f199eb4f9003",
        "bf9696fac9a1a262317d6ab675a2eda25d6c26731c7f377f0cbaf7e47f38af4c",
        "5c66aeebe7ed4762b085bf5a8802a6a4276809d4bdc00587b11ade4338908027",
        "7e74177abfee25ccd55f62ab7d7313fd90f6ab1791e9095b0603f6ffc7d793c4",
        "46cce73f04e0df25aac1841f9deab65bd44b2583d4d504943dcdebf2f1b0ccc3",
        "49ddcfdbfc09d9f405b5d7b459cc0b31446ef13d7722bd0cf28c6c72d0a357d0",
        "10d51628ac5f1d5da2b4756a0e981d80f926c7c0dfe4deba4e6eb1fe2579907d",
    ),
}


def scenario(kind: str, telemetry: bool) -> tuple[str, ...]:
    """Run the scenario; returns the three digests, plus the artifact
    digests with telemetry on."""
    system, stream = recorded(kind, num_nodes=9, **(TELEMETRY if telemetry else {}))
    sim, cluster, store = system.sim, system.cluster, system.store
    # The stock objectives never burn on a healthy 0.1 s run; these two do
    # (and resolve, and fire again), so the SLO digest covers window reads
    # and the alert counters become registry series born mid-run.
    watch = SLOEngine(
        cluster.scraper, WATCH_OBJECTIVES, registry=cluster.metrics.registry, tracer=sim.tracer
    ) if telemetry else None
    metrics = run(system, NUM_QUERIES).metrics
    cluster.fail_node(VICTIM, wipe=True)
    assert store.get("tbl") == encoded()  # degraded read
    metrics += run(system, NUM_CLIENTS).metrics
    manager = RepairManager(store)
    assert manager.repair_node(VICTIM).blocks_repaired > 0
    cluster.restore_node(VICTIM)
    manager.repair_read_reported()
    metrics += run(system, NUM_CLIENTS).metrics
    assert store.verify_object("tbl").clean

    spans = sim.tracer.spans if sim.tracer is not None else []
    assert bool(spans) == telemetry
    pinned = fingerprint(stream, store, metrics)
    core = (
        pinned["stream"],
        pinned["queries"],
        digest((s.span_id, s.parent_id, s.name, s.start, s.end) for s in spans),
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
    assert scenario(kind, telemetry) == GOLDEN[kind, telemetry]


def test_telemetry_leaves_stream_and_query_metrics_alone():
    for kind in ("fusion", "baseline"):
        assert GOLDEN[kind, True][:2] == GOLDEN[kind, False][:2]
