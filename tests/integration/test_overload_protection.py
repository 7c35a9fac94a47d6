"""Overload protection end to end: the injected ``overload`` and
``slow_burst`` fault kinds really generate pressure, admission control
really refuses work under that pressure, a cluster that suffers overload
plus a crash converges back to full health (breakers closed, queries
answering), and ``allow_partial_results`` trades shed chunks for a typed
:class:`PartialResult` instead of a failure."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    QueryMetrics,
    Simulator,
    install_admission_control,
    random_schedule,
)
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.core import (
    BaselineStore,
    DeadlineExceeded,
    FusionStore,
    PartialResult,
    QueueFull,
    RemoteOpError,
    StoreConfig,
)
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
]


# ---------------------------------------------------------------------------
# The injected fault kinds
# ---------------------------------------------------------------------------


class TestOverloadFaultKind:
    def test_overload_drives_disk_traffic_during_window(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=4))
        FaultInjector(
            cluster,
            [FaultEvent(at=0.01, kind="overload", node_id=2, duration=0.1, rate=500.0)],
            seed=3,
        ).install()
        sim.run(until=0.005)
        assert cluster.node(2).disk.total_bytes == 0  # window not open yet
        sim.run()
        assert cluster.node(2).disk.total_bytes > 0
        # Only the targeted node was bombarded.
        assert cluster.node(0).disk.total_bytes == 0
        assert not sim._heap  # the driver wound down cleanly

    def test_admission_control_rejects_injected_background_requests(self):
        """Saturating requests at a bounded node get refused at the door
        (and swallowed: the injected tenant has no retry logic)."""
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=4))
        install_admission_control(
            cluster, StoreConfig(admission_queue_depth=4)
        )
        FaultInjector(
            cluster,
            [
                FaultEvent(
                    at=0.0, kind="overload", node_id=1, duration=0.2,
                    rate=2000.0, nbytes=4_000_000,
                )
            ],
            seed=3,
        ).install()
        sim.run()
        node = cluster.node(1)
        rejected = node.disk.device.rejected_total + node.cpu.rejected_total
        assert rejected > 0
        assert node.disk.device.max_queue == 4
        assert not sim._heap

    def test_slow_burst_sets_and_resets_factors(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=4))
        FaultInjector(
            cluster,
            [FaultEvent(at=0.02, kind="slow_burst", node_id=0, duration=0.05, factor=8.0)],
            seed=3,
        ).install()
        sim.run(until=0.03)
        assert cluster.node(0).disk.slow_factor == 8.0
        assert cluster.node(0).endpoint.slow_factor == 8.0
        sim.run()
        assert cluster.node(0).disk.slow_factor == 1.0
        assert cluster.node(0).endpoint.slow_factor == 1.0


class TestRandomSchedule:
    def test_new_families_are_drawn_and_valid(self):
        events = random_schedule(12, 10.0, seed=44, overloads=2, slow_bursts=1)
        overloads = [ev for ev in events if ev.kind == "overload"]
        bursts = [ev for ev in events if ev.kind == "slow_burst"]
        assert len(overloads) == 2 and len(bursts) == 1
        for ev in overloads:
            assert ev.rate > 0 and ev.duration > 0
        for ev in bursts:
            assert ev.factor >= 1.0 and ev.duration > 0

    def test_old_families_are_bit_identical_with_new_knobs_at_zero(self):
        """Adding the new families must not perturb what a seed already
        produced: the extended schedule minus the new kinds equals the
        original schedule exactly."""
        base = random_schedule(12, 10.0, seed=44)
        extended = random_schedule(12, 10.0, seed=44, overloads=3, slow_bursts=2)
        old_kinds = [ev for ev in extended if ev.kind not in ("overload", "slow_burst")]
        assert old_kinds == base


# ---------------------------------------------------------------------------
# Convergence: overload + crash + restore with full protection on
# ---------------------------------------------------------------------------


PROTECTED = dict(
    size_scale=50.0,
    storage_overhead_threshold=0.1,
    block_size=500_000,
    default_deadline_s=0.5,
    admission_queue_depth=32,
    breaker_failure_threshold=5,
    breaker_window_s=0.25,
    breaker_reset_s=0.05,
    allow_partial_results=True,
    rpc_retry_jitter=0.5,
)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_overload_crash_restore_converges(store_cls):
    """Protection on, then the works: an overload storm on two nodes plus
    a crash/restore of a third.  Every in-storm failure is a typed,
    controlled one; after the storm the cluster answers everything and
    every breaker is closed."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(cluster, StoreConfig(**PROTECTED))
    store.put("tbl", data)

    FaultInjector(
        cluster,
        [
            FaultEvent(at=0.0, kind="overload", node_id=3, duration=0.25,
                       rate=3000.0, nbytes=2_000_000),
            FaultEvent(at=0.0, kind="overload", node_id=7, duration=0.25,
                       rate=3000.0, nbytes=2_000_000),
            FaultEvent(at=0.02, kind="crash", node_id=5),
            FaultEvent(at=0.20, kind="restore", node_id=5),
        ],
        seed=9,
    ).install()

    outcomes = {"ok": 0, "partial": 0, "controlled": 0}

    def client(cid):
        for qi in range(8):
            metrics = QueryMetrics()
            try:
                result = yield from store.query_process(
                    QUERIES[(cid + qi) % len(QUERIES)], metrics
                )
            except (DeadlineExceeded, QueueFull, RemoteOpError):
                outcomes["controlled"] += 1
            else:
                if isinstance(result, PartialResult):
                    outcomes["partial"] += 1
                else:
                    outcomes["ok"] += 1

    for cid in range(4):
        sim.process(client(cid))
    sim.run()
    assert not sim._heap  # everything drained, nothing orphaned
    assert sum(outcomes.values()) == 32
    assert outcomes["ok"] > 0  # the storm never took the whole cluster down

    # Post-storm: the cluster must converge — every query answers fully
    # and every breaker closes (half-open probes get their successes).
    for qi in range(12):
        result, _ = store.query(QUERIES[qi % len(QUERIES)])
        assert not isinstance(result, PartialResult)
    if cluster.breakers is not None:
        assert cluster.breakers.open_count() == 0
    for node in cluster.nodes:
        assert node.alive


# ---------------------------------------------------------------------------
# Partial results
# ---------------------------------------------------------------------------


def test_partial_result_under_saturating_overload():
    """With tiny admission queues and a saturating storm on most of the
    data nodes, ``allow_partial_results`` turns shed scan chunks into a
    typed PartialResult (or a typed failure) — never an untyped error,
    never a hang.  A PartialResult holds exactly the answer over the row
    groups it kept, and a full answer the answer over the table."""
    _saturating_storm(FusionStore)


def test_baseline_partial_result_under_saturating_overload():
    """The fixed-block store's PartialResult names its dropped row groups
    the same way."""
    _saturating_storm(BaselineStore)


def _saturating_storm(store_cls) -> None:
    table = make_small_table(num_rows=2500, seed=77)
    group_rows = 500
    data = write_table(table, row_group_rows=group_rows)

    def kept_rows(dropped):
        keep = [rg for rg in range(table.num_rows // group_rows) if rg not in dropped]
        rows = [np.arange(rg * group_rows, (rg + 1) * group_rows) for rg in keep]
        return table.take(np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64))

    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            admission_queue_depth=1,
            allow_partial_results=True,
        ),
    )
    store.put("tbl", data)

    storm = [
        FaultEvent(at=0.0, kind="overload", node_id=n, duration=0.5,
                   rate=5000.0, nbytes=8_000_000)
        for n in range(12)
    ]
    FaultInjector(cluster, storm, seed=21).install()

    outcomes = {"ok": 0, "partial": 0, "controlled": 0}
    shed_chunks = 0
    dropped: list[tuple[int, ...]] = []

    def client(cid):
        for qi in range(6):
            metrics = QueryMetrics()
            sql = QUERIES[(cid + qi) % len(QUERIES)]
            try:
                result = yield from store.query_process(sql, metrics)
            except (DeadlineExceeded, QueueFull, RemoteOpError):
                outcomes["controlled"] += 1
            else:
                if isinstance(result, PartialResult):
                    outcomes["partial"] += 1
                    nonlocal shed_chunks
                    shed_chunks += result.shed_chunks
                    assert result.partial
                    assert result.reason == "overload"
                    assert result.dropped_row_groups
                    dropped.append(result.dropped_row_groups)
                    want = execute_local(sql, kept_rows(result.dropped_row_groups))
                    assert result.result.equals(want), (sql, result.dropped_row_groups)
                else:
                    outcomes["ok"] += 1
                    assert result.equals(execute_local(sql, table)), sql

    def start_clients():
        # Let the storm bite first so foreground work meets full queues.
        yield sim.timeout(0.01)
        for cid in range(6):
            sim.process(client(cid))

    sim.process(start_clients())
    sim.run()
    assert not sim._heap
    assert sum(outcomes.values()) == 36
    # The storm really shed foreground work into partial answers.
    assert outcomes["partial"] > 0
    assert shed_chunks > 0
    assert len(dropped) == outcomes["partial"]
    # Each shed *stage* counts, so the rollup is at least one per
    # client-visible PartialResult.
    assert cluster.metrics.partial_results >= outcomes["partial"]
    assert cluster.metrics.requests_rejected > 0
