"""A degraded stripe crosses the network once.

A Get that reconstructs a stripe reads that stripe's survivors only
through the (request, stripe) gather, and every lost stripe's gather
rides the Get's one scatter-gather round (``StoreKernel._get_round``):
one exchange per node, however many stripes it serves.  A repair pass over a stripe answers the read-repair hint a degraded read
queued for it (``StoreKernel.repair_stripes_process``): the drain after
``repair_node`` finds nothing left to re-read.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.cluster.node import StorageNode
from repro.cluster.simcore import QueueFull
from repro.core import (
    BaselineStore,
    DeadlineExceeded,
    FusionStore,
    RemoteOpError,
    RepairManager,
    StoreConfig,
)
from repro.format import write_table
from tests.conftest import make_small_table

STORES = pytest.mark.parametrize(
    "store_cls", [FusionStore, BaselineStore], ids=["fusion", "baseline"]
)


def _loaded(store_cls, **config_kw):
    """A 12-node store holding ``tbl`` (four Fusion stripes, three fixed)."""
    data = write_table(make_small_table(num_rows=2500, seed=77), row_group_rows=500)
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0, storage_overhead_threshold=0.1, block_size=150_000, **config_kw
        ),
    )
    store.put("tbl", data)
    return store, cluster, data


def _victim(store, stripe_id: int = 0) -> int:
    """A node holding a written data block of the stripe, not the
    coordinator and not a metadata-replica holder."""
    obj = store.objects["tbl"]
    spared = {store.cluster.coordinator_for("tbl").node_id, *obj.replica_nodes}
    placement = obj.stripes[stripe_id]
    return next(
        nid
        for nid, size in zip(placement.node_ids, placement.data_sizes)
        if size > 0 and nid not in spared
    )


def _hints(cluster) -> list:
    return [key for key in cluster.read_repairs if key[1] == "tbl"]


def _get(store, name: str = "tbl", **kw):
    metrics = QueryMetrics()
    data = store._run(store.get_process(name, metrics, **kw))
    return data, metrics


# -- read-repair hints ----------------------------------------------------


@STORES
def test_repair_node_answers_the_hints_of_a_degraded_get(store_cls):
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    assert store.get("tbl") == data
    assert _hints(cluster)
    manager = RepairManager(store)
    assert manager.repair_node(victim).blocks_repaired > 0
    assert _hints(cluster) == []
    cluster.restore_node(victim)
    drain = manager.repair_read_reported()
    assert drain.stripes_examined == 0
    assert cluster.metrics.read_repair_bytes == 0
    assert store.fsck().clean and store.verify_object("tbl").clean


@STORES
def test_quorum_deferred_pass_keeps_its_hint(store_cls):
    store, cluster, data = _loaded(store_cls, metadata_replicas=3)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    assert store.get("tbl") == data
    hints = _hints(cluster)
    coordinator = cluster.coordinator_for("tbl").node_id
    for nid in [n for n in store.objects["tbl"].replica_nodes if n != coordinator][:2]:
        a, b = cluster.node(coordinator).endpoint.name, cluster.node(nid).endpoint.name
        cluster.network.set_link(a, b, severed=True)
        cluster.network.set_link(b, a, severed=True)
    manager = RepairManager(store)
    deferred = manager.repair_node(victim)
    assert deferred.stripes_quorum_deferred >= 1 and deferred.blocks_repaired == 0
    assert sorted(_hints(cluster)) == sorted(hints)

    cluster.network.links.clear()
    assert manager.repair_node(victim).blocks_repaired > 0
    assert _hints(cluster) == []


@STORES
def test_queue_full_deferred_pass_keeps_its_hint(store_cls, monkeypatch):
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    assert store.get("tbl") == data
    hints = _hints(cluster)

    def refused(*_args, **_kw):
        raise QueueFull("background repair refused")
        yield  # a process

    monkeypatch.setattr(store, "_gather_exchange", refused)
    deferred = RepairManager(store).repair_node(victim)
    assert deferred.stripes_deferred >= len(hints) and deferred.blocks_repaired == 0
    assert sorted(_hints(cluster)) == sorted(hints)


@STORES
def test_degraded_reads_during_and_after_the_pass_queue_the_hint_again(store_cls):
    store, cluster, data = _loaded(store_cls)
    obj = store.objects["tbl"]
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    assert store.get("tbl") == data
    hint = (obj.kind, "tbl", 0)
    assert hint in cluster.read_repairs

    # A Get racing the pass still reads degraded (the placement moves
    # only when the pass rewrites), and its hint outlives the pass.
    def race():
        repair = store.sim.process(store.repair_stripe_process("tbl", 0))
        get = store.sim.process(store.get_process("tbl"))
        yield repair
        yield get
        return repair.value, get.value

    written, got = store._run(race())
    assert written > 0 and got == data
    assert hint in cluster.read_repairs
    # The next pass answers it: the stripe is healthy, nothing rewritten.
    assert store._run(store.repair_stripe_process("tbl", 0)) == 0
    assert hint not in cluster.read_repairs

    RepairManager(store).repair_node(victim)
    assert _hints(cluster) == []
    # Healthy again, then another holder of the stripe fails: the next
    # degraded read queues the stripe afresh.
    cluster.restore_node(victim)
    cluster.fail_node(_victim(store), wipe=True)
    assert store.get("tbl") == data
    assert hint in cluster.read_repairs


# -- the Get reads a reconstructed stripe through its gather --------------


def _count_reads(monkeypatch) -> dict[str, int]:
    """block id -> number of disk reads of it, whole or ranged."""
    counts: dict[str, int] = {}
    read_block, read_block_range = StorageNode.read_block, StorageNode.read_block_range

    def whole(self, block_id, *args, **kw):
        counts[block_id] = counts.get(block_id, 0) + 1
        return (yield from read_block(self, block_id, *args, **kw))

    def ranged(self, block_id, *args, **kw):
        counts[block_id] = counts.get(block_id, 0) + 1
        return (yield from read_block_range(self, block_id, *args, **kw))

    monkeypatch.setattr(StorageNode, "read_block", whole)
    monkeypatch.setattr(StorageNode, "read_block_range", ranged)
    return counts


def _marked(store, victim: int) -> list:
    """The stripes a whole-object Get reconstructs with ``victim`` down."""
    return [
        p for p in store.objects["tbl"].stripes
        if any(nid == victim and size > 0 for nid, size in zip(p.node_ids, p.data_sizes))
    ]


@STORES
def test_degraded_get_reads_each_survivor_of_a_marked_stripe_once(store_cls, monkeypatch):
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    counts = _count_reads(monkeypatch)
    got, metrics = _get(store)
    assert got == data
    marked = _marked(store, victim)
    assert marked and metrics.degraded_reads == len(marked)
    survivors = [
        bid for p in marked for bid, nid in zip(p.block_ids, p.node_ids)
        if nid is not None and nid != victim
    ]
    assert any(counts.get(bid) for bid in survivors)
    assert all(counts.get(bid, 0) <= 1 for bid in survivors)


def _lost_and_longer_survivor(store):
    """(stripe, lost position, survivor position) of a stripe with a
    written data position shorter than a surviving one, avoiding the
    coordinator; corrupting the survivor past the lost block's end leaves
    the lost block's decode right."""
    obj = store.objects["tbl"]
    coordinator = store.cluster.coordinator_for("tbl").node_id
    for p in obj.stripes:
        written = [i for i, size in enumerate(p.data_sizes) if size > 0]
        for i in written:
            for j in written:
                if (
                    p.data_sizes[j] > p.data_sizes[i]
                    and coordinator not in (p.node_ids[i], p.node_ids[j])
                    and p.node_ids[i] != p.node_ids[j]
                ):
                    return p, i, j
    raise AssertionError("no stripe with a shorter lost block")


@STORES
def test_corrupt_survivor_of_a_marked_stripe_is_caught(store_cls):
    store, cluster, data = _loaded(store_cls)
    placement, lost, survivor = _lost_and_longer_survivor(store)
    cluster.fail_node(placement.node_ids[lost], wipe=True)
    cluster.node(placement.node_ids[survivor]).corrupt_block(
        placement.block_ids[survivor], offset=placement.data_sizes[lost]
    )
    got, metrics = _get(store)
    assert got == data
    assert metrics.checksum_failures == 1


def _boundaries(store) -> list[int]:
    """Every segment boundary of the object: header / chunk / footer for
    FAC, block edges for the fixed layout."""
    obj = store.objects["tbl"]
    if obj.kind == "fixed":
        return sorted({block.start for block in obj.layout.blocks[1:]})
    chunks = obj.metadata.all_chunks()
    return sorted({len(obj.header_bytes)} | {c.offset for c in chunks} | {chunks[-1].end_offset})


@STORES
def test_ranged_gets_across_every_boundary_with_a_node_down(store_cls):
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    for edge in _boundaries(store):
        for lo, hi in ((edge - 1, edge + 1), (edge - 7, edge), (edge, edge + 9)):
            lo, hi = max(lo, 0), min(hi, len(data))
            got, _metrics = _get(store, offset=lo, size=hi - lo)
            assert got == data[lo:hi], (lo, hi)
    # Ranges inside one segment, and a whole-object read, still exact.
    edges = [0] + _boundaries(store) + [len(data)]
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo > 2:
            got, _metrics = _get(store, offset=lo + 1, size=hi - lo - 2)
            assert got == data[lo + 1 : hi - 1]
    assert _get(store)[0] == data


# -- every lost stripe rides the Get's one round --------------------------


@STORES
def test_degraded_get_opens_one_exchange_per_remote_node(store_cls, monkeypatch):
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    counts = _count_reads(monkeypatch)
    got, metrics = _get(store)
    assert got == data
    marked = _marked(store, victim)
    assert len(marked) >= 2 and metrics.degraded_reads == len(marked)
    read_from = {
        nid
        for p in store.objects["tbl"].stripes
        for bid, nid in zip(p.block_ids, p.node_ids)
        if counts.get(bid)
    }
    remote = read_from - {cluster.coordinator_for("tbl").node_id}
    assert 0 < metrics.rpcs_issued <= len(remote)


def _gets(store, clients: int, metrics: QueryMetrics, crash: int | None = None) -> list:
    """``clients`` whole-object Gets sharing ``metrics``, started
    together; node ``crash`` fails while their reads are in flight.
    Returns each Get's bytes or typed error."""
    outcome = []

    def killer():
        yield store.sim.timeout(1e-4)
        store.cluster.fail_node(crash)

    def client():
        try:
            outcome.append((yield from store.get_process("tbl", metrics)))
        except (RemoteOpError, DeadlineExceeded, QueueFull) as exc:
            outcome.append(exc)

    if crash is not None:
        store.sim.process(killer())
    for _ in range(clients):
        store.sim.process(client())
    store.sim.run()
    return outcome


@STORES
@pytest.mark.parametrize("clients", [1, 2], ids=["alone", "sharing-metrics"])
def test_gathered_holder_dying_mid_round_fails_typed_or_reads_right(store_cls, clients):
    """A second Get on the same metrics object waits on the first's
    gathers, so it takes their typed error when the round fails."""
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    coordinator = cluster.coordinator_for("tbl").node_id
    placement = _marked(store, victim)[0]
    holder = next(
        nid
        for nid, size in zip(placement.node_ids, placement.data_sizes)
        if size > 0 and nid not in (victim, coordinator)
    )
    outcome = _gets(store, clients, QueryMetrics(), crash=holder)
    assert len(outcome) == clients
    assert all(got == data or isinstance(got, Exception) for got in outcome)
    assert store._request_gathers == {}
    assert not store.sim._heap


@STORES
def test_concurrent_get_on_one_metrics_object_takes_the_round_gathers(store_cls):
    store, cluster, data = _loaded(store_cls)
    victim = _victim(store)
    cluster.fail_node(victim, wipe=True)
    metrics = QueryMetrics()
    assert _gets(store, 2, metrics) == [data, data]
    # The second Get waited on the first's gathers instead of its own.
    assert metrics.degraded_reads == len(_marked(store, victim))
    assert store._request_gathers == {}
