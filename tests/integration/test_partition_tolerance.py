"""Partition and gray-failure tolerance: quorum-guarded metadata,
partition-straddling crash recovery, anti-entropy read-repair, and the
min-healthy-floor guard.

A network partition must never let a minority-side coordinator install a
bumped-epoch metadata snapshot (split-brain); repair defers such stripes
with a typed :class:`QuorumLost` and re-attempts after heal.  Degraded
foreground reads queue their stripe for background read-repair, and
recovery converges stale minority replicas onto the majority epoch."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.core import BaselineStore, FusionStore, RepairManager, StoreConfig
from repro.core.wal import QuorumLost
from repro.format import write_table
from tests.conftest import make_small_table


def _system(store_cls, num_nodes=12, **config_kw):
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=num_nodes))
    config_kw.setdefault("block_size", 500_000)
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            **config_kw,
        ),
    )
    store.put("tbl", data)
    return store, cluster, table, data


def _meta_holders(store, name: str) -> tuple[int, ...]:
    obj = store.objects[name]
    if isinstance(store, FusionStore):
        return tuple(obj.location_map.replica_nodes)
    return tuple(obj.replica_nodes)


def _sever(cluster, a: int, b: int) -> None:
    """Cut both directed legs between two nodes."""
    a_name = cluster.node(a).endpoint.name
    b_name = cluster.node(b).endpoint.name
    cluster.network.set_link(a_name, b_name, severed=True)
    cluster.network.set_link(b_name, a_name, severed=True)


def _heal_all(cluster) -> None:
    cluster.network.links.clear()


def _first_data_holder(store) -> int:
    """A node holding a data block of ``tbl`` (so its loss forces a
    degraded read on the Get path)."""
    obj = store.objects["tbl"]
    if isinstance(store, FusionStore):
        placement = obj.stripes[0]
        j = next(i for i, s in enumerate(placement.data_sizes) if s > 0)
        return placement.node_ids[j]
    return obj.data_block_nodes[0]


def _get_with_metrics(store, name: str):
    """Run a Get with an explicit QueryMetrics carrier."""
    qm = QueryMetrics()
    proc = store.sim.process(store.get_process(name, qm))
    store.sim.run()
    return proc.value, qm


def _corrupt_data_block_avoiding(store, cluster, avoid: set[int]) -> tuple[int, str]:
    """Corrupt one stripe-0 data block on a node outside ``avoid``."""
    obj = store.objects["tbl"]
    if isinstance(store, FusionStore):
        placement = obj.stripes[0]
        for j, size in enumerate(placement.data_sizes):
            if size > 0 and placement.node_ids[j] not in avoid:
                bid, nid = placement.data_block_ids[j], placement.node_ids[j]
                break
        else:
            pytest.fail("no data block outside the severed set")
    else:
        for index in sorted(obj.data_block_nodes):
            if obj.data_block_nodes[index] not in avoid:
                bid, nid = obj.data_block_id(index), obj.data_block_nodes[index]
                break
        else:
            pytest.fail("no data block outside the severed set")
    cluster.node(nid).corrupt_block(bid, offset=11)
    return nid, bid


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestQuorumGuard:
    def test_minority_republish_raises_quorum_lost(self, store_cls):
        store, cluster, _table, _data = _system(store_cls, metadata_replicas=3)
        obj = store.objects["tbl"]
        holders = _meta_holders(store, "tbl")
        assert len(holders) == 3
        coordinator = cluster.coordinator_for("tbl").node_id
        epoch_before = obj.meta_epoch

        # Cut the coordinator off from every holder but itself: at most
        # one of three holders reachable < majority of two.
        for nid in holders:
            if nid != coordinator:
                _sever(cluster, coordinator, nid)

        with pytest.raises(QuorumLost):
            store._republish_meta(obj)
        assert obj.meta_epoch == epoch_before  # no minority-epoch install
        assert cluster.metrics.quorum_lost_total == 1
        # No holder carries an epoch newer than the object's.
        for nid in holders:
            replica = cluster.node(nid).get_meta("tbl")
            assert replica is None or replica.epoch <= obj.meta_epoch

        _heal_all(cluster)
        store._republish_meta(obj)
        assert obj.meta_epoch == epoch_before + 1
        for nid in holders:
            assert cluster.node(nid).get_meta("tbl").epoch == obj.meta_epoch

    def test_guard_inactive_below_three_replicas(self, store_cls):
        store, cluster, _table, _data = _system(store_cls, metadata_replicas=2)
        obj = store.objects["tbl"]
        coordinator = cluster.coordinator_for("tbl").node_id
        for nid in _meta_holders(store, "tbl"):
            if nid != coordinator:
                _sever(cluster, coordinator, nid)
        epoch_before = obj.meta_epoch
        store._republish_meta(obj)  # no quorum rule with < 3 holders
        assert obj.meta_epoch == epoch_before + 1
        assert cluster.metrics.quorum_lost_total == 0

    def test_repair_defers_then_heals(self, store_cls):
        store, cluster, _table, data = _system(store_cls, metadata_replicas=3)
        holders = _meta_holders(store, "tbl")
        coordinator = cluster.coordinator_for("tbl").node_id
        # Sever exactly two non-coordinator holders: quorum is lost
        # (<= 1 of 3 reachable) while every stripe keeps >= k readable
        # shards (at most two shard holders unreachable, RS tolerates 3).
        severed = [nid for nid in holders if nid != coordinator][:2]
        _corrupt_data_block_avoiding(store, cluster, set(severed))
        scrub = store.verify_object("tbl")
        assert scrub.corrupt_stripes
        for nid in severed:
            _sever(cluster, coordinator, nid)

        manager = RepairManager(store)
        deferred = manager.repair_from_scrub(scrub)
        assert deferred.stripes_quorum_deferred >= 1
        assert deferred.stripes_deferred >= deferred.stripes_quorum_deferred
        assert cluster.metrics.quorum_lost_total >= 1

        _heal_all(cluster)
        healed = manager.repair_from_scrub(scrub)
        assert healed.stripes_quorum_deferred == 0
        rescrub = store.verify_object("tbl")
        assert not rescrub.corrupt_stripes and not rescrub.incomplete_stripes
        assert store.get("tbl") == data


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestPartitionStraddlingCrash:
    def test_recover_converges_on_majority_epoch(self, store_cls):
        store, cluster, _table, data = _system(store_cls, metadata_replicas=3)
        obj = store.objects["tbl"]
        holders = _meta_holders(store, "tbl")
        coordinator = cluster.coordinator_for("tbl").node_id
        epoch_before = obj.meta_epoch
        # Strand one non-coordinator holder alone on the minority side.
        minority = next(nid for nid in holders if nid != coordinator)
        _corrupt_data_block_avoiding(store, cluster, {minority})
        scrub = store.verify_object("tbl")
        for other in range(cluster.num_nodes):
            if other != minority:
                _sever(cluster, minority, other)

        # Majority side keeps full availability: repair succeeds and
        # bumps the epoch on the two reachable holders only.
        report = RepairManager(store).repair_from_scrub(scrub)
        assert report.stripes_quorum_deferred == 0
        assert report.stripes_repaired >= 1
        majority_epoch = obj.meta_epoch
        assert majority_epoch == epoch_before + 1
        assert cluster.node(minority).get_meta("tbl").epoch < majority_epoch
        assert store.get("tbl") == data  # majority-side reads stay correct

        # Heal, then lose the coordinator's in-memory state: recovery's
        # quorum read must pick the *majority* epoch, not the stale
        # minority replica, and anti-entropy resyncs the stale holder.
        _heal_all(cluster)
        del store.objects["tbl"]
        recovery = store.recover()
        assert "tbl" in recovery.rolled_forward
        assert store.objects["tbl"].meta_epoch == majority_epoch
        assert recovery.meta_replicas_synced >= 1
        assert cluster.node(minority).get_meta("tbl").epoch == majority_epoch
        assert store.fsck().clean
        assert store.get("tbl") == data


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestReadRepair:
    def test_degraded_read_enqueues_and_drains(self, store_cls):
        store, cluster, _table, data = _system(store_cls)
        cluster.fail_node(_first_data_holder(store))
        assert store.get("tbl") == data  # degraded reconstruction
        assert cluster.read_repairs  # the reconstructed stripes queued

        repair_bytes_before = cluster.metrics.repair_bytes
        report = RepairManager(store).repair_read_reported()
        assert report.blocks_repaired >= 1
        assert not cluster.read_repairs
        assert cluster.metrics.read_repair_bytes > 0
        assert cluster.metrics.blocks_read_repaired >= 1
        # Accounted in its own bucket: scrub-repair totals untouched.
        assert cluster.metrics.repair_bytes == repair_bytes_before

        # Repaired onto live nodes: the next Get is clean and enqueues
        # nothing new.
        assert store.get("tbl") == data
        assert not cluster.read_repairs


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestMinHealthyFloor:
    def _stripe_zero(self, store):
        """(block handle, holder node ids) for the object's first stripe."""
        obj = store.objects["tbl"]
        if isinstance(store, FusionStore):
            placement = obj.stripes[0]
            j = next(i for i, s in enumerate(placement.data_sizes) if s > 0)
            return obj, placement.data_block_ids[j], list(placement.node_ids)
        holder_ids = [
            obj.data_block_nodes[b.index] for b in obj.layout.stripe_blocks(0)
        ] + [nid for (s, _j), nid in obj.parity_block_nodes.items() if s == 0]
        return obj, 0, holder_ids

    def _greylist(self, cluster, node_ids):
        """Warm every node's EWMA, then push ``node_ids`` far over the
        cluster median so the tracker greylists them."""
        health = cluster.health
        health.greylist_factor = 3.0
        for nid in range(cluster.num_nodes):
            for _ in range(10):
                health.record_success(nid, 0.001)
        for nid in node_ids:
            for _ in range(10):
                health.record_success(nid, 1.0)
        for nid in node_ids:
            assert health.is_greylisted(nid)

    def test_floor_attempts_when_usable_below_k(self, store_cls):
        store, cluster, _table, data = _system(store_cls)
        obj, block, holder_ids = self._stripe_zero(store)
        k = store.config.code.k
        # Greylist enough distinct stripe-0 holders that its usable
        # count drops below k (a trailing partial stripe can have fewer
        # than n holders, so count from the stripe's own holder set).
        distinct = list(dict.fromkeys(holder_ids))
        victims = distinct[: len(distinct) - k + 1]
        self._greylist(cluster, victims)
        assert store._floor_attempt(obj, block)
        # The Get still routes direct attempts at greylisted (but
        # alive) holders of below-floor stripes instead of a
        # guaranteed-degraded reconstruction.
        result, metrics = _get_with_metrics(store, "tbl")
        assert result == data
        if isinstance(store, FusionStore):
            # Chunks on greylisted holders split: below-floor stripes
            # attempt direct, healthy-majority stripes reconstruct.
            grey_chunks = [
                loc
                for loc in obj.location_map.entries.values()
                if cluster.health.is_greylisted(loc.node_id)
            ]
            saved = [
                loc
                for loc in grey_chunks
                if store._floor_attempt(obj, loc.block_id)
            ]
            assert saved
            assert metrics.degraded_reads <= len(grey_chunks) - len(saved)
        else:
            # The baseline object here is a single stripe: every block
            # is floor-guarded, so no read degrades at all.
            assert metrics.degraded_reads == 0

    def test_floor_idle_while_k_usable(self, store_cls):
        store, cluster, _table, _data = _system(store_cls)
        obj, block, holder_ids = self._stripe_zero(store)
        k = store.config.code.k
        distinct = list(dict.fromkeys(holder_ids))
        self._greylist(cluster, distinct[: len(distinct) - k])  # k still usable
        assert not store._floor_attempt(obj, block)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestMigrationAcrossSeveredLink:
    """A migration that has to reconstruct its source block gathers
    shards only from holders the coordinator can reach:
    ``Network.transfer`` does not consult the link matrix, so a read over
    a severed link would "succeed" in the model."""

    def _retarget_lost_position(self, store_cls, severed_count: int):
        """Wipe stripe 0's first holder, sever the coordinator from
        ``severed_count`` surviving holders, then migrate position 0 to a
        node outside the stripe.  Returns (cluster, coordinator, severed
        holders, destination, blocks moved)."""
        store, cluster, _table, _data = _system(store_cls, tracing_enabled=True)
        placement = store.objects["tbl"].stripes[0]
        coordinator = cluster.coordinator_for("tbl").node_id
        lost = placement.node_ids[0]
        assert lost != coordinator
        cluster.fail_node(lost, wipe=True)
        survivors = [
            nid for nid, _bid, _size, _crc in placement.stored_blocks()
            if nid not in (lost, coordinator)
        ]
        severed = survivors[:severed_count]
        for nid in severed:
            _sever(cluster, coordinator, nid)
        holders = {nid for nid in placement.node_ids if nid is not None}
        dst = next(n for n in range(cluster.num_nodes) if n not in holders)
        targets = [dst] + list(placement.node_ids[1:])
        proc = store.sim.process(store.migrate_stripe_process("tbl", 0, targets))
        store.sim.run()
        return store, cluster, coordinator, severed, dst, proc.value

    def _transfers(self, cluster, src: int, dst: int) -> list:
        src_name = cluster.node(src).endpoint.name
        dst_name = cluster.node(dst).endpoint.name
        return [
            s for s in cluster.sim.tracer.spans
            if s.name == "net.transfer"
            and s.args["src"] == src_name and s.args["dst"] == dst_name
        ]

    def test_no_bytes_cross_the_severed_link_and_the_move_lands(self, store_cls):
        store, cluster, coordinator, severed, dst, moved = self._retarget_lost_position(
            store_cls, severed_count=1
        )
        assert not self._transfers(cluster, severed[0], coordinator)
        assert moved == 1  # >= k holders are still reachable
        placement = store.objects["tbl"].stripes[0]
        assert placement.node_ids[0] == dst
        assert cluster.node(dst).has_block(placement.block_ids[0])
        assert not cluster.migrations

    def test_too_few_reachable_holders_moves_nothing(self, store_cls):
        # RS(9,6): one holder wiped and three more unreachable leaves
        # fewer than k shards.
        store, cluster, coordinator, severed, dst, moved = self._retarget_lost_position(
            store_cls, severed_count=3
        )
        for nid in severed:
            assert not self._transfers(cluster, nid, coordinator)
        assert moved == 0
        placement = store.objects["tbl"].stripes[0]
        assert placement.node_ids[0] != dst
        assert not cluster.node(dst).has_block(placement.block_ids[0])
        assert not cluster.migrations
