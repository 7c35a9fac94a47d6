"""Crash-consistent metadata: WAL crash points → failover → recovery.

The acceptance bar for the metadata-durability work: killing a
coordinator at *every* named WAL crash point during Put and Delete must
leave the cluster recoverable — after ``recover()`` the WAL has no open
operations, ``fsck`` comes back clean (no orphans, no dangling map
entries, replicas in quorum), and Get/Query against the recovered
cluster return byte-identical results to a crash-free reference.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, FaultInjector, Simulator
from repro.core import (
    DELETE_CRASH_POINTS,
    PUT_CRASH_POINTS,
    BaselineStore,
    CoordinatorCrash,
    FusionStore,
    ObjectNotFound,
    RepairManager,
    StoreConfig,
    StoredFusionObject,
)
from repro.core.baseline_store import StoredFixedObject
from repro.format import write_table
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM tbl WHERE qty < 5"
DATA = write_table(make_small_table(), row_group_rows=500)


def _system(store_cls, put=True, **config):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    FaultInjector(cluster, [], seed=0).install()
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=100.0,
            storage_overhead_threshold=0.1,
            block_size=2_000_000,
            **config,
        ),
    )
    if put:
        store.put("tbl", DATA)
    return store


@pytest.fixture(scope="module")
def reference():
    """Crash-free Get/Query results both stores must reproduce."""
    out = {}
    for cls in (FusionStore, BaselineStore):
        store = _system(cls)
        out[cls] = (bytes(store.get("tbl")), store.query(SQL)[0])
    return out


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
@pytest.mark.parametrize("point", PUT_CRASH_POINTS)
class TestPutCrashPoints:
    def test_recover_then_fsck_clean(self, store_cls, point, reference):
        store = _system(store_cls, put=False)
        store.cluster.faults.arm_crash_point(point)
        with pytest.raises(CoordinatorCrash):
            store.put("tbl", DATA)

        recovery = store.recover()
        report = store.fsck()
        assert report.clean, report.summary()

        ref_get, ref_query = reference[store_cls]
        if point == "put:after-commit":
            # Commit is the durability point: recovery rolls the Put
            # forward from the surviving metadata replicas and the object
            # serves identical bytes (degraded reads cover the blocks
            # stranded on the dead coordinator).
            assert recovery.rolled_forward == ["tbl"]
            assert bytes(store.get("tbl")) == ref_get
            assert store.query(SQL)[0].equals(ref_query)
        else:
            # Before commit the Put never happened: rolled back, blocks
            # GC'd, name free for reuse.
            assert recovery.rolled_back == ["tbl"]
            with pytest.raises(ObjectNotFound):
                store.get("tbl")

    def test_recovery_is_idempotent(self, store_cls, point):
        store = _system(store_cls, put=False)
        store.cluster.faults.arm_crash_point(point)
        with pytest.raises(CoordinatorCrash):
            store.put("tbl", DATA)
        first = store.recover()
        second = store.recover()
        assert first.resolved_ops >= (0 if point == "put:after-commit" else 1)
        assert second.resolved_ops == 0
        assert second.orphan_blocks_gcd == 0
        assert store.fsck().clean

    def test_name_reusable_after_recovery(self, store_cls, point, reference):
        store = _system(store_cls, put=False)
        store.cluster.faults.arm_crash_point(point)
        with pytest.raises(CoordinatorCrash):
            store.put("tbl", DATA)
        store.recover()
        if point != "put:after-commit":
            store.put("tbl", DATA)  # rolled back: the name must be free
        assert bytes(store.get("tbl")) == reference[store_cls][0]
        assert store.fsck().clean


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
@pytest.mark.parametrize("point", DELETE_CRASH_POINTS)
class TestDeleteCrashPoints:
    def test_recover_then_fsck_clean(self, store_cls, point):
        store = _system(store_cls)
        store.cluster.faults.arm_crash_point(point)
        with pytest.raises(CoordinatorCrash):
            store.delete("tbl")

        recovery = store.recover()
        report = store.fsck()
        assert report.clean, report.summary()
        # A logged Delete is durable: whatever stage the coordinator died
        # at, recovery redoes the remaining stages and the object is gone.
        with pytest.raises(ObjectNotFound):
            store.get("tbl")
        if point != "delete:after-commit":
            assert recovery.redone_deletes == ["tbl"]

    def test_no_blocks_survive_on_live_nodes(self, store_cls, point):
        store = _system(store_cls)
        cluster = store.cluster
        cluster.faults.arm_crash_point(point)
        with pytest.raises(CoordinatorCrash):
            store.delete("tbl")
        store.recover()
        for node in cluster.nodes:
            if node.alive:
                assert node.block_ids() == []
                assert node.meta_names() == []


class TestWalDurability:
    def test_log_survives_dead_coordinator(self):
        """Records are mirrored to the metadata replica holders, so the
        cluster-wide log outlives the coordinator that wrote it."""
        store = _system(FusionStore, put=False)
        cluster = store.cluster
        cluster.faults.arm_crash_point("put:after-data")
        with pytest.raises(CoordinatorCrash):
            store.put("tbl", DATA)
        dead = [n for n in cluster.nodes if not n.alive]
        assert len(dead) == 1
        survivors = [r for n in cluster.nodes if n.alive for r in n.wal]
        assert any(r.phase == "intent" for r in survivors)

    def test_fault_free_put_leaves_resolved_log(self):
        store = _system(FusionStore)
        records = store.cluster.wal_records()
        intents = [r for r in records if r.phase == "intent"]
        commits = [r for r in records if r.phase == "commit"]
        assert len(intents) == 1
        assert len(commits) == 1
        assert store.fsck().pending_ops == []

    def test_fallback_routed_put_recovers_into_fallback(self):
        """A Put the FusionStore coded in fixed blocks logs
        store_kind="fixed" and recovery reinstalls it as a fixed-layout
        object."""
        # Default row grouping sends this small file to the fallback.
        data = write_table(make_small_table())
        store = _system(FusionStore, put=False)
        store.cluster.faults.arm_crash_point("put:after-commit")
        with pytest.raises(CoordinatorCrash):
            store.put("tbl", data)
        recovery = store.recover()
        assert recovery.rolled_forward == ["tbl"]
        assert isinstance(store.objects["tbl"], StoredFixedObject)
        assert bytes(store.get("tbl")) == data
        assert store.fsck().clean

    def test_name_reused_across_layouts_keeps_one_timeline(self):
        """Put a name in fixed blocks, Delete it, Put it again with FAC:
        the newer Put supersedes the committed Delete.  Keyed by layout,
        recovery redid that Delete against the live FAC object and
        dropped the parity block both layouts name ``<name>/s0/p1``."""
        store = _system(FusionStore, put=False)
        store.config.storage_overhead_threshold = 1e-9
        assert store.put("t", DATA).fallback
        store.delete("t")
        store.config.storage_overhead_threshold = 0.1
        assert not store.put("t", DATA).fallback
        assert store.fsck().clean
        recovery = store.recover()
        assert recovery.redone_deletes == [] and recovery.orphan_blocks_gcd == 0
        report = store.fsck()
        assert report.clean, report.summary()
        assert isinstance(store.objects["t"], StoredFusionObject)
        assert bytes(store.get("t")) == DATA


class TestCoordinatorFailover:
    @pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
    def test_queries_after_failover_match_reference(self, store_cls, reference):
        """With the Put coordinator dead, routing falls over to the next
        alive node and serves identical results (degraded reads cover the
        dead node's blocks)."""
        store = _system(store_cls, put=False)
        cluster = store.cluster
        cluster.faults.arm_crash_point("put:after-commit")
        with pytest.raises(CoordinatorCrash):
            store.put("tbl", DATA)
        store.recover()
        dead = [n.node_id for n in cluster.nodes if not n.alive]
        assert len(dead) == 1
        assert cluster.coordinator_for("tbl").node_id not in dead
        assert store.query(SQL)[0].equals(reference[store_cls][1])


class TestRepairAfterDelete:
    """Regression: repair scheduled for an object deleted before it ran
    must be a clean no-op, not a KeyError that kills the run."""

    @pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
    def test_repair_object_after_delete(self, store_cls):
        store = _system(store_cls)
        manager = RepairManager(store)
        store.delete("tbl")
        report = manager.repair_object("tbl")
        assert report.stripes_repaired == 0
        assert report.objects == []

    @pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
    def test_repair_from_stale_scrub(self, store_cls):
        store = _system(store_cls)
        scrub = store.verify_object("tbl")
        manager = RepairManager(store)
        store.delete("tbl")
        report = manager.repair_from_scrub(scrub)
        assert report.stripes_repaired == 0

    def test_node_repair_skips_deleted_object(self):
        store = _system(FusionStore)
        obj = store.objects["tbl"]
        assert isinstance(obj, StoredFusionObject)
        victim = obj.stripes[0].node_ids[0]
        store.cluster.fail_node(victim)
        manager = RepairManager(store)
        store.delete("tbl")
        report = manager.repair_node(victim)
        assert report.stripes_repaired == 0
        assert store.fsck().clean
