"""Elastic membership end-to-end: join/drain -> background rebalance ->
ring-converged placement with correct queries throughout.

Also the regression suite for the per-object cache invalidation that
rides every location-map republish: a migration that moves blocks must
evict decoded chunks, page indexes and degraded reconstructions derived
from the old placement (see ``_republish_meta`` in both stores).
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, FaultInjector, Simulator
from repro.core import (
    BaselineStore,
    FusionStore,
    Rebalancer,
    StoreConfig,
    fsck,
)
from repro.format import write_table
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM tbl WHERE qty < 5"
DATA = write_table(make_small_table(), row_group_rows=500)


def _system(store_cls, **config):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    FaultInjector(cluster, [], seed=0).install()
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=100.0,
            storage_overhead_threshold=0.1,
            block_size=2_000_000,
            membership_enabled=True,
            **config,
        ),
    )
    store.put("tbl", DATA)
    return store


@pytest.fixture(scope="module")
def reference():
    out = {}
    for cls in (FusionStore, BaselineStore):
        store = _system(cls)
        out[cls] = store.query(SQL)[0]
    return out


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestJoinRebalance:
    def test_join_converges_and_queries_stay_correct(self, store_cls, reference):
        store = _system(store_cls)
        rb = Rebalancer(store)
        assert rb.converged(), "fresh puts already land at ring positions"

        store.cluster.add_node()
        assert rb.misplaced(), "a join must leave existing data misplaced"
        report = rb.rebalance()
        assert report.blocks_moved > 0
        assert report.rebalance_bytes > 0
        assert rb.converged()
        assert store.fsck().clean
        assert store.query(SQL)[0].equals(reference[store_cls])
        # Every block now sits at its ring position (converged() above
        # proved it); the moved blocks' old copies are gone.
        assert not store.cluster.migrations

    def test_rebalance_traffic_separate_from_repair(self, store_cls, reference):
        store = _system(store_cls)
        rb = Rebalancer(store)
        store.cluster.add_node()
        query_bytes_before = store.cluster.metrics.network_bytes
        report = rb.rebalance()
        metrics = store.cluster.metrics
        assert metrics.rebalance_bytes == report.rebalance_bytes > 0
        assert metrics.blocks_migrated == report.blocks_moved
        assert metrics.repair_bytes == 0, "migration must not count as repair"
        assert metrics.network_bytes == query_bytes_before, (
            "migration must not count as query traffic"
        )

    def test_rebalance_is_idempotent(self, store_cls, reference):
        store = _system(store_cls)
        rb = Rebalancer(store)
        store.cluster.add_node()
        first = rb.rebalance()
        second = rb.rebalance()
        assert first.blocks_moved > 0
        assert second.blocks_moved == 0
        assert second.rebalance_bytes == 0


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestDrainRebalance:
    def test_drain_empties_node_then_remove(self, store_cls, reference):
        store = _system(store_cls)
        cluster = store.cluster
        rb = Rebalancer(store)
        # Pick a node that actually holds blocks of the object.
        victim = next(
            n.node_id for n in cluster.nodes if any(n.block_ids())
        )
        cluster.drain_node(victim)
        rb.rebalance()
        assert rb.converged()
        assert not any(cluster.node(victim).block_ids()), (
            "rebalance must empty a draining node"
        )
        assert store.query(SQL)[0].equals(reference[store_cls])
        cluster.remove_node(victim)
        assert store.fsck().clean
        assert store.query(SQL)[0].equals(reference[store_cls])

    def test_meta_replicas_leave_draining_node(self, store_cls, reference):
        store = _system(store_cls)
        cluster = store.cluster
        obj = next(iter(store.objects.values()))
        replicas = obj.replica_nodes
        victim = replicas[0]
        cluster.drain_node(victim)
        rb = Rebalancer(store)
        report = rb.rebalance()
        assert report.meta_moved >= 1
        assert victim not in obj.replica_nodes
        assert cluster.node(victim).get_meta("tbl") is None
        assert store.fsck().clean


class TestCacheInvalidationAcrossMigration:
    """Satellite regression: stale real-bytes caches across a migration.

    Before the fix, ``_republish_meta`` moved the placement but left the
    decode/page-index/degraded caches holding values derived from the old
    copies — a reader could keep serving chunks decoded from blocks that
    the migration's GC had already dropped.
    """

    def test_fusion_poisoned_decode_cache_evicted(self, reference):
        store = _system(FusionStore)
        ref = reference[FusionStore]
        store.query(SQL)  # populate the decode/page-index caches
        assert len(store._decode_cache) > 0
        # Poison every cached decode for the object: if any survives the
        # migration, the next query returns these garbage values.
        for key in list(store._decode_cache):
            store._decode_cache[key] = np.full(8, -1.0)
        store.cluster.add_node()
        report = Rebalancer(store).rebalance()
        assert report.blocks_moved > 0
        assert not any(k[0] == "tbl" for k in store._decode_cache), (
            "migration republish must evict the object's decode cache"
        )
        assert store.query(SQL)[0].equals(ref)

    def test_baseline_poisoned_decode_cache_evicted(self, reference):
        store = _system(BaselineStore)
        ref = reference[BaselineStore]
        store.query(SQL)
        assert len(store._decode_cache) > 0
        for key in list(store._decode_cache):
            store._decode_cache[key] = np.full(8, -1.0)
        store.cluster.add_node()
        report = Rebalancer(store).rebalance()
        assert report.blocks_moved > 0
        assert not any(k[0] == "tbl" for k in store._decode_cache)
        assert store.query(SQL)[0].equals(ref)

    def test_fusion_degraded_cache_evicted(self):
        store = _system(FusionStore)
        # Seed the degraded-bin cache with a sentinel for a data block
        # of the object, then migrate: the entry must not survive.
        bid = store.objects["tbl"].stripes[0].data_block_ids[0]
        store._degraded_bin_cache[bid] = np.zeros(4, dtype=np.uint8)
        store.cluster.add_node()
        Rebalancer(store).rebalance()
        assert bid not in store._degraded_bin_cache


def test_rebalancer_requires_membership():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    store = FusionStore(cluster, StoreConfig(size_scale=100.0))
    with pytest.raises(RuntimeError):
        Rebalancer(store)


def test_fsck_skips_membership_record():
    """The replicated ``__membership__`` record must not be reported as a
    dangling metadata replica."""
    store = _system(FusionStore)
    store.cluster.drain_node(3)  # bump the epoch, republish the record
    report = fsck(store)
    assert report.clean, report.summary()
    assert not report.dangling_meta
