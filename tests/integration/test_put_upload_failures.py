"""A streamed Put that fails mid-upload fails cleanly.

Three failures cut a Put while the client is still uploading: the
client's link to the coordinator is severed, the coordinator crashes,
or one stripe loses more than ``n - k`` blocks.  In each, for both
layouts, the Put raises a typed :class:`LinkDown` before commit and
``StoreKernel._write_stripes`` cancels the upload, the encode lane and
every write in flight: after the failure no upload piece lands, no
byte moves, no block lands, and the heap drains.
``recover()`` then rolls the Put back with no orphan block, fsck is
clean, and a re-Put's Get is byte-identical.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, FaultEvent, FaultInjector, LinkDown, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import write_table
from tests.conftest import make_small_table

DATA = write_table(make_small_table(num_rows=2500, seed=77), row_group_rows=500)

#: As in test_put_pipeline: several stripes, each upload piece
#: milliseconds long.
CONFIG = {"size_scale": 10_000.0, "storage_overhead_threshold": 0.1, "block_size": 30_000_000}

LAYOUTS = pytest.mark.parametrize(
    "store_cls", [FusionStore, BaselineStore], ids=["fusion", "baseline"]
)


def _system(store_cls):
    """A store whose client pieces are logged as ``(arrival, nbytes)``."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    store = store_cls(cluster, StoreConfig(**CONFIG))
    network, pieces = cluster.network, []
    for method in ("transfer", "stream_transfer"):

        def logged(src, dst, nbytes, query=None, _send=getattr(network, method), **kw):
            yield from _send(src, dst, nbytes, query, **kw)
            if src is cluster.client:
                pieces.append((sim.now, nbytes))

        setattr(network, method, logged)
    return store, cluster, pieces


def _mid_upload(store_cls):
    """From a fault-free twin: half-way through the upload, and the
    coordinator's id."""
    store, cluster, pieces = _system(store_cls)
    store.put("tbl", DATA)
    coordinator = cluster.coordinator_for("tbl").node_id
    return (pieces[0][0] + pieces[-1][0]) / 2, coordinator


def _tbl_blocks(cluster):
    return {(node.node_id, bid) for node in cluster.nodes for bid in node.block_ids()
            if bid.startswith("tbl/")}


def _fails_cleanly(store, cluster, pieces, heal):
    """Run the Put into its failure, drain the heap, heal and recover."""
    sim = cluster.sim
    with pytest.raises(LinkDown):
        store.put("tbl", DATA)
    failed_at, moved, landed = sim.now, cluster.network.total_bytes, _tbl_blocks(cluster)
    assert "tbl" not in store.objects
    assert not any(r.phase == "commit" for r in cluster.wal_records())
    # The upload stopped at the failure.
    assert all(at <= failed_at for at, _n in pieces)
    assert sum(n for _at, n in pieces) < store.config.scaled(len(DATA))

    sim.run()
    assert not sim._heap
    assert cluster.network.total_bytes == moved
    assert _tbl_blocks(cluster) == landed
    for node in cluster.nodes:
        for resource in (node.cpu, node.disk.device, node.endpoint.egress, node.endpoint.ingress):
            assert resource.in_use == 0

    heal()
    assert "tbl" in store.recover().rolled_back
    assert not _tbl_blocks(cluster)
    assert store.fsck().clean
    store.put("tbl", DATA)
    assert store.get("tbl") == DATA


@LAYOUTS
def test_client_link_severed_mid_upload(store_cls):
    at, coordinator = _mid_upload(store_cls)
    store, cluster, pieces = _system(store_cls)
    network, sim = cluster.network, cluster.sim
    name = cluster.node(coordinator).endpoint.name

    def sever():
        yield sim.timeout(at)
        network.set_link("client", name, severed=True)

    sim.process(sever())
    _fails_cleanly(store, cluster, pieces, heal=network.links.clear)


@LAYOUTS
def test_coordinator_crash_mid_upload(store_cls):
    at, coordinator = _mid_upload(store_cls)
    store, cluster, pieces = _system(store_cls)
    FaultInjector(cluster, [FaultEvent(at=at, kind="crash", node_id=coordinator)]).install()
    _fails_cleanly(store, cluster, pieces, heal=lambda: cluster.restore_node(coordinator))


@LAYOUTS
def test_stripe_losing_more_than_parity_mid_upload(store_cls):
    # Cut the coordinator from n - k + 1 holders of the stripe written
    # first: its refusals end the Put before the later stripes upload.
    twin, twin_cluster, _pieces = _system(store_cls)
    twin.put("tbl", DATA)
    coordinator = twin_cluster.coordinator_for("tbl").node_id
    first = min(twin.objects["tbl"].stripes, key=lambda p: (sum(p.data_sizes), p.stripe_id))
    holders = [nid for nid, _bid, _size, _crc in first.stored_blocks() if nid != coordinator]
    cut = holders[: twin.config.code.parity + 1]

    store, cluster, pieces = _system(store_cls)
    network = cluster.network
    here = cluster.node(coordinator).endpoint.name
    for nid in cut:
        there = cluster.node(nid).endpoint.name
        network.set_link(here, there, severed=True)
        network.set_link(there, here, severed=True)
    _fails_cleanly(store, cluster, pieces, heal=network.links.clear)
