"""A Put streams: each data block leaves the coordinator as its bytes arrive.

The client uploads the object in pieces over one RPC: first the bytes
in no data block (Fusion's header and footer, which FAC's footer parse
needs), then one piece per data block in write order - stripes in
ascending data bytes, ties by stripe id.  The code is systematic, so
``StoreKernel._write_stripes`` issues a data block's write the moment
its piece lands, and charges the block's share of its stripe's encode
then; only the stripe's parity writes wait for its last share.  Both
layouts go through that one write path: Fusion's FAC stripes and the
baseline's fixed blocks.  These checks hold the order and the upload's
byte count, bound a fault-free Put by the overlap of the upload with
the coordinator's egress, and crash a parity holder inside a stripe's
last encode share: the network refuses the writes to the dead node.
"""

import contextlib

import pytest

from repro.cluster import Cluster, ClusterConfig, FaultEvent, FaultInjector, LinkDown, Simulator
from repro.core import (
    BaselineStore,
    CoordinatorCrash,
    DeadlineExceeded,
    FusionStore,
    RemoteOpError,
    RepairManager,
    StoreConfig,
)
from repro.core.wal import QuorumLost
from repro.format import write_table
from tests.conftest import make_small_table

DATA = write_table(make_small_table(num_rows=2500, seed=77), row_group_rows=500)

#: Paper-scale sizes large enough that bytes, not per-RPC costs, decide a
#: Put's time: a block's encode share is milliseconds.  The 3,000-byte
#: real blocks split the baseline's object into three stripes; Fusion's
#: FAC layout has four.
CONFIG = {"size_scale": 10_000.0, "storage_overhead_threshold": 0.1, "block_size": 30_000_000}

#: The typed refusals a Put may raise instead of committing.
TYPED_ERRORS = (CoordinatorCrash, DeadlineExceeded, LinkDown, QuorumLost, RemoteOpError)

LAYOUTS = pytest.mark.parametrize(
    "store_cls", [FusionStore, BaselineStore], ids=["fusion", "baseline"]
)


def _system(store_cls):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    return store_cls(cluster, StoreConfig(**CONFIG)), cluster


def _recorded_put(store_cls, monkeypatch):
    """Run one fault-free Put with its device calls recorded.

    Returns the store, its report, the coordinator's compute charges as
    ``(start, end)`` pairs, the time each block write was issued onto the
    coordinator's egress (by block id), the client's upload pieces as
    ``(method, nbytes, arrival)`` in order, and every other network
    transfer as ``(src, dst, nbytes)``.
    """
    store, cluster = _system(store_cls)
    sim, network = cluster.sim, cluster.network
    coordinator = cluster.coordinator_for("tbl")
    charges, issued, pieces, transfers = [], {}, [], []

    compute = coordinator.compute

    def timed_compute(seconds, query=None):
        start = sim.now
        yield from compute(seconds, query)
        charges.append((start, sim.now))

    write_block = store._write_block

    def timed_write(coord, node_id, block_id, payload):
        issued[block_id] = sim.now
        return (yield from write_block(coord, node_id, block_id, payload))

    def recorded(method):
        send = getattr(network, method)

        def counted(src, dst, nbytes, query=None, **kw):
            yield from send(src, dst, nbytes, query, **kw)
            if src is cluster.client:
                pieces.append((method, nbytes, sim.now))
            elif src is not dst:
                transfers.append((src, dst, nbytes))

        return counted

    monkeypatch.setattr(coordinator, "compute", timed_compute)
    monkeypatch.setattr(store, "_write_block", timed_write)
    for method in ("transfer", "stream_transfer"):
        monkeypatch.setattr(network, method, recorded(method))
    report = store.put("tbl", DATA)
    return store, report, charges, issued, pieces, transfers


def _write_order(store):
    """Every non-empty data block as ``(placement, block id, size)``, in
    the kernel's write order: stripes in ascending data bytes, ties by
    stripe id."""
    stripes = sorted(store.objects["tbl"].stripes, key=lambda p: (sum(p.data_sizes), p.stripe_id))
    return [
        (placement, bid, size)
        for placement in stripes
        for bid, size in zip(placement.data_block_ids, placement.data_sizes)
        if size
    ]


def _encode_shares(store, charges):
    """Each data block's encode share, in write order: the Put's last
    coordinator compute calls (Fusion's footer parse comes before them)."""
    blocks = _write_order(store)
    shares = charges[-len(blocks) :]
    decode_bps = store.cluster.coordinator_for("tbl").cpu_config.decode_bps
    for (_placement, _bid, size), (start, end) in zip(blocks, shares):
        assert end - start == pytest.approx(size * store.config.size_scale / decode_bps)
    return list(zip(blocks, shares))


@LAYOUTS
def test_upload_pieces_sum_to_the_scaled_object(store_cls, monkeypatch):
    store, _report, _charges, _issued, pieces, _transfers = _recorded_put(store_cls, monkeypatch)
    scaled = store.config.scaled
    sizes = [size for _placement, _bid, size in _write_order(store)]
    sizes.insert(0, len(DATA) - sum(sizes))
    assert [method for method, _n, _t in pieces] == (
        ["transfer"] + ["stream_transfer"] * (len(sizes) - 1)
    )
    sent, expected = 0, []
    for size in sizes:
        expected.append(scaled(sent + size) - scaled(sent))
        sent += size
    assert [nbytes for _m, nbytes, _t in pieces] == expected
    assert sum(expected) == scaled(len(DATA))


@LAYOUTS
def test_data_blocks_leave_while_the_parity_is_encoded(store_cls, monkeypatch):
    """Each data block's write is issued the moment its piece lands, and
    its encode share starts no earlier; a stripe's parity writes wait
    for its last share."""
    store, report, charges, issued, pieces, _transfers = _recorded_put(store_cls, monkeypatch)
    assert report.num_stripes >= 3
    shares = _encode_shares(store, charges)
    assert len(pieces) == 1 + len(shares)
    last_share = {}
    for (_m, _n, arrival), ((placement, bid, _size), (start, end)) in zip(pieces[1:], shares):
        assert issued[bid] == arrival, bid
        assert start >= arrival, bid
        last_share[placement.stripe_id] = end
    for placement in store.objects["tbl"].stripes:
        parity = [issued[bid] for bid in placement.parity_block_ids]
        assert min(parity) == last_share[placement.stripe_id], placement.stripe_id


@LAYOUTS
def test_put_is_bound_by_client_transfer_and_coordinator_egress(store_cls, monkeypatch):
    """A streamed Put cannot end before the upload plus the last
    stripe's drain (its last encode share, then its parity and the
    metadata round through the egress), nor before the first piece plus
    the coordinator's whole egress.  Above the larger of the two it may
    spend the first data block's upload (the egress idles until it
    lands), the last block's disk write and each write's fixed cost
    (RPC set-up, half a round trip and one disk access)."""
    store, report, charges, _issued, pieces, transfers = _recorded_put(store_cls, monkeypatch)
    cluster = store.cluster
    net = cluster.network.config
    disk = cluster.node(0).disk.config
    coordinator = cluster.coordinator_for("tbl")
    per_rpc_s = net.rtt_s / 2 + net.rpc_overhead_s
    egress = [n for src, _dst, n in transfers if src is coordinator.endpoint]

    upload_s = sum(n for _m, n, _t in pieces) / net.bandwidth_bps + per_rpc_s
    first_piece_s = pieces[0][1] / net.bandwidth_bps + per_rpc_s
    (last_stripe, _bid, _size), (start, end) = _encode_shares(store, charges)[-1]
    parity_bytes = sum(
        store.config.scaled(last_stripe.max_size)
        for nid in last_stripe.node_ids[store.config.code.k :]
        if nid != coordinator.node_id
    )
    block_bytes = sum(
        store.config.scaled(size)
        for p in store.objects["tbl"].stripes
        for nid, _bid, size, _crc in p.stored_blocks()
        if nid != coordinator.node_id
    )
    metadata_bytes = sum(egress) - block_bytes
    drain_s = (end - start) + (parity_bytes + metadata_bytes) / net.bandwidth_bps
    bound_s = max(upload_s + drain_s, first_piece_s + sum(egress) / net.bandwidth_bps)

    largest = max(size for p in store.objects["tbl"].stripes for size in p.data_sizes)
    last_write_s = disk.access_latency_s + store.config.scaled(largest) / disk.bandwidth_bps
    first_block_s = pieces[1][1] / net.bandwidth_bps
    allowance_s = first_block_s + last_write_s + len(egress) * (per_rpc_s + disk.access_latency_s)
    gap_s = report.simulated_put_seconds - bound_s
    assert 0 <= gap_s < allowance_s


def _parity_crash_window(store_cls, monkeypatch):
    """From a twin's Put (same seeds, same placement and timing): the
    middle of the first-written stripe's last encode share, a holder of
    that stripe's parity that is not the coordinator, and the blocks the
    twin issued to that holder before then."""
    store, _report, charges, issued, _pieces, _transfers = _recorded_put(store_cls, monkeypatch)
    shares = _encode_shares(store, charges)
    placement = shares[0][0][0]
    start, end = next(
        window for (p, _bid, _size), window in reversed(shares) if p is placement
    )
    at = (start + end) / 2
    coordinator = store.cluster.coordinator_for("tbl").node_id
    k = store.config.code.k
    victim = next(nid for nid in placement.node_ids[k:] if nid != coordinator)
    before = {
        bid for p in store.objects["tbl"].stripes
        for nid, bid, _size, _crc in p.stored_blocks()
        if nid == victim and issued[bid] < at
    }
    return at, victim, before


@LAYOUTS
def test_parity_holder_crash_during_the_encode(store_cls, monkeypatch):
    at, victim, before = _parity_crash_window(store_cls, monkeypatch)
    monkeypatch.undo()
    store, cluster = _system(store_cls)
    FaultInjector(cluster, [FaultEvent(at=at, kind="crash", node_id=victim)]).install()
    committed = False
    with contextlib.suppress(*TYPED_ERRORS):
        store.put("tbl", DATA)
        committed = True
    assert not cluster.node(victim).alive
    # Only blocks sent before the victim died can be on it: the parity
    # of the stripe whose encode it died in is not.
    assert set(cluster.node(victim).block_ids()) <= before

    store.recover()
    if committed:
        RepairManager(store).repair_node(victim)
    else:
        assert "tbl" not in store.objects
        store.put("tbl", DATA)
    assert store.fsck().clean
    assert store.get("tbl") == DATA
