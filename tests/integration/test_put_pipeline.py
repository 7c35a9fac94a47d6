"""A Put writes each stripe's data blocks while its parity is encoded.

The code is systematic: a stripe's data blocks are bytes the coordinator
already holds, so ``StoreKernel._write_stripes`` issues their writes
before it charges the encode, and only the parity writes wait for it.
Both layouts go through that one write path: Fusion's FAC stripes and
the baseline's fixed blocks.  These checks hold the order, bound a
fault-free Put by the client transfer plus the coordinator's egress, and
crash a parity holder inside the encode window: the network refuses the
writes to the dead node.
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
#: Put's time: a stripe's encode charge is tens of milliseconds.  The
#: 3,000-byte real blocks split the baseline's object into three stripes;
#: Fusion's FAC layout has four.
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
    coordinator's egress (by block id) and every network transfer as
    ``(src, dst, nbytes)``.
    """
    store, cluster = _system(store_cls)
    sim = cluster.sim
    coordinator = cluster.coordinator_for("tbl")
    charges, issued, transfers = [], {}, []

    compute = coordinator.compute

    def timed_compute(seconds, query=None):
        start = sim.now
        yield from compute(seconds, query)
        charges.append((start, sim.now))

    write_block = store._write_block

    def timed_write(coord, node_id, block_id, payload):
        issued[block_id] = sim.now
        return (yield from write_block(coord, node_id, block_id, payload))

    transfer = cluster.network.transfer

    def counted_transfer(src, dst, nbytes, query=None):
        if src is not dst:
            transfers.append((src, dst, nbytes))
        yield from transfer(src, dst, nbytes, query)

    monkeypatch.setattr(coordinator, "compute", timed_compute)
    monkeypatch.setattr(store, "_write_block", timed_write)
    monkeypatch.setattr(cluster.network, "transfer", counted_transfer)
    report = store.put("tbl", DATA)
    return store, report, charges, issued, transfers


def _encode_windows(store, charges):
    """Each stripe's encode charge: the Put's last ``num_stripes``
    coordinator compute calls (Fusion's footer parse comes before them)."""
    stripes = store.objects["tbl"].stripes
    windows = charges[-len(stripes) :]
    decode_bps = store.cluster.coordinator_for("tbl").cpu_config.decode_bps
    for placement, (start, end) in zip(stripes, windows):
        encode_s = sum(placement.data_sizes) * store.config.size_scale / decode_bps
        assert end - start == pytest.approx(encode_s)
    return list(zip(stripes, windows))


@LAYOUTS
def test_data_blocks_leave_while_the_parity_is_encoded(store_cls, monkeypatch):
    store, report, charges, issued, _transfers = _recorded_put(store_cls, monkeypatch)
    assert report.num_stripes >= 3
    for placement, (_start, end) in _encode_windows(store, charges):
        data = [
            issued[bid]
            for bid, size in zip(placement.data_block_ids, placement.data_sizes)
            if size
        ]
        parity = [issued[bid] for bid in placement.parity_block_ids]
        assert len(data) + len(parity) == len(list(placement.stored_blocks()))
        assert min(data) < end, placement.stripe_id
        assert min(parity) >= end, placement.stripe_id


@LAYOUTS
def test_put_is_bound_by_client_transfer_and_coordinator_egress(store_cls, monkeypatch):
    """Once no stripe's data waits for its encode, a Put lasts the client
    transfer plus the coordinator's egress, plus the last block's disk
    write and each write's fixed cost (RPC set-up, half a round trip and
    one disk access).  On a Put that encodes before it sends, stripe 0's
    whole encode charge comes on top."""
    store, report, _charges, _issued, transfers = _recorded_put(store_cls, monkeypatch)
    cluster = store.cluster
    net = cluster.network.config
    disk = cluster.node(0).disk.config
    coordinator = cluster.coordinator_for("tbl").endpoint
    client_bytes = sum(n for src, _dst, n in transfers if src is cluster.client)
    egress = [n for src, _dst, n in transfers if src is coordinator]
    per_rpc_s = net.rtt_s / 2 + net.rpc_overhead_s
    bound_s = (client_bytes + sum(egress)) / net.bandwidth_bps + per_rpc_s

    largest = max(size for p in store.objects["tbl"].stripes for size in p.data_sizes)
    last_write_s = disk.access_latency_s + store.config.scaled(largest) / disk.bandwidth_bps
    allowance_s = len(egress) * (per_rpc_s + disk.access_latency_s)
    gap_s = report.simulated_put_seconds - bound_s
    assert 0 <= gap_s < last_write_s + allowance_s


def _parity_crash_window(store_cls, monkeypatch):
    """From a twin's Put (same seeds, same placement and timing): the
    middle of stripe 0's encode charge and a holder of its parity that is
    not the coordinator."""
    store, _report, charges, _issued, _transfers = _recorded_put(store_cls, monkeypatch)
    (placement, (start, end)), *_ = _encode_windows(store, charges)
    coordinator = store.cluster.coordinator_for("tbl").node_id
    k = store.config.code.k
    victim = next(nid for nid in placement.node_ids[k:] if nid != coordinator)
    return (start + end) / 2, victim


@LAYOUTS
def test_parity_holder_crash_during_the_encode(store_cls, monkeypatch):
    at, victim = _parity_crash_window(store_cls, monkeypatch)
    monkeypatch.undo()
    store, cluster = _system(store_cls)
    FaultInjector(cluster, [FaultEvent(at=at, kind="crash", node_id=victim)]).install()
    committed = False
    with contextlib.suppress(*TYPED_ERRORS):
        store.put("tbl", DATA)
        committed = True
    assert not cluster.node(victim).alive
    # Every block of the Put meant for the victim was sent after it died.
    assert not cluster.node(victim).block_ids()

    store.recover()
    if committed:
        RepairManager(store).repair_node(victim)
    else:
        assert "tbl" not in store.objects
        store.put("tbl", DATA)
    assert store.fsck().clean
    assert store.get("tbl") == DATA
