"""Golden identity for the durability-and-repair paths.

``test_golden_identity.py`` pins Put, queries, a degraded Get, repair and
scrub.  This file pins what it does not reach: one seeded scenario per
store with the WAL, membership and read-repair on, walking migration
(plain copy and reconstruct), a node rebuild by the repair pass, a
minority partition during repair (typed ``QuorumLost`` deferral, then heal), a ``CoordinatorCrash``
at two Put, a migrate and a Delete crash point each followed by
``recover()``, and - on the Fusion instance - an object forced through
the fixed-block fallback, so a FAC and a fixed-layout object share one
namespace through every step.  The walks visit objects in name order;
the scenario's names (``big`` < ``late`` < ``small``) also sort FAC
before fixed, the order in which the digests were pinned.

Four digests per store (``repro.check.digest`` of ``repro.check``'s rows
where it has them): the scheduled-event stream, the WAL records, the
per-object placement state after every step and every report the steps
returned.  They
were computed on ed77cf4, the parent of the store-kernel refactor, and
are its definition of "same behaviour": a change that moves one is a
model change, re-pins it and says so in CHANGES.md.  The scenario crosses
no severed link while it reconstructs, so the reachability rule of a
migration's reconstruction is covered by ``test_partition_tolerance.py``
instead of by these digests.
"""

import dataclasses

import pytest

from repro.check import digest, object_state, wal_row
from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultInjector,
    Simulator,
    record_schedule,
)
from repro.core import (
    BaselineStore,
    CoordinatorCrash,
    FusionStore,
    Rebalancer,
    RepairManager,
    StoreConfig,
)
from repro.core.baseline_store import StoredFixedObject
from repro.format import write_table
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM {} WHERE qty < 5"

#: store -> (stream, WAL records, object state, step reports) on ed77cf4.
#: The baseline's stream, state and reports were re-pinned once, by the fix
#: that makes its stripe repair pick each rescue node against the stripe's
#: *current* holders (the parent chose against a snapshot taken before the
#: loop and stacked three blocks of one stripe on node 3 under the
#: partition step); Fusion's twin always did.  Fusion's stream and reports
#: were re-pinned once, by the declared model change that replaced the
#: snappy-greedy bitmap wire form with the container-chosen frame of
#: ``repro.sql.bitmap`` (the scenario's queries carry bitmaps of a few
#: bytes' different weight); its WAL records and placement state did not
#: move, and no baseline digest did.  Both stores' streams and reports
#: were re-pinned by the declared model change that charges a degraded
#: gather once per (request, stripe): the degraded Gets finish sooner, so
#: every later step starts earlier (the reports differ only in their
#: ``started`` / ``finished`` times); WAL records and placement state did
#: not move.  Both stores' streams, placement state and reports were
#: re-pinned by the fix that makes stripe repair check metadata quorum
#: before its first rewrite: the parent rewrote the blocks under the
#: partition and then raised ``QuorumLost``, so "repair after heal" found
#: no stripe on the victim and never republished; now the deferred pass
#: leaves the stripes alone and the post-heal pass repairs and republishes
#: them, and every later rescue and migration follows.  WAL records did
#: not move.  Both stores' streams and reports were re-pinned by the
#: declared model change in which a degraded Get reads the survivors of
#: a stripe it reconstructs only through that stripe's gather, and a
#: repair pass answers the stripe's read-repair hint: the Gets finish
#: sooner, and the read-repair drains examine only the stripes no repair
#: pass answered (the last one, none).  WAL records and placement state
#: did not move.  Fusion's stream and reports were re-pinned by the
#: declared model change that charges its Put's metadata round and footer
#: parse at real size, not times ``size_scale``: every Put ends sooner, so
#: every later step starts earlier; WAL records and placement state did
#: not move, and no baseline digest did (its Put ships no metadata).
#: Both stores' streams and reports were re-pinned by the declared model
#: change that gathers every lost stripe of a degraded Get in the Get's
#: one scatter-gather round: the degraded Gets open fewer exchanges and
#: end at other times, so every later step starts at another time; WAL
#: records and placement state did not move.
#: Both stores' streams and reports were re-pinned by the declared model
#: change of the data-first write: a Put spawns each stripe's data-block
#: writes before the coordinator's encode charge and the parity writes
#: after it, so every Put ends sooner and every later step starts
#: earlier; WAL records and placement state did not move.
#: Both stores' streams and reports were re-pinned by the declared model
#: change of the streamed Put: the client uploads in pieces and each
#: data block is written as its bytes arrive, so every Put ends sooner
#: and every later step starts earlier; WAL records and placement state
#: did not move.
#: Both stores' streams, placement state and reports were re-pinned when
#: the node-rebuild step moved from the store's own rebuild path to
#: ``RepairManager.repair_node``, the repair pass every other step uses:
#: it gathers at the coordinator, charges the decode, rewrites through
#: the coordinator and reports a ``RepairReport``, so the rescue nodes,
#: the step's duration and every later event moved.  WAL records did not.
#: Both stores' streams, placement state and reports were re-pinned by the
#: declared model change that repairs in rounds
#: (``REPAIR_ROUND_STRIPES``): one gather exchange per (source node,
#: coordinator), one write per (coordinator, holder) and one republish
#: per object per round, and scrub gathers an object in one round.  Every
#: repair and scrub step ends sooner, so every later step starts earlier;
#: the placement state moved only in its metadata epochs (one republish
#: per object per round, not per stripe) - every block sits on the node it
#: sat on before.  WAL records did not move.
GOLDEN = {
    "fusion": (
        "aeddae9038e40365271d0af6154d377843ad7f18c40e1af7b09a32f53cc44625",
        "ddb9c54427c1211b7c643c5e7de63f30777ead712671bec629fbb45a805f8127",
        "bfb60028ac80c3a3a871fffff484890fe8d3681d3d3246c5fc54d983d040dfcc",
        "4a01542cbd73565d565c3a8c7eadd26846c081982282037ae5bd19ab42d0477c",
    ),
    "baseline": (
        "3195d06b869b90deb2adc4a121f1137d4df48fb39db275e389db6c10252d950e",
        "d14fa0088f41003b45d457fd9e53321a80e1b84e4ba391d219356251b2a10d07",
        "e430acee36b90e3e46ded771a306e57f4e1284caabd99665cb0208e8b01a6147",
        "32213c63efacde000ad2ffad787d41601b33c723f016c739ea2ad44cb2164201",
    ),
}


def _holders(obj, stripe_id: int) -> list:
    """Stripe-aligned ``(block_id, node_id)`` pairs, ``None`` at the
    never-written trailing positions of a partial fixed stripe."""
    p = obj.stripes[stripe_id]
    return [None if nid is None else (bid, nid) for bid, nid in zip(p.block_ids, p.node_ids)]


def _fields(report) -> dict:
    """A report's fields without its host-clock readings; finding lists
    are sets of findings, so their order is canonicalised."""
    out = dataclasses.asdict(report)
    for host_clock in ("wall_seconds", "layout_build_seconds"):
        out.pop(host_clock, None)
    return {k: sorted(v) if isinstance(v, list) else v for k, v in out.items()}


def _restore_dead(cluster) -> None:
    for node in cluster.nodes:
        if not node.alive and cluster.membership.is_active(node.node_id):
            cluster.restore_node(node.node_id)


def _sever(cluster, a: int, b: int) -> None:
    a_name, b_name = cluster.node(a).endpoint.name, cluster.node(b).endpoint.name
    cluster.network.set_link(a_name, b_name, severed=True)
    cluster.network.set_link(b_name, a_name, severed=True)


def trace(store_cls) -> dict[str, list]:
    """Run the scenario; returns the four row lists the digests hash."""
    big = write_table(make_small_table(num_rows=2500, seed=77), row_group_rows=500)
    small = write_table(make_small_table(num_rows=1300, seed=5), row_group_rows=450)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=11))
    FaultInjector(cluster, [], seed=0).install()
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=150_000,
            metadata_replicas=3,
            membership_enabled=True,
        ),
    )
    steps: list = []

    def step(label: str, report) -> None:
        fields = _fields(report) if dataclasses.is_dataclass(report) else report
        steps.append((label, fields, object_state(store)))

    # Two objects; on Fusion the second blows a tiny FAC budget and is
    # stored in the fixed-block layout.
    step("put big", store.put("big", big))
    store.config.storage_overhead_threshold = 1e-9
    step("put small", store.put("small", small))
    store.config.storage_overhead_threshold = 0.1
    assert isinstance(store.objects["small"], StoredFixedObject)
    for name, data in (("big", big), ("small", small)):
        assert store.get(name) == data
        assert store.get(name, offset=1000, size=5000) == data[1000:6000]
        result, _metrics = store.query(SQL.format(name))
        step("query " + name, result.matched_rows)
        assert store.object_plan(SQL.format(name)).projection_columns == ["id", "price"]
        step("scrub " + name, store.verify_object(name))

    # Join: plain block copies to the new node.
    rebalancer = Rebalancer(store)
    cluster.add_node()
    step("join rebalance", rebalancer.rebalance())
    assert rebalancer.converged()

    # Drain a block holder that is also dead: every block it held moves
    # by erasure reconstruction at the coordinator.
    drained = _holders(store.objects["big"], 0)[0][1]
    cluster.drain_node(drained)
    cluster.fail_node(drained)
    step("drain rebalance", rebalancer.rebalance())
    cluster.remove_node(drained)
    assert rebalancer.converged()
    step("fsck after drain", store.fsck())

    # Silent corruption next to a dead node: the degraded read's first
    # reconstruction gathers the corrupt shard, fails its CRC and falls
    # back to checksum-guided recovery; scrub then repairs the block.
    manager = RepairManager(store)
    (_bid, dead), (rotten, rotten_node) = _holders(store.objects["big"], 0)[:2]
    cluster.fail_node(dead)
    cluster.node(rotten_node).corrupt_block(rotten, offset=11)
    assert store.get("big") == big
    cluster.restore_node(dead)
    scrub = store.verify_object("big")
    assert scrub.corrupt_stripes
    step("scrub corrupt", scrub)
    step("repair from scrub", manager.repair_from_scrub(scrub))
    step("read repair after corruption", manager.repair_read_reported())
    assert store.verify_object("big").clean

    # Node rebuild, then the same repair pass under a minority
    # partition: the coordinator of ``big`` is cut off from two of its
    # three metadata holders, so repairing its stripes defers with
    # QuorumLost until the partition heals.
    rebuilt = _holders(store.objects["big"], 0)[0][1]
    cluster.fail_node(rebuilt, wipe=True)
    step("repair node", manager.repair_node(rebuilt))
    cluster.restore_node(rebuilt)

    coordinator = cluster.coordinator_for("big").node_id
    holders = [nid for nid in store.objects["big"].replica_nodes if nid != coordinator]
    victim = next(
        nid
        for _bid, nid in _holders(store.objects["big"], 0)
        if nid != coordinator and nid not in holders
    )
    cluster.fail_node(victim, wipe=True)
    assert store.get("big") == big  # degraded: queues read-repairs
    assert store.get("small") == small
    step("read repairs queued", sorted(cluster.read_repairs))
    for nid in holders[:2]:
        _sever(cluster, coordinator, nid)
    deferred = manager.repair_node(victim)
    assert deferred.stripes_quorum_deferred >= 1
    step("repair under partition", deferred)
    cluster.network.links.clear()
    step("repair after heal", manager.repair_node(victim))
    step("repair object after heal", manager.repair_object("big"))
    cluster.restore_node(victim)
    step("read repair", manager.repair_read_reported())
    step("recover after heal", store.recover())

    # Crash points, each followed by recovery.
    cluster.faults.arm_crash_point("put:after-data")
    with pytest.raises(CoordinatorCrash):
        store.put("doomed", small)
    _restore_dead(cluster)
    step("recover put:after-data", store.recover())
    cluster.faults.arm_crash_point("put:after-commit")
    with pytest.raises(CoordinatorCrash):
        store.put("late", small)
    _restore_dead(cluster)
    step("recover put:after-commit", store.recover())  # rolls forward
    assert store.get("late") == small

    cluster.add_node()
    cluster.faults.arm_crash_point("migrate:after-copy")
    with pytest.raises(CoordinatorCrash):
        rebalancer.rebalance()
    step("fsck mid-migration", store.fsck())
    _restore_dead(cluster)
    step("recover migrate:after-copy", store.recover())
    step("rebalance after crash", rebalancer.rebalance())
    assert rebalancer.converged()

    cluster.faults.arm_crash_point("delete:after-meta-drop")
    with pytest.raises(CoordinatorCrash):
        store.delete("small")
    _restore_dead(cluster)
    step("recover delete:after-meta-drop", store.recover())
    # The name is free again; a crash-free Delete closes the scenario.
    step("put small again", store.put("small", small))
    step("delete small", store.delete("small"))

    final = store.fsck()
    assert final.clean, final.summary()
    step("final fsck", final)
    assert store.get("big") == big
    return {
        "stream": stream,
        "wal": [wal_row(r) for r in cluster.wal_records()],
        "objects": [s[2] for s in steps],
        "reports": [s[:2] for s in steps],
    }


def scenario(store_cls) -> tuple[str, ...]:
    rows = trace(store_cls)
    return tuple(digest(rows[key]) for key in ("stream", "wal", "objects", "reports"))


@pytest.mark.parametrize("kind", ["fusion", "baseline"])
def test_fault_scenario_hashes_to_the_values_pinned_on_the_parent(kind):
    store_cls = FusionStore if kind == "fusion" else BaselineStore
    assert scenario(store_cls) == GOLDEN[kind]
