"""Cluster-wide consistency checking (fsck) and WAL-replay recovery.

Two offline, metadata-plane entry points shared by both stores:

:func:`fsck` walks the full invariant triangle — blocks on disk vs.
location/placement maps vs. materialized metadata replicas — and reports
every violation: blocks an object expects but an alive holder lost,
orphan blocks no object or in-flight operation explains, location-map
entries pointing at the wrong node or outside their block, stored bytes
failing their Put-time CRC, objects whose metadata replicas have fallen
below quorum, replicas for objects that no longer exist, and unresolved
write-ahead-log operations that recovery still needs to replay.

:func:`recover` is that replay.  It reconstructs the cluster-wide log
from surviving nodes (records are mirrored to each object's metadata
replica holders, so a dead coordinator does not take the log with it)
and resolves every operation the crash left open:

* a **committed Put** whose object never became visible rolls *forward*:
  the newest surviving metadata replica (quorum read, highest epoch
  wins) is reinstalled;
* an **uncommitted Put** rolls *back*: every block its intent named is
  garbage-collected and half-written replicas are dropped;
* a **Delete** with a logged intent is durable and is *redone* — every
  stage of the delete protocol is idempotent.

Both functions run outside the simulation: like the seed's Delete, they
are metadata-plane operations that move no simulated bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.location_map import chunk_checksum
from repro.core.wal import WalRecord, pending_operations


@dataclass
class FsckReport:
    """Every invariant violation one fsck pass found."""

    objects_checked: int = 0
    blocks_checked: int = 0
    #: Expected blocks an *alive* holder does not have.
    missing_blocks: list[tuple[str, str]] = field(default_factory=list)
    #: Expected blocks on dead nodes (repair's job, not an inconsistency).
    unreachable_blocks: list[tuple[str, str]] = field(default_factory=list)
    #: (node_id, block_id) stored blocks nothing references.
    orphan_blocks: list[tuple[int, str]] = field(default_factory=list)
    orphan_bytes: int = 0
    #: Location-map entries inconsistent with the placement they cite.
    dangling_locations: list[tuple[str, str]] = field(default_factory=list)
    #: (object, block) whose stored bytes fail the Put-time CRC.
    checksum_mismatches: list[tuple[str, str]] = field(default_factory=list)
    #: Objects with fewer fresh (current-epoch) replicas than quorum.
    under_replicated: list[str] = field(default_factory=list)
    #: (object, node_id) alive replicas at an old epoch (informational:
    #: a quorum of fresh replicas still exists or the object would also
    #: appear in ``under_replicated``).
    stale_replicas: list[tuple[str, int]] = field(default_factory=list)
    #: (node_id, object) replicas for objects nothing explains.
    dangling_meta: list[tuple[int, str]] = field(default_factory=list)
    #: WAL operations recovery still needs to resolve.
    pending_ops: list[int] = field(default_factory=list)
    #: Committed Puts whose object never became visible (crash between
    #: commit and install); recovery rolls these forward.
    unapplied_commits: list[str] = field(default_factory=list)
    #: (object, block_id) in-flight rebalance moves a crash left open.
    #: *Pending*, not orphaned: the registered intent explains the extra
    #: copy, and recovery (or the next rebalance run) resolves it.
    pending_migrations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.missing_blocks
            or self.orphan_blocks
            or self.dangling_locations
            or self.checksum_mismatches
            or self.under_replicated
            or self.dangling_meta
            or self.pending_ops
            or self.unapplied_commits
            or self.pending_migrations
        )

    def summary(self) -> str:
        problems = {
            "missing": len(self.missing_blocks),
            "orphans": len(self.orphan_blocks),
            "dangling-loc": len(self.dangling_locations),
            "crc": len(self.checksum_mismatches),
            "under-replicated": len(self.under_replicated),
            "dangling-meta": len(self.dangling_meta),
            "pending-ops": len(self.pending_ops),
            "unapplied": len(self.unapplied_commits),
            "pending-migrations": len(self.pending_migrations),
        }
        if self.clean:
            return f"clean ({self.objects_checked} objects, {self.blocks_checked} blocks)"
        return ", ".join(f"{k}={v}" for k, v in problems.items() if v)


@dataclass
class RecoveryReport:
    """What one WAL replay did."""

    rolled_forward: list[str] = field(default_factory=list)  # reinstalled puts
    rolled_back: list[str] = field(default_factory=list)  # aborted puts
    redone_deletes: list[str] = field(default_factory=list)
    #: Committed objects with no surviving metadata replica to reinstall.
    lost_objects: list[str] = field(default_factory=list)
    superseded_ops: int = 0  # older unresolved intents a newer op replaced
    orphan_blocks_gcd: int = 0
    orphan_bytes_gcd: int = 0
    #: Crash-interrupted rebalance moves rolled to a safe state
    #: (uncommitted copies dropped, committed moves GC-finished).
    migrations_resolved: int = 0
    #: Stale or missing metadata replicas re-pushed at the current epoch
    #: (anti-entropy convergence after partitions heal).
    meta_replicas_synced: int = 0
    wall_seconds: float = 0.0

    @property
    def resolved_ops(self) -> int:
        return (
            len(self.rolled_forward)
            + len(self.rolled_back)
            + len(self.redone_deletes)
            + self.superseded_ops
        )


# -- fsck -------------------------------------------------------------------


def fsck(store) -> FsckReport:
    """Check every invariant the store family maintains (see module doc)."""
    cluster = store.cluster
    if cluster.sim.tracer is not None:
        cluster.sim.tracer.instant("fsck.start", cat="meta")
    report = FsckReport()
    referenced: set[str] = set()
    all_names: set[str] = set()

    for name, obj in sorted(store.objects.items()):
        report.objects_checked += 1
        all_names.add(name)

        # Blocks-on-disk leg: every block the stripe records expect is
        # reachable + intact.
        for placement in obj.stripes:
            for nid, bid, _size, want in placement.stored_blocks():
                referenced.add(bid)
                report.blocks_checked += 1
                node = cluster.node(nid)
                if not node.alive:
                    report.unreachable_blocks.append((name, bid))
                    continue
                if not node.has_block(bid):
                    report.missing_blocks.append((name, bid))
                    continue
                if want and store.config.checksum_verify:
                    if chunk_checksum(node.peek_block(bid)) != want:
                        report.checksum_mismatches.append((name, bid))

        # Location-map leg (a layout hook: a fixed object's stripe
        # records *are* its map and were walked above).
        report.dangling_locations.extend(
            (name, problem) for problem in obj.dangling_locations()
        )

        # Metadata-replica leg: a quorum of alive holders must carry the
        # current epoch.
        replicas = obj.replica_nodes
        fresh = 0
        for nid in replicas:
            node = cluster.node(nid)
            if not node.alive:
                continue
            rep = node.get_meta(name)
            if rep is None or rep.store_kind != obj.kind:
                continue
            if rep.epoch == obj.meta_epoch:
                fresh += 1
            else:
                report.stale_replicas.append((name, nid))
        if replicas and fresh < len(replicas) // 2 + 1:
            report.under_replicated.append(name)

    # WAL leg: unresolved operations and committed-but-invisible puts.
    # One namespace, one timeline: the last operation on a name decides,
    # whichever layout each operation used.
    records = cluster.wal_records()
    pending = pending_operations(records)
    report.pending_ops = sorted(pending)
    intents = {r.op_id: r for r in records if r.phase == "intent"}
    committed = {r.op_id for r in records if r.phase == "commit"}
    last_by_object: dict[str, WalRecord] = {}
    for op_id in sorted(intents):
        rec = intents[op_id]
        last_by_object[rec.object_name] = rec
    for name, rec in sorted(last_by_object.items()):
        if rec.op == "put" and rec.op_id in committed and name not in all_names:
            report.unapplied_commits.append(name)

    # Orphan scan: stored blocks neither a live object nor an open (or
    # not-yet-applied) operation explains.
    wal_blocks = {
        bid
        for rec in intents.values()
        if rec.op_id in pending or rec.object_name in report.unapplied_commits
        for _nid, bid in rec.blocks
    }
    explained_meta = all_names | {
        name
        for name, rec in last_by_object.items()
        if rec.op_id in pending or name in report.unapplied_commits
    }
    for node in cluster.nodes:
        if not node.alive:
            continue
        for bid in node.block_ids():
            if bid not in referenced and bid not in wal_blocks:
                report.orphan_blocks.append((node.node_id, bid))
                report.orphan_bytes += node.block_size(bid)
        for name in node.meta_names():
            # Reserved ("__"-prefixed) names are cluster-level records —
            # the membership record, not object metadata.
            if name.startswith("__"):
                continue
            if name not in explained_meta:
                report.dangling_meta.append((node.node_id, name))

    # In-migration leg: rebalance moves whose intent is still registered.
    # The extra copy each one explains is *pending* — recovery (or the
    # next rebalance run) rolls it to a safe state — never an orphan.
    report.pending_migrations = sorted(
        (entry.object_name, bid) for bid, entry in cluster.migrations.items()
    )
    if cluster.sim.tracer is not None:
        cluster.sim.tracer.instant(
            "fsck.done", cat="meta",
            objects=report.objects_checked, blocks=report.blocks_checked,
            clean=report.clean,
        )
    return report


# -- recovery ---------------------------------------------------------------


def _quorum_read(cluster, kind: str, name: str, replica_nodes):
    """Newest surviving metadata replica for ``name`` (epoch wins)."""
    best = None
    for nid in replica_nodes:
        node = cluster.node(nid)
        if not node.alive:
            continue
        rep = node.get_meta(name)
        if rep is None or rep.store_kind != kind:
            continue
        if best is None or rep.epoch > best.epoch:
            best = rep
    return best


def _gc_blocks(cluster, intent: WalRecord) -> tuple[int, int]:
    """Drop every reachable block an intent named; (count, bytes)."""
    dropped = 0
    freed = 0
    sizes = intent.block_sizes or (0,) * len(intent.blocks)
    for (nid, bid), size in zip(intent.blocks, sizes):
        node = cluster.node(nid)
        if node.alive and node.has_block(bid):
            node.drop_block(bid)
            dropped += 1
            freed += size or 0
    return dropped, freed


def _log_outcome(store, cluster, intent: WalRecord, phase: str) -> None:
    """Append a recovery-outcome record (``seq=2``) so the next replay
    (and fsck) sees the operation as resolved."""
    coordinator = cluster.coordinator_for(intent.object_name)
    store._log_outcome(coordinator, intent, phase, seq=2)


def recover(store) -> RecoveryReport:
    """Replay the cluster-wide WAL and resolve every open operation."""
    started = time.perf_counter()
    cluster = store.cluster
    if cluster.sim.tracer is not None:
        cluster.sim.tracer.instant("recover.start", cat="meta")
    report = RecoveryReport()
    records = cluster.wal_records()
    intents = {r.op_id: r for r in records if r.phase == "intent"}
    resolved = {r.op_id for r in records if r.phase in ("commit", "abort")}
    committed = {r.op_id for r in records if r.phase == "commit"}

    # The last operation on each name decides its final state, whichever
    # layout each operation used; older unresolved intents were
    # superseded (their blocks now belong to the newer incarnation) and
    # are only marked resolved.
    by_object: dict[str, list[WalRecord]] = {}
    for op_id in sorted(intents):
        rec = intents[op_id]
        by_object.setdefault(rec.object_name, []).append(rec)

    for name, ops in sorted(by_object.items()):
        last = ops[-1]
        for rec in ops[:-1]:
            if rec.op_id not in resolved:
                _log_outcome(store, cluster, rec, "abort")
                report.superseded_ops += 1

        if last.op == "put":
            if last.op_id in committed:
                if name not in store.objects:
                    replica = _quorum_read(
                        cluster, last.store_kind, name, last.replica_nodes
                    )
                    if replica is not None:
                        store._install_from_replica(replica)
                        report.rolled_forward.append(name)
                    else:
                        report.lost_objects.append(name)
            elif last.op_id not in resolved:
                # Uncommitted Put: roll back.  GC every block the intent
                # named and drop half-written metadata replicas.
                dropped, freed = _gc_blocks(cluster, last)
                report.orphan_blocks_gcd += dropped
                report.orphan_bytes_gcd += freed
                for nid in last.replica_nodes:
                    node = cluster.node(nid)
                    if node.alive:
                        node.drop_meta(name)
                store.objects.pop(name, None)
                store._invalidate_object_caches(name)
                _log_outcome(store, cluster, last, "abort")
                report.rolled_back.append(name)
        else:  # delete: a logged intent is durable -> redo (idempotent)
            if last.op_id in resolved and last.op_id not in committed:
                pass  # explicitly aborted: nothing to redo
            else:
                incomplete = last.op_id not in committed
                if name in store.objects:
                    del store.objects[name]
                    store._invalidate_object_caches(name)
                for nid in last.replica_nodes:
                    node = cluster.node(nid)
                    if node.alive:
                        node.drop_meta(name)
                dropped, freed = _gc_blocks(cluster, last)
                if incomplete:
                    report.orphan_blocks_gcd += dropped
                    report.orphan_bytes_gcd += freed
                    _log_outcome(store, cluster, last, "commit")
                    report.redone_deletes.append(name)

    # Rebalance leg: roll crash-interrupted block migrations to a safe
    # state (copy-then-republish-then-GC leaves either a disposable
    # destination copy or an un-GC'd source copy; both are idempotent to
    # resolve here).
    from repro.core.rebalance import resolve_pending_migrations

    report.migrations_resolved = resolve_pending_migrations(store)

    # Anti-entropy: converge every alive holder onto each object's
    # current (majority) epoch.  Partition-healed minority holders may
    # still carry stale lower-epoch snapshots that a later quorum read
    # could only outvote, not erase; pushing the newest snapshot here
    # makes recover() idempotent against re-partitioning.
    for name in sorted(store.objects):
        report.meta_replicas_synced += store._sync_meta_replicas(store.objects[name])

    report.wall_seconds = time.perf_counter() - started
    if cluster.sim.tracer is not None:
        cluster.sim.tracer.instant(
            "recover.done", cat="meta",
            resolved=report.resolved_ops,
            rolled_forward=len(report.rolled_forward),
        )
    return report
