"""Write-ahead intent log and metadata replicas for crash-consistent Put/Delete.

The paper replicates each object's chunk location map to ``k + 1`` nodes
(Section 5, Metadata Management) so metadata survives the same failures
as an RS(n, k) stripe.  This module materializes that replication and
adds the coordinator-side write-ahead log that makes Put and Delete
atomic against coordinator crashes:

``Put``:   intent record -> data blocks -> metadata replicas -> commit
``Delete``: intent record -> drop metadata replicas -> drop data blocks
           -> commit

Each stage boundary is a *named crash point*
(:data:`PUT_CRASH_POINTS` / :data:`DELETE_CRASH_POINTS`); an armed
:class:`~repro.cluster.faults.FaultInjector` kills the coordinator there
mid-operation (the operation raises :class:`CoordinatorCrash` and its
in-flight state is abandoned exactly as a real crash would leave it).
Recovery (:mod:`repro.core.fsck`) replays the log: committed operations
roll forward from surviving metadata replicas (quorum read, newest epoch
wins), uncommitted ones roll back with orphan-block garbage collection.

WAL records are mirrored to the object's metadata replica nodes at
append time so the log itself survives a dead coordinator.  Appends are
metadata-plane operations: like Delete, they move no simulated bytes
and schedule no events.  Every store keeps the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Named stages a Put can crash at (stage *completed* when the point fires).
PUT_CRASH_POINTS = (
    "put:after-intent",   # intent logged; no data written yet
    "put:after-data",     # all data/parity blocks written
    "put:after-meta",     # metadata replicas materialized
    "put:after-commit",   # commit logged; object not yet visible
)

#: Named stages a Delete can crash at.
DELETE_CRASH_POINTS = (
    "delete:after-intent",     # intent logged; object still fully present
    "delete:after-meta-drop",  # metadata replicas dropped
    "delete:after-data-drop",  # data/parity blocks dropped
    "delete:after-commit",     # commit logged
)

#: Named stages a stripe migration (background rebalance) can crash at.
#: The protocol is copy-then-republish-then-GC: until republish, reads
#: route via the old placement (source copies intact); after republish
#: the destination serves and only the source GC is outstanding.
MIGRATE_CRASH_POINTS = (
    "migrate:after-copy",       # destinations hold copies; metadata still points at sources
    "migrate:after-republish",  # metadata republished; source copies not yet GC'd
)

CRASH_POINTS = PUT_CRASH_POINTS + DELETE_CRASH_POINTS + MIGRATE_CRASH_POINTS


class CoordinatorCrash(RuntimeError):
    """The coordinator died mid-operation (at a named WAL crash point)."""


class QuorumLost(RuntimeError):
    """A metadata republish could not reach a majority of the object's
    meta-replica holders.

    Raised instead of installing a minority-epoch snapshot: a
    partition-stranded coordinator that bumped the epoch on the nodes it
    can still see would split-brain the object's metadata against the
    majority side.  Callers (repair, rebalance) treat this as a typed
    deferral — re-attempt after the partition heals."""


@dataclass(frozen=True)
class WalRecord:
    """One append-only log entry.

    ``blocks`` lists every (node_id, block_id) the operation touches so
    roll-back/redo can find orphans without any other metadata;
    ``block_sizes`` carries their real byte sizes for GC accounting.
    ``seq`` orders records within one operation (intent=0, outcome=1).
    """

    op_id: int
    seq: int
    phase: str  # "intent" | "commit" | "abort"
    op: str  # "put" | "delete"
    store_kind: str  # "fac" | "fixed"
    object_name: str
    epoch: int = 0
    blocks: tuple[tuple[int, str], ...] = ()
    block_sizes: tuple[int, ...] = ()
    replica_nodes: tuple[int, ...] = ()

    PHASES = ("intent", "commit", "abort")

    def __post_init__(self) -> None:
        if self.phase not in self.PHASES:
            raise ValueError(f"unknown WAL phase {self.phase!r}; known: {self.PHASES}")


@dataclass(frozen=True)
class MetaReplica:
    """One node's copy of an object's durable metadata.

    The ``payload`` dict stands in for the serialized location/placement
    map whose wire cost the stores charge when replicating it (the
    paper's 8 bytes per location entry, plus the footer).  Snapshots are
    taken at publish time, so a replica never aliases live state; repair
    republishes with a bumped ``epoch`` after relocating blocks, and
    recovery's quorum read takes the newest epoch it can reach.
    """

    object_name: str
    epoch: int
    store_kind: str  # "fac" | "fixed"
    payload: dict = field(compare=False)


class WalWriter:
    """Per-store WAL plumbing: op ids, record append + mirroring, crash points.

    One writer serves one store; op ids are unique within it.  Records
    are appended to the coordinator's log and mirrored to the object's
    metadata replica nodes, so :meth:`repro.cluster.cluster.Cluster.wal_records`
    can reconstruct the log from any surviving replica holder.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._next_op_id = 0

    def new_op_id(self) -> int:
        self._next_op_id += 1
        return self._next_op_id

    def append(self, coordinator, record: WalRecord) -> None:
        """Log ``record`` at the coordinator and mirror it to the
        object's replica nodes (idempotent per record)."""
        tracer = self.cluster.sim.tracer
        if tracer is not None:
            tracer.instant(
                "wal.append", cat="wal",
                op=record.op, phase=record.phase, obj=record.object_name,
                op_id=record.op_id,
            )
        coordinator.wal_append(record)
        for nid in record.replica_nodes:
            node = self.cluster.node(nid)
            if node is not coordinator and node.alive:
                node.wal_append(record)

    def crash_point(self, coordinator, point: str) -> None:
        """Kill the coordinator here if a FaultInjector armed this point.

        Marks the node dead (liveness listeners fire, failover routes
        new requests elsewhere) and aborts the in-flight operation by
        raising :class:`CoordinatorCrash` — state already written stays
        exactly as a real crash would leave it.
        """
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        injector = getattr(self.cluster, "faults", None)
        if injector is not None and injector.should_crash(coordinator.node_id, point):
            tracer = self.cluster.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "wal.crash", cat="wal", point=point, node=coordinator.node_id
                )
            self.cluster.fail_node(coordinator.node_id)
            raise CoordinatorCrash(point)


def pending_operations(records: list[WalRecord]) -> dict[int, WalRecord]:
    """Intent records whose operation never logged a commit or abort.

    ``records`` is the deduplicated cluster-wide log
    (:meth:`Cluster.wal_records`); returns {op_id: intent_record}.
    """
    intents: dict[int, WalRecord] = {}
    resolved: set[int] = set()
    for record in records:
        if record.phase == "intent":
            intents[record.op_id] = record
        else:
            resolved.add(record.op_id)
    return {op_id: rec for op_id, rec in intents.items() if op_id not in resolved}


def committed_operations(records: list[WalRecord]) -> dict[int, WalRecord]:
    """Intent records of operations that did log a commit."""
    intents = {r.op_id: r for r in records if r.phase == "intent"}
    committed = {r.op_id for r in records if r.phase == "commit"}
    return {op_id: rec for op_id, rec in intents.items() if op_id in committed}
