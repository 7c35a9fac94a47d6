"""Background rebalance: migrate blocks to their ring-correct positions.

The repair twin for *deliberate* topology change.  When membership
shifts (a node joins or drains), existing stripe placements no longer
match what the consistent-hash ring would choose today; the
:class:`Rebalancer` walks every stripe of every object in the wrapped
store (whatever its layout), recomputes the ring targets, and asks the
store to migrate each mismatched position.

Migration is per-stripe **copy-then-republish-then-GC**, so reads are
never wrong mid-flight:

1. **copy** — the destination receives a full copy of each moving block
   (read from the source, or reconstructed via erasure decoding when
   the source is unreachable).  Queries still route via the old
   placement, whose blocks are untouched.
2. **republish** — placements, the chunk location map, and the durable
   metadata replicas flip to the destination in one epoch bump; the
   stores' decode/page-index/degraded caches are invalidated for the
   object at the same moment.
3. **GC** — only now are the source copies dropped.

Every in-flight move is registered in ``cluster.migrations`` (a
metadata-plane intent registry keyed by block id) before any byte
moves; fsck classifies registered blocks as *pending* rather than
orphaned, and :func:`resolve_pending_migrations` — run by recovery and
at the start of every rebalance — rolls a crashed step to a safe state:
a move that died before republish is rolled back (destination copy
dropped, redone later), one that died after republish only needs its
source GC finished.

Scheduling rides the :class:`~repro.core.repair.RepairManager` pattern:
background priority lane (shed first under admission pressure),
``QueueFull`` defers the stripe to a later run, and the run's traffic
lands in ``ClusterMetrics.record_rebalance`` — never in query or repair
totals.  Migration is not paced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import BACKGROUND_PRIORITY
from repro.cluster.simcore import QueueFull
from repro.core.wal import QuorumLost


@dataclass
class MigrationEntry:
    """One registered in-flight block move (metadata-plane intent).

    ``published`` flips exactly when the owning object's metadata was
    republished to point at ``dst`` — the commit point of the move.
    Before it, ``src`` is authoritative and the ``dst`` copy is
    disposable; after it, ``dst`` is authoritative and only the ``src``
    GC is outstanding.
    """

    block_id: str
    object_name: str
    store_kind: str  # "fac" | "fixed"
    stripe_id: int
    position: int
    src: int
    dst: int
    published: bool = False


@dataclass
class RebalanceReport:
    """What one rebalance run did, and what it cost."""

    objects: list[str] = field(default_factory=list)
    stripes_examined: int = 0
    stripes_migrated: int = 0
    blocks_moved: int = 0
    #: Stripes skipped because admission control refused the migration's
    #: (background-priority) traffic — retried by a later run.
    stripes_deferred: int = 0
    #: Objects whose metadata replica set was moved off non-active nodes.
    meta_moved: int = 0
    #: Crash-interrupted moves resolved before migrating (rolled back or
    #: GC-finished by :func:`resolve_pending_migrations`).
    pending_resolved: int = 0
    rebalance_bytes: int = 0  # simulated network bytes moved by rebalance
    started: float = 0.0
    finished: float = 0.0

    @property
    def time_to_rebalance(self) -> float:
        return self.finished - self.started


def stripe_placement_key(name: str, stripe_id: int) -> str:
    """The ring key one stripe's placement is derived from.

    Matches the key the stores hand to ``Cluster.place_stripe`` at Put
    time, so fresh writes and rebalanced objects agree on where a
    stripe belongs.
    """
    return f"{name}/s{stripe_id}"


def meta_placement_key(name: str) -> str:
    """The ring key an object's metadata replica set is derived from."""
    return f"{name}/meta"


def resolve_pending_migrations(store) -> int:
    """Roll every crash-interrupted move to a safe state; returns how
    many entries were resolved.

    Metadata-plane (block drops are free, like Delete's GC): safe to run
    from recovery.  An entry whose cleanup target is dead is left
    pending — it resolves once the node restores, and fsck keeps
    reporting it as pending rather than losing track of the copy.
    """
    cluster = store.cluster
    resolved = 0
    for bid, entry in sorted(cluster.migrations.items()):
        obj = store.objects.get(entry.object_name)
        if obj is None or obj.kind != entry.store_kind:
            # The object vanished (deleted / rolled back, or its name now
            # holds a new incarnation) mid-move: the WAL path GC'd its
            # blocks; just clear the intent.
            del cluster.migrations[bid]
            resolved += 1
            continue
        if entry.published:
            # Committed: destination is authoritative, finish the GC.
            src = cluster.node(entry.src)
            if not src.alive:
                continue  # resolve once the source restores
            if src.has_block(bid):
                src.drop_block(bid)
            del cluster.migrations[bid]
            resolved += 1
        else:
            # Uncommitted: source is authoritative, roll the copy back;
            # the next rebalance pass redoes the move from scratch.
            dst = cluster.node(entry.dst)
            if not dst.alive:
                continue  # roll back once the destination restores
            if dst.has_block(bid):
                dst.drop_block(bid)
            del cluster.migrations[bid]
            resolved += 1
    return resolved


class Rebalancer:
    """Migrates every managed object to its current ring placement.

    Wraps one store exactly like :class:`~repro.core.repair.RepairManager`
    does.  Requires an installed membership manager
    (``StoreConfig.membership_enabled``).
    """

    def __init__(self, store) -> None:
        self.store = store
        self.cluster = store.cluster
        self.sim = store.sim
        self.config = store.config
        if self.cluster.membership is None:
            raise RuntimeError(
                "Rebalancer needs cluster.membership (set membership_enabled)"
            )

    # -- public entry points ----------------------------------------------

    def rebalance(self) -> RebalanceReport:
        """One full rebalance pass (runs the simulation)."""
        return self.store._run(self.rebalance_process())

    def rebalance_process(self):
        """Process: resolve crash leftovers, then migrate every stripe
        whose placement disagrees with the ring, then move metadata
        replica sets off non-active nodes."""
        membership = self.cluster.membership
        metrics = QueryMetrics(priority=BACKGROUND_PRIORITY)
        report = RebalanceReport(started=self.sim.now)
        tracer = self.sim.tracer
        run_span = (
            tracer.begin("rebalance_run", cat="rebalance", epoch=membership.epoch)
            if tracer is not None
            else None
        )
        report.pending_resolved = resolve_pending_migrations(self.store)
        store = self.store
        n = self.config.code.n
        touched: set[str] = set()
        for name in sorted(store.objects):
            obj = store.objects.get(name)
            if obj is None:
                continue  # deleted while this run was in flight
            for sid in store.stripes_of(name):
                targets = membership.placement_for(stripe_placement_key(name, sid), n)
                report.stripes_examined += 1
                try:
                    moved = yield from store.migrate_stripe_process(
                        name, sid, targets, metrics
                    )
                except QueueFull:
                    # Too busy to admit background migration traffic:
                    # leave the stripe for a later run.
                    report.stripes_deferred += 1
                    metrics.requests_shed += 1
                    continue
                except QuorumLost:
                    # Partition strands this coordinator with a minority
                    # of the object's meta-replica holders: migrating now
                    # would republish a minority-epoch snapshot.  Defer
                    # to a post-heal run.
                    report.stripes_deferred += 1
                    continue
                if moved:
                    report.stripes_migrated += 1
                    report.blocks_moved += moved
                    touched.add(name)
            if self._migrate_meta(obj):
                report.meta_moved += 1
                touched.add(name)
        report.objects = sorted(touched)
        report.rebalance_bytes = metrics.network_bytes
        report.finished = self.sim.now
        if run_span is not None:
            tracer.finish(
                run_span,
                stripes_migrated=report.stripes_migrated,
                blocks_moved=report.blocks_moved,
                deferred=report.stripes_deferred,
            )
        self.cluster.metrics.record_rebalance(
            metrics.network_bytes, report.blocks_moved, report.time_to_rebalance
        )
        return report

    # -- convergence ------------------------------------------------------

    def misplaced(self) -> list[tuple[str, int, int]]:
        """Every (object, stripe, position) not at its ring target."""
        membership = self.cluster.membership
        n = self.config.code.n
        wrong: list[tuple[str, int, int]] = []
        for name, obj in sorted(self.store.objects.items()):
            for placement in obj.stripes:
                sid = placement.stripe_id
                targets = membership.placement_for(stripe_placement_key(name, sid), n)
                for i, nid in enumerate(placement.node_ids):
                    # None: a position the layout never gave a home.
                    if nid is not None and nid != targets[i]:
                        wrong.append((name, sid, i))
        return wrong

    def converged(self) -> bool:
        """No misplaced blocks, no open migrations, all metadata replica
        sets on active members."""
        if self.cluster.migrations or self.misplaced():
            return False
        active = set(self.cluster.membership.active_members())
        return all(set(obj.replica_nodes) <= active for obj in self.store.objects.values())

    # -- internals --------------------------------------------------------

    def _migrate_meta(self, obj) -> bool:
        """Move the object's metadata replica set off non-active nodes.

        Metadata-plane, like repair's republish: replica maps are tiny
        next to block migration, and the simulation already treats
        repair-time republish as free.  Returns True when it moved.
        """
        membership = self.cluster.membership
        current = obj.replica_nodes
        active = set(membership.active_members())
        if set(current) <= active:
            return False
        count = len(current)
        new = tuple(membership.placement_for(meta_placement_key(obj.name), count))
        obj.replica_nodes = new
        # Republish bumps the epoch, writes the fresh snapshot to the new
        # holders, and invalidates the store's per-object caches.
        self.store._republish_meta(obj)
        for nid in set(current) - set(new):
            node = self.cluster.node(nid)
            if node.alive:
                node.drop_meta(obj.name)
        return True
