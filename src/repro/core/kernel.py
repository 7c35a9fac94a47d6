"""The durability-and-repair kernel both object stores are built on.

The paper's Figure 2 stripe - ``k`` data blocks of *different* sizes,
implicitly zero-padded, parity at the largest size - contains the
fixed-block stripe of Section 4.2's fallback as its equal-size special
case.  So both layouts keep **one stripe record**,
:class:`StripePlacement`, and everything that needs only that record
lives here once: plane installs, the run-the-sim and admission /
deadline / tenant wrappers, block writes, the WAL protocol of Delete,
metadata-replica publish (quorum-guarded) and anti-entropy, scrub, the
degraded read's gather-rank-fetch-decode, checksum-guided recovery, node
rebuild, stripe repair, stripe migration, fsck and WAL recovery.

The layout is a property of the stored object, not of the store: one
store holds one namespace, and a Fusion store's over-budget objects sit
in it as fixed-layout objects beside its FAC ones.  What depends on the
layout is therefore asked of the object:

* ``kind`` - ``"fac"`` or ``"fixed"``, the stamp on WAL records,
  metadata replicas, migration intents and read-repair keys;
* ``splits_chunks`` - may a column chunk cross a block boundary (fixed
  cuts) or does each live whole in one bin (FAC)?  Split means
  reassemble at the coordinator, whole means push down;
* ``locate_block(handle)`` - the stripe record and position behind the
  layout's read handle (FAC: a block id; fixed: a block index);
* ``block_moved(block_id, node_id)`` - FAC rewrites its ``LocationMap``
  entries, the fixed layout has nothing to follow;
* ``dangling_locations()`` - fsck's location-map leg (empty for fixed);
* ``snapshot()`` and ``replica_nodes`` - the deep copy a metadata
  replica holds, and where the replicas live.

A store built on the kernel supplies its own policy - ``_put_body`` (FAC
bins vs. fixed cuts), ``_get_body`` and ``_query_body`` with their
fetch / pushdown ops - plus the hooks that touch its caches:

* :attr:`StoreKernel.span_label` - the ``store=`` label of tracer spans;
* ``_invalidate_block(obj, placement, i)`` - drop what was decoded from
  a rewritten or moved block;
* ``_invalidate_object_caches(name)`` - Fusion extends it with its
  page-index cache;
* the ``intact`` callable handed to :meth:`StoreKernel._degraded_block_read`
  - the end-to-end check of what was just reconstructed (FAC: the
  chunk's CRC; fixed: the block's).

Two orderings the former twin implementations disagreed on, one rule
each:

* **Rebuild** (:meth:`StoreKernel._rebuild_stripe_body`): the bytes land
  on the rescue node first, *then* the placement points at them - a
  reader that interleaves with the rescue node's disk write still routes
  to the old holder (and reconstructs), never to a node that does not
  hold the block yet.
* **Migration of never-written positions**
  (:meth:`StoreKernel._migrate_stripe_body`): every position that has a
  home follows the ring; one that holds no bytes (an empty FAC bin)
  moves as pure metadata and is republished.  The missing trailing
  blocks of a partial fixed stripe were never assigned a home
  (``node_ids[i] is None``), so there is nothing to retarget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.membership import install_membership
from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import (
    Deadline,
    DeadlineExceeded,
    PartialResult,
    arm_deadline,
    check_deadline,
    fail_query,
    install_admission_control,
    install_circuit_breakers,
)
from repro.cluster.qos import QuotaExceeded, install_qos
from repro.cluster.simcore import QueueFull
from repro.core import engine
from repro.core.cache import LruDict
from repro.core.config import StoreConfig
from repro.core.fsck import FsckReport, RecoveryReport, fsck as run_fsck, recover as run_recover
from repro.core.location_map import chunk_checksum
from repro.core.rebalance import MigrationEntry
from repro.core.repair import RepairError, find_bad_shards, localise_stripe
from repro.core.scatter_gather import RemoteOp, execute_remote_ops
from repro.core.scrub import ScrubReport, check_stripe
from repro.core.wal import MetaReplica, QuorumLost, WalRecord, WalWriter
from repro.ec.stripe import DecodeError, decode_stripe, encode_stripe
from repro.obs.audit import PushdownAuditLog
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import install_telemetry
from repro.obs.tracer import Tracer, traced
from repro.sql.ast_nodes import Query
from repro.sql.local import QueryResult
from repro.sql.parser import parse
from repro.sql.planner import PhysicalPlan, plan as make_plan


class ObjectNotFound(KeyError):
    """Raised when querying an object that was never Put."""


@dataclass
class PutReport:
    """What a Put produced: layout facts plus simulated latency."""

    object_name: str
    strategy: str
    stored_bytes: int
    data_bytes: int
    overhead_vs_optimal: float
    layout_build_seconds: float  # real wall-clock of the layout algorithm
    simulated_put_seconds: float
    num_stripes: int
    fallback: bool = False


@dataclass
class StripePlacement:
    """Physical placement of one stripe, FAC or fixed.

    A data position of size 0 was never written: an empty FAC bin, or
    the missing trailing block of a partial fixed stripe.  FAC gives
    every bin a home node, written or not; the fixed layout never
    assigned its missing blocks one, so their ``node_ids`` entry is
    ``None`` and they are on no node.
    """

    stripe_id: int
    node_ids: list[int | None]  # n nodes: k data then n-k parity
    data_block_ids: list[str]
    parity_block_ids: list[str]
    data_sizes: list[int]
    #: CRC of each stored block payload (n entries, data then parity),
    #: recorded at Put so repair can verify what it rewrites.
    checksums: list[int] = field(default_factory=list)

    @property
    def max_size(self) -> int:
        return max(self.data_sizes)

    @property
    def block_ids(self) -> list[str]:
        """All n block ids in stripe order (data first, then parity)."""
        return self.data_block_ids + self.parity_block_ids

    def checksum(self, i: int) -> int:
        """Put-time CRC of stripe position ``i`` (0 = not recorded)."""
        return self.checksums[i] if self.checksums else 0

    def stored_blocks(self):
        """Yield ``(node_id, block_id, size, checksum)`` for every block
        that should be on disk (zero-size data blocks are never written;
        parity materialises at the stripe's largest data size)."""
        k = len(self.data_block_ids)
        for i, bid in enumerate(self.block_ids):
            size = self.data_sizes[i] if i < k else self.max_size
            if size > 0:
                yield self.node_ids[i], bid, size, self.checksum(i)

    def copy(self) -> "StripePlacement":
        """Deep copy (all fields are flat lists)."""
        return StripePlacement(
            stripe_id=self.stripe_id,
            node_ids=list(self.node_ids),
            data_block_ids=list(self.data_block_ids),
            parity_block_ids=list(self.parity_block_ids),
            data_sizes=list(self.data_sizes),
            checksums=list(self.checksums),
        )


_EMPTY = np.zeros(0, dtype=np.uint8)

#: LRU bounds (entries) of the real-bytes memo caches: decoded column
#: chunks, and blocks recovered by a degraded read.  They save benchmark
#: wall-clock, not simulated time (every access is still charged), so a
#: small cache suffices.
DECODE_CACHE_ENTRIES = 512
DEGRADED_CACHE_ENTRIES = 64


class StoreKernel:
    """What :class:`FusionStore` and :class:`BaselineStore` share."""

    #: ``store=`` label on this store's tracer spans.
    span_label = ""

    def __init__(self, cluster: Cluster, config: StoreConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config or StoreConfig()
        self.sim = cluster.sim
        #: name -> stored object, whatever its layout.
        self.objects: dict = {}
        # Put/Delete write-ahead log.
        self.wal = WalWriter(cluster)
        # Decoded-value memoisation: chunks are immutable once Put, and
        # simulated decode time is charged independently, so re-decoding
        # the same chunk for every simulated query would only burn real
        # wall-clock in benchmarks.  Every cache holds real bytes only
        # (simulated costs are charged per access), is bounded by a small
        # LRU, is keyed by object name first, and is invalidated on
        # put/delete so a reused name never serves stale values.
        self._decode_cache: LruDict[tuple, np.ndarray] = LruDict(DECODE_CACHE_ENTRIES)
        # Degraded-read reconstruction cache: block id -> recovered block.
        self._degraded_bin_cache: LruDict[str, np.ndarray] = LruDict(DEGRADED_CACHE_ENTRIES)
        # Failure detection: share the cluster's health tracker and hear
        # about liveness changes so degraded-read reconstructions are
        # never served stale after a restore or repair.
        cluster.health.greylist_factor = self.config.greylist_latency_factor
        cluster.add_liveness_listener(self._on_liveness)
        # Observability (repro.obs): all three attachments are metadata-
        # plane — they never schedule simulation events — so runs are
        # event-identical with them on or off.  Only Fusion evaluates
        # the Cost Equation, so a lone baseline's audit log stays empty.
        if self.config.tracing_enabled and self.sim.tracer is None:
            self.sim.tracer = Tracer(self.sim)
        if self.config.metrics_registry_enabled and cluster.metrics.registry is None:
            cluster.metrics.registry = MetricsRegistry()
        self.audit = PushdownAuditLog(self.sim, self.config.pushdown_audit_enabled)
        # The planes below are all no-ops at their default knobs and
        # idempotent: the first store on a cluster installs them.
        # Overload protection: bound the node service queues and install
        # the per-node circuit breakers (depth 0 / threshold 0 = off).
        install_admission_control(cluster, self.config)
        install_circuit_breakers(cluster, self.config)
        # Elastic membership: hash-ring placement + runtime join/drain.
        install_membership(cluster, self.config)
        # Per-tenant QoS: DRR fair queues on node service loops + tenant
        # quota buckets.
        install_qos(cluster, self.config)
        # Continuous telemetry: scraper + SLO engine + exemplars.  The
        # scraper rides the kernel's clock-listener hook (observe-only,
        # never schedules events).
        install_telemetry(cluster, self.config)

    def _on_liveness(self, node_id: int, alive: bool) -> None:
        """A node's liveness changed: cached reconstructions may describe
        a world that no longer exists (restored node serving the real
        block, repair rewriting it), so drop them all (the cache is tiny)."""
        self._degraded_bin_cache.clear()

    def _usable(self, node) -> bool:
        """Send ops to this node, or route straight to reconstruction?

        Routability folds in the failure detector *and* the node's
        circuit breaker (when installed): an open breaker routes the op
        to its degraded path just like a suspect node would.  Greylisted
        (fail-slow) nodes are deprioritized here too: reconstructing
        from k healthy peers beats a many-times-slower direct read; the
        min-healthy floor (:meth:`_floor_attempt`) reinstates them when
        reconstruction would be starved of sources anyway.
        """
        return (
            node.alive
            and self.cluster.routable(node.node_id)
            and not self.cluster.health.is_greylisted(node.node_id)
        )

    def _floor_attempt(self, obj, handle) -> bool:
        """Min-healthy-floor guard for scatter-gather source selection.

        True when an op should still *attempt* its non-usable (suspect /
        greylisted / breaker-open) holder: once the holder's stripe has
        fewer than k usable sources, degraded reconstruction is itself
        guaranteed to lean on non-usable nodes, so a direct attempt —
        with the degraded path kept as fallback — is strictly better
        than the reconstruction cliff.  Only evaluated after
        :meth:`_usable` fails, so fault-free runs never pay the scan.
        """
        try:
            placement, _ = obj.locate_block(handle)
        except KeyError:
            return False
        usable = sum(
            1
            for nid in placement.node_ids
            if nid is not None and self._usable(self.cluster.node(nid))
        )
        return usable < self.config.code.k

    def _invalidate_object_caches(self, name: str) -> None:
        """Drop every cached artefact derived from object ``name``."""
        self._decode_cache.evict_where(lambda key: key[0] == name)
        # Block ids are "<name>/b<i>" or "<name>/s<i>/<d|p><j>".
        self._degraded_bin_cache.evict_where(lambda bid: bid.startswith(name + "/"))

    # -- Put / Get / Query: run-the-sim and admission wrappers -------------------

    def _run(self, process_body):
        """Run one process alone to completion; returns its value."""
        proc = self.sim.process(process_body)
        self.sim.run()
        return proc.value

    def put(self, name: str, data: bytes, tenant: str | None = None) -> PutReport:
        """Store an object (runs the simulation to completion)."""
        return self._run(self.put_process(name, data, tenant=tenant))

    def put_process(self, name: str, data: bytes, tenant: str | None = None):
        """Simulated Put (the store's ``_put_body`` under a span).

        ``tenant`` charges the Put (one request plus ``len(data)`` bytes)
        against that tenant's quota buckets; under the ``reject`` policy
        an over-quota Put raises a typed
        :class:`~repro.cluster.qos.QuotaExceeded` before any device work
        (under ``demote`` it is recorded and proceeds — Put traffic
        already runs as exempt internal work with no lane to drop into).
        """
        if tenant is not None and self.cluster.qos is not None:
            self.cluster.qos.admit(tenant, nbytes=len(data))
        report = yield from traced(
            self.sim, self._put_body(name, data), "put", "store",
            obj=name, store=self.span_label,
        )
        return report

    def _write_block(self, coordinator, node_id: int, block_id: str, payload: np.ndarray):
        node = self.cluster.node(node_id)
        yield from self.cluster.network.transfer(
            coordinator.endpoint, node.endpoint, self.config.scaled(payload.size)
        )
        yield from node.disk.write(self.config.scaled(payload.size))
        node.put_block(block_id, payload)

    def _write_stripe(self, coordinator, placement: StripePlacement, payloads):
        """Process: charge the coordinator's encode of one stripe,
        RS-encode it, record every block's CRC on the placement, and
        spawn one write per stored block (data in order, then parity;
        empty data blocks are never written).  Returns the write
        processes for the caller to await together."""
        encode_bytes = sum(p.size for p in payloads)
        yield from coordinator.compute(
            encode_bytes * self.config.size_scale / coordinator.cpu_config.decode_bps
        )
        shards = encode_stripe(self.config.code, payloads).shards()
        placement.checksums = [chunk_checksum(s) for s in shards]
        return [
            self.sim.process(self._write_block(coordinator, nid, bid, payload))
            for nid, bid, payload in zip(placement.node_ids, placement.block_ids, shards)
            if payload.size
        ]

    # -- WAL records --------------------------------------------------------------

    def _log_intent(self, coordinator, op: str, obj) -> WalRecord:
        """Append (and return) the intent record of a Put or Delete.  It
        names every block and metadata-replica holder the operation
        touches, so roll-back / redo can find them with no other
        metadata."""
        stored = [block for p in obj.stripes for block in p.stored_blocks()]
        intent = WalRecord(
            op_id=self.wal.new_op_id(),
            seq=0,
            phase="intent",
            op=op,
            store_kind=obj.kind,
            object_name=obj.name,
            blocks=tuple((nid, bid) for nid, bid, _size, _crc in stored),
            block_sizes=tuple(size for _nid, _bid, size, _crc in stored),
            replica_nodes=tuple(obj.replica_nodes),
        )
        self.wal.append(coordinator, intent)
        return intent

    def _log_outcome(
        self, coordinator, intent: WalRecord, phase: str = "commit", seq: int = 1
    ) -> None:
        """Append the record that resolves ``intent``.  ``seq`` orders the
        records of one operation: 0 = intent, 1 = the coordinator's own
        outcome, 2 = an outcome decided by recovery."""
        self.wal.append(
            coordinator,
            WalRecord(
                op_id=intent.op_id,
                seq=seq,
                phase=phase,
                op=intent.op,
                store_kind=intent.store_kind,
                object_name=intent.object_name,
                replica_nodes=intent.replica_nodes,
            ),
        )

    def get(
        self,
        name: str,
        offset: int = 0,
        size: int | None = None,
        tenant: str | None = None,
    ) -> bytes:
        """Retrieve object bytes — the paper's Get(offset, size) API.

        Runs the simulation to completion; ``size=None`` means to the end.
        """
        return self._run(self.get_process(name, offset=offset, size=size, tenant=tenant))

    def get_process(
        self,
        name: str,
        metrics: QueryMetrics | None = None,
        offset: int = 0,
        size: int | None = None,
        tenant: str | None = None,
    ):
        """Simulated Get (the store's ``_get_body`` under a span)."""
        if metrics is None:
            # Deadlines and the tenant id ride on the metrics object;
            # synthesize a carrier when either needs one so bare Gets
            # are budgeted and fair-scheduled too.
            deadline = Deadline.from_config(self.sim, self.config)
            if deadline is not None or tenant is not None:
                metrics = QueryMetrics()
                metrics.deadline = deadline
        else:
            arm_deadline(self.sim, self.config, metrics)
        if tenant is not None:
            metrics.tenant = tenant
            if self.cluster.qos is not None:
                self.cluster.qos.admit(
                    tenant, metrics, nbytes=0 if size is None else size
                )
        try:
            data = yield from traced(
                self.sim, self._get_body(name, metrics, offset, size), "get", "store",
                obj=name, store=self.span_label,
            )
        except DeadlineExceeded:
            if metrics is not None:
                metrics.deadline_exceeded += 1
            raise
        return data

    def query(
        self, sql: str | Query, tenant: str | None = None
    ) -> tuple[QueryResult, QueryMetrics]:
        """Run one query alone on an idle cluster (runs the simulation)."""
        metrics = QueryMetrics()
        return self._run(self.query_process(sql, metrics, tenant=tenant)), metrics

    def query_process(
        self, sql: str | Query, metrics: QueryMetrics, tenant: str | None = None
    ):
        """Simulated query (the store's ``_query_body`` under a span).

        ``tenant`` stamps the metrics and charges the query against that
        tenant's quota buckets before any device work; an over-quota
        request is refused with a typed QuotaExceeded (``reject``) or
        demoted to the background lane (``demote``).
        """
        query = parse(sql) if isinstance(sql, str) else sql
        if tenant is not None:
            metrics.tenant = tenant
            if self.cluster.qos is not None:
                metrics.start_time = self.sim.now
                try:
                    self.cluster.qos.admit(tenant, metrics)
                except QuotaExceeded:
                    fail_query(self.cluster, metrics, quota=True)
                    raise
        arm_deadline(self.sim, self.config, metrics)
        try:
            result = yield from traced(
                self.sim, self._query_body(query, metrics), "query", "store",
                metrics=metrics, table=query.table, store=self.span_label,
            )
        except DeadlineExceeded:
            # The body records metrics only on success, so accounting the
            # failure here never double-counts the query.
            fail_query(self.cluster, metrics, deadline=True)
            raise
        except QueueFull as exc:
            # Coordinator-side admission refusal (compute/egress outside
            # any scatter-gather stage) killed the whole query.
            fail_query(self.cluster, metrics, shed=exc.shed)
            raise
        return result

    def _return_result(self, coordinator, result, metrics: QueryMetrics):
        """Process: the common tail of ``_query_body`` - ship the result
        to the client, stamp the end time, record the query."""
        inner = result.result if isinstance(result, PartialResult) else result
        yield from traced(
            self.sim,
            self.cluster.network.transfer(
                coordinator.endpoint,
                self.cluster.client,
                self.config.scaled(engine.result_wire_bytes(inner)),
                metrics,
            ),
            "result_transfer", "store",
        )
        metrics.end_time = self.sim.now
        self.cluster.metrics.record_query(metrics)

    # -- Metadata replicas ------------------------------------------------------

    def _meta_snapshot(self, obj) -> MetaReplica:
        """Deep snapshot of the object's durable metadata for a replica
        node — never aliases live placement state, so repair mutations
        do not bleed into already-published replicas."""
        return MetaReplica(
            object_name=obj.name,
            epoch=obj.meta_epoch,
            store_kind=obj.kind,
            payload={"object": obj.snapshot()},
        )

    def _republish_meta(self, obj) -> None:
        """Repair relocated blocks: push a fresh snapshot (bumped epoch)
        to the reachable replica holders.  Metadata-plane operation — the
        repair traffic itself was already charged.

        Quorum-guarded: with 3+ replica holders, a coordinator that can
        reach only a minority of them must not install a bumped-epoch
        snapshot — the majority side may be doing the same, and whoever
        bumps on fewer holders split-brains the object.  Raises
        :class:`~repro.core.wal.QuorumLost` instead; callers defer and
        re-attempt after the partition heals.
        """
        holders = obj.replica_nodes
        coordinator = self.cluster.coordinator_for(obj.name)
        reachable = [
            nid
            for nid in holders
            if self.cluster.node(nid).alive
            and self.cluster.reachable(coordinator.node_id, nid)
        ]
        if len(holders) >= 3 and len(reachable) < len(holders) // 2 + 1:
            self.cluster.metrics.quorum_lost_total += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "meta.quorum_lost", cat="meta", object=obj.name,
                    reachable=len(reachable), holders=len(holders),
                )
            raise QuorumLost(
                f"republish of {obj.name!r} reaches {len(reachable)}/"
                f"{len(holders)} metadata replica holders (majority needed)"
            )
        obj.meta_epoch += 1
        replica = self._meta_snapshot(obj)
        for nid in reachable:
            self.cluster.node(nid).put_meta(obj.name, replica)
        # The published placement changed: every cached artefact derived
        # from the old placement (decoded chunks, page indexes, degraded
        # reconstructions) may now describe bytes that are about to be
        # GC'd from their old node.  Real-bytes caches only, so dropping
        # them never perturbs the event stream.
        self._invalidate_object_caches(obj.name)

    def _sync_meta_replicas(self, obj) -> int:
        """Anti-entropy for metadata replicas: push the current-epoch
        snapshot to alive holders whose replica is missing or older
        (post-partition-heal convergence onto the majority epoch).
        Metadata-plane; returns the number of holders updated."""
        replica = None
        synced = 0
        for nid in obj.replica_nodes:
            node = self.cluster.node(nid)
            if not node.alive:
                continue
            existing = node.get_meta(obj.name)
            if (
                existing is not None
                and existing.store_kind == obj.kind
                and existing.epoch >= obj.meta_epoch
            ):
                continue
            if replica is None:
                replica = self._meta_snapshot(obj)
            node.put_meta(obj.name, replica)
            synced += 1
        return synced

    def _install_from_replica(self, replica: MetaReplica):
        """Recovery roll-forward: rebuild the in-memory object from a
        surviving metadata replica snapshot (copied again, so live state
        never aliases the replica)."""
        obj = replica.payload["object"].snapshot()
        self.objects[obj.name] = obj
        self._invalidate_object_caches(obj.name)
        return obj

    # -- Degraded reads ----------------------------------------------------------

    def _gather_shards(self, placement: StripePlacement, dest, metrics, skip=()):
        """Process: read every shard of the stripe that ``dest`` can
        reach onto it, in stripe order.  Returns the n shards: ``None``
        for the positions in ``skip`` and for unreadable ones (dead or
        partitioned-away holder — ``Network.transfer`` does not consult
        the link matrix, so the check is made here — or block missing),
        an empty array for never-written data positions."""
        k = self.config.code.k
        shards: list[np.ndarray | None] = []
        for i, bid in enumerate(placement.block_ids):
            if i in skip:
                shards.append(None)
                continue
            if i < k and placement.data_sizes[i] == 0:
                shards.append(_EMPTY)
                continue
            node = self.cluster.node(placement.node_ids[i])
            if (
                not node.alive
                or not self.cluster.reachable(dest.node_id, node.node_id)
                or not node.has_block(bid)
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(bid, self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                node.endpoint, dest.endpoint, self.config.scaled(data.size), metrics
            )
            shards.append(data)
        return shards

    def _charge_decode(self, coordinator, shards, metrics):
        """Process: the coordinator's CPU time to decode the gathered shards."""
        gathered = sum(s.size for s in shards if s is not None)
        yield from coordinator.compute(
            gathered * self.config.size_scale / coordinator.cpu_config.decode_bps, metrics
        )

    def _degraded_block_read(
        self, obj, placement: StripePlacement, i: int, coordinator, metrics, intact
    ):
        """Reconstruct data position ``i`` of a stripe whose node is
        down, at the coordinator.

        Gathers ``k`` surviving blocks of the stripe, RS-decodes the lost
        block and returns its bytes — the expensive path that justifies
        prompt recovery.  Reconstructed blocks are cached (real bytes
        only; simulated costs are charged on every call).  ``intact`` is
        the layout's end-to-end check of a reconstructed block.
        """
        return traced(
            self.sim,
            self._degraded_block_read_body(obj, placement, i, coordinator, metrics, intact),
            "degraded_read", "store", obj=obj.name, block=placement.data_block_ids[i],
        )

    def _degraded_block_read_body(self, obj, placement, i, coordinator, metrics, intact):
        check_deadline(metrics, "degraded read")
        if metrics is not None:
            metrics.degraded_reads += 1
        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.block_ids
        shards: list[np.ndarray | None] = [None] * n
        for j in range(k):
            if placement.data_sizes[j] == 0:
                shards[j] = _EMPTY

        # Pick the surviving shards to gather (first k in stripe order,
        # healthy nodes before suspect ones), then fetch them as one
        # scatter-gather round: the stripe spreads over distinct nodes,
        # so this is one RPC per surviving node either way, but the
        # reads overlap instead of serialising.
        pending = sum(1 for s in shards if s is not None)
        candidates: list[tuple[int, object, str]] = []
        for j in range(n):
            if shards[j] is not None:
                continue
            node = self.cluster.node(placement.node_ids[j])
            if not node.alive or not node.has_block(block_ids[j]):
                continue
            if not self.cluster.reachable(coordinator.node_id, node.node_id):
                # Partitioned away: the fetch RPC is deterministically
                # lost, so don't waste the timeout discovering it.
                continue
            candidates.append((j, node, block_ids[j]))
        # Healthy (non-greylisted) shards first, then greylisted
        # (fail-slow: they answer, slowly), suspect last.
        health = self.cluster.health
        healthy = [
            c for c in candidates
            if health.usable(c[1].node_id) and not health.is_greylisted(c[1].node_id)
        ]
        grey = [
            c for c in candidates
            if health.usable(c[1].node_id) and health.is_greylisted(c[1].node_id)
        ]
        suspect = [c for c in candidates if not health.usable(c[1].node_id)]
        gather = (healthy + grey + suspect)[: max(0, k - pending)]

        def fetch_op(node, block_id: str) -> RemoteOp:
            def execute():
                data = yield from node.read_block(block_id, self.config.size_scale, metrics)
                return self.config.scaled(data.size), data

            return RemoteOp(node=node, execute=execute)

        payloads = yield from execute_remote_ops(
            self.cluster,
            coordinator,
            [fetch_op(node, bid) for _j, node, bid in gather],
            metrics,
            self.config.enable_rpc_batching,
            config=self.config,
        )
        for (j, _node, _bid), data in zip(gather, payloads):
            shards[j] = data

        yield from self._charge_decode(coordinator, shards, metrics)
        cache = self._degraded_bin_cache
        cached = cache.get(block_ids[i])
        siblings: list[str] = []
        if cached is None:
            # One decode recovers every ungathered data bin: cache them
            # all, so a read of a sibling bin decodes nothing.
            recovered = decode_stripe(self.config.code, shards, placement.data_sizes)
            for j in range(k):
                if shards[j] is None and j != i and block_ids[j] not in cache:
                    cache[block_ids[j]] = recovered[j]
                    siblings.append(block_ids[j])
            cached = recovered[i]
            cache[block_ids[i]] = cached
        if not intact(cached):
            # The reconstruction itself is wrong: one of the gathered
            # shards was silently corrupt (including, possibly, the
            # target block itself when this path was entered because a
            # direct read failed its CRC), so the siblings that decode
            # cached are suspect too.  Fall back to checksum-guided
            # recovery over every reachable shard.
            for bid in siblings:
                cache.pop(bid)
            if metrics is not None:
                metrics.checksum_failures += 1
            rebuilt = yield from self._verified_block_recovery(
                placement, i, coordinator, metrics
            )
            if rebuilt is not None:
                cached = rebuilt
                cache[block_ids[i]] = cached
        # Anti-entropy read-repair: this foreground read had to
        # reconstruct — queue the stripe for background repair so the
        # damage heals from traffic instead of waiting for a scrub.
        self.cluster.enqueue_read_repair(self, obj.kind, obj.name, placement.stripe_id)
        return cached

    def _verified_block_recovery(self, placement: StripePlacement, i: int, coordinator, metrics):
        """Checksum-guided reconstruction of one data block.

        Gathers *every* reachable shard of the stripe (not just the
        first k), localises silently-corrupt shards with decode trials
        (:func:`repro.core.repair.find_bad_shards`), and decodes with
        them excluded.  Returns the recovered block's bytes, or None when
        the stripe is damaged beyond what the code can localise.
        """
        shards = yield from self._gather_shards(placement, coordinator, metrics)
        yield from self._charge_decode(coordinator, shards, metrics)
        try:
            bad = find_bad_shards(self.config.code, shards, placement.data_sizes)
            good = [s if j not in bad else None for j, s in enumerate(shards)]
            recovered = decode_stripe(self.config.code, good, placement.data_sizes)
        except (RepairError, DecodeError):
            return None
        return recovered[i]

    # -- Delete ----------------------------------------------------------------

    def delete(self, name: str) -> int:
        """Remove an object: drop its blocks and metadata everywhere.
        Returns the number of blocks reclaimed.

        Runs the WAL protocol (intent -> drop metadata replicas -> drop
        data blocks -> commit) so a coordinator crash mid-delete leaves
        a recoverable log instead of silent orphans.  Once the intent is
        logged the delete is durable: recovery *redoes* it (every stage
        is idempotent).  Metadata-plane operation: no simulated data
        movement, exactly as in the seed."""
        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        intent = self._log_intent(coordinator, "delete", obj)
        self.wal.crash_point(coordinator, "delete:after-intent")

        # The object leaves the namespace at intent time; everything
        # below (and recovery, after a crash) is idempotent cleanup.
        del self.objects[name]
        self._invalidate_object_caches(name)

        for nid in obj.replica_nodes:
            self.cluster.node(nid).drop_meta(name)
        self.wal.crash_point(coordinator, "delete:after-meta-drop")

        reclaimed = 0
        for node_id, bid in intent.blocks:
            node = self.cluster.node(node_id)
            if node.has_block(bid):
                node.drop_block(bid)
                reclaimed += 1
        self.wal.crash_point(coordinator, "delete:after-data-drop")
        self._log_outcome(coordinator, intent)
        self.wal.crash_point(coordinator, "delete:after-commit")
        return reclaimed

    # -- Scrubbing -----------------------------------------------------------

    def verify_object(self, name: str) -> ScrubReport:
        """Scrub one object: re-read stripes, check parity (runs the sim)."""
        return self._run(self.verify_object_process(name))

    def verify_object_process(self, name: str):
        report = yield from traced(
            self.sim, self._verify_object_body(name), "scrub", "store",
            obj=name, store=self.span_label,
        )
        return report

    def _verify_object_body(self, name: str):
        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        report = ScrubReport(object_name=name)
        k = self.config.code.k
        for placement in obj.stripes:
            data_blocks: list = []
            parity_blocks: list = []
            for i, bid in enumerate(placement.block_ids):
                if i < k and placement.data_sizes[i] == 0:
                    data_blocks.append(_EMPTY)
                    continue
                node = self.cluster.node(placement.node_ids[i])
                if not node.alive or not node.has_block(bid):
                    (data_blocks if i < k else parity_blocks).append(None)
                    continue
                payload = yield from node.read_block(bid, self.config.size_scale)
                yield from self.cluster.network.transfer(
                    node.endpoint, coordinator.endpoint, self.config.scaled(payload.size)
                )
                want = placement.checksum(i)
                if want and chunk_checksum(payload) != want:
                    report.checksum_mismatch_blocks.append(bid)
                (data_blocks if i < k else parity_blocks).append(payload)
            yield from self._charge_decode(coordinator, data_blocks, None)
            verdict = check_stripe(
                self.config.code, data_blocks, parity_blocks, placement.data_sizes
            )
            report.stripes_checked += 1
            if verdict == "corrupt":
                report.corrupt_stripes.append(placement.stripe_id)
            elif verdict == "incomplete":
                report.incomplete_stripes.append(placement.stripe_id)
        return report

    # -- Fault tolerance ---------------------------------------------------------

    def recover_node(self, node_id: int) -> int:
        """Reconstruct every block the given node held, placing the
        replacements on other nodes.  Returns the number of blocks
        rebuilt.  (Runs the simulation.)"""
        return self._run(self.recover_node_process(node_id))

    def recover_node_process(self, node_id: int, metrics: QueryMetrics | None = None):
        rebuilt = 0
        for obj in self.objects.values():
            touched = False
            for placement in obj.stripes:
                lost = [i for i, nid in enumerate(placement.node_ids) if nid == node_id]
                if not lost:
                    continue
                rebuilt += len(lost)
                touched = True
                yield from self._rebuild_stripe(obj, placement, lost, metrics)
            if touched:
                self._republish_meta(obj)
        return rebuilt

    def _pick_rescue_node(
        self, holder_ids: set[int], lost_node_id: int, reachable_from: int | None = None
    ):
        """An *alive* node to host rebuilt blocks, preferring non-holders.

        With every node alive this matches the seed's choice (smallest
        non-holder id, else the lost node's successor); a dead candidate
        is never picked — repaired data must land on reachable nodes.
        ``reachable_from`` additionally excludes nodes partitioned away
        from the repairing coordinator (writes across a severed link
        would silently vanish).
        """

        def eligible(nid: int) -> bool:
            if not self.cluster.node(nid).alive:
                return False
            return reachable_from is None or self.cluster.reachable(reachable_from, nid)

        for nid in range(self.cluster.num_nodes):
            if nid not in holder_ids and eligible(nid):
                return self.cluster.node(nid)
        for step in range(1, self.cluster.num_nodes + 1):
            nid = (lost_node_id + step) % self.cluster.num_nodes
            if eligible(nid):
                return self.cluster.node(nid)
        raise RuntimeError("no alive node available to host rebuilt blocks")

    def _rebuild_stripe(
        self, obj, placement: StripePlacement, lost, metrics: QueryMetrics | None = None
    ):
        """Gather surviving shards, RS-decode, re-encode, re-place lost ones."""
        return traced(
            self.sim,
            self._rebuild_stripe_body(obj, placement, lost, metrics),
            "repair_stripe", "store", obj=obj.name, stripe=placement.stripe_id,
        )

    def _rebuild_stripe_body(
        self, obj, placement: StripePlacement, lost, metrics: QueryMetrics | None = None
    ):
        k = self.config.code.k
        block_ids = placement.block_ids
        rescue = self._pick_rescue_node(
            set(placement.node_ids), placement.node_ids[lost[0]]
        )
        shards = yield from self._gather_shards(placement, rescue, metrics, skip=lost)
        recovered = decode_stripe(self.config.code, shards, placement.data_sizes)
        all_blocks = encode_stripe(self.config.code, recovered).shards()
        for i in lost:
            payload = all_blocks[i]
            if i < k and payload.size == 0:
                # An empty bin holds no bytes: it just follows the rescue.
                placement.node_ids[i] = rescue.node_id
                continue
            if self._rewrite_mismatch(placement, i, payload):
                continue
            # Bytes land, then the map points at them (module docstring).
            yield from rescue.disk.write(self.config.scaled(payload.size), metrics)
            rescue.put_block(block_ids[i], payload)
            self._relocate_block(obj, placement, i, rescue.node_id)
            self._invalidate_block(obj, placement, i)

    def _rewrite_mismatch(self, placement: StripePlacement, i: int, payload) -> bool:
        """Reconstructed block payload fails its Put-time CRC: refuse to
        write bytes we can prove are wrong (and count the event)."""
        want = placement.checksum(i)
        if not want or chunk_checksum(payload) == want:
            return False
        self.cluster.metrics.checksum_failures += 1
        return True

    def _relocate_block(self, obj, placement: StripePlacement, i: int, node_id: int) -> None:
        """Point the placement (and whatever finer map the layout keeps)
        at the node now holding stripe position ``i``."""
        placement.node_ids[i] = node_id
        obj.block_moved(placement.block_ids[i], node_id)

    def repair_stripe_process(
        self, name: str, stripe_id: int, metrics: QueryMetrics | None = None
    ):
        """Diagnose and repair one stripe: reads every reachable block,
        isolates missing/corrupt positions (``repro.core.repair``),
        reconstructs them, and rewrites — corrupt blocks in place on
        their live node, unreachable ones onto an alive rescue node,
        updating the placement (and the layout's own map).  Returns the
        number of blocks rewritten (0 when the stripe is healthy)."""
        return traced(
            self.sim,
            self._repair_stripe_body(name, stripe_id, metrics),
            "repair_stripe", "store", obj=name, stripe=stripe_id,
        )

    def _repair_stripe_body(
        self, name: str, stripe_id: int, metrics: QueryMetrics | None = None
    ):
        obj = self._lookup(name)
        placement = obj.stripes[stripe_id]
        k = self.config.code.k
        block_ids = placement.block_ids
        coordinator = self.cluster.coordinator_for(name)

        shards = yield from self._gather_shards(placement, coordinator, metrics)
        yield from self._charge_decode(coordinator, shards, metrics)
        bad, all_blocks = localise_stripe(self.config.code, shards, placement.data_sizes)
        written = 0
        for i in sorted(bad):
            payload = all_blocks[i]
            if i < k and placement.data_sizes[i] == 0:
                continue
            if self._rewrite_mismatch(placement, i, payload):
                continue
            holder = self.cluster.node(placement.node_ids[i])
            if not holder.alive or not self.cluster.reachable(
                coordinator.node_id, holder.node_id
            ):
                holder = self._pick_rescue_node(
                    set(placement.node_ids), placement.node_ids[i],
                    reachable_from=coordinator.node_id,
                )
            yield from self.cluster.network.transfer(
                coordinator.endpoint, holder.endpoint, self.config.scaled(payload.size), metrics
            )
            yield from holder.disk.write(self.config.scaled(payload.size), metrics)
            holder.put_block(block_ids[i], payload)
            self._relocate_block(obj, placement, i, holder.node_id)
            self._invalidate_block(obj, placement, i)
            written += 1
        if written:
            # Placements moved: the durable metadata replicas must follow.
            self._republish_meta(obj)
        return written

    # -- Migration (background rebalance) ---------------------------------------

    def migrate_stripe_process(
        self, name: str, stripe_id: int, targets, metrics: QueryMetrics | None = None
    ):
        """Move one stripe's blocks to the ring-chosen ``targets`` with
        copy-then-republish-then-GC (reads are never wrong mid-flight:
        queries route via the old placement until republish).  Returns
        the number of blocks moved (0 when already in place)."""
        return traced(
            self.sim,
            self._migrate_stripe_body(name, stripe_id, targets, metrics),
            "migrate_stripe", "store", obj=name, stripe=stripe_id,
        )

    def _migrate_stripe_body(
        self, name: str, stripe_id: int, targets, metrics: QueryMetrics | None = None
    ):
        obj = self._lookup(name)
        placement = obj.stripes[stripe_id]
        k = self.config.code.k
        block_ids = placement.block_ids
        coordinator = self.cluster.coordinator_for(name)

        moves: list[tuple[int, str, int, int]] = []
        relocated = False
        for i, src in enumerate(placement.node_ids):
            dst = targets[i]
            if src is None or src == dst:
                continue  # no home to move, or already in place
            if i < k and placement.data_sizes[i] == 0:
                # Empty data bins were never written: pure metadata move.
                placement.node_ids[i] = dst
                relocated = True
                continue
            if not self.cluster.node(dst).alive:
                continue  # destination unreachable: defer to a later run
            moves.append((i, block_ids[i], src, dst))

        # Phase 1 — copy: land destination copies while the old placement
        # keeps serving.  Each move is registered as an intent *before*
        # its bytes flow, so a crash leaves fsck-classifiable state.
        copied: list[tuple[int, str, int, int, MigrationEntry]] = []
        for i, bid, src, dst in moves:
            entry = MigrationEntry(
                block_id=bid, object_name=name, store_kind=obj.kind,
                stripe_id=stripe_id, position=i, src=src, dst=dst,
            )
            self.cluster.migrations[bid] = entry
            ok = yield from self._copy_block_for_migration(
                placement, i, bid, src, dst, coordinator, metrics
            )
            if ok:
                copied.append((i, bid, src, dst, entry))
            else:
                del self.cluster.migrations[bid]
        if not copied:
            if relocated:
                self._republish_meta(obj)
            return 0
        self.wal.crash_point(coordinator, "migrate:after-copy")

        # Phase 2 — republish: flip placement, the layout's own map and
        # the durable replicas to the destinations in one epoch bump (no
        # yields between relocate and publish, so readers see either the
        # whole old placement or the whole new one).
        for i, _bid, _src, dst, _entry in copied:
            self._relocate_block(obj, placement, i, dst)
            self._invalidate_block(obj, placement, i)
        self._republish_meta(obj)
        for _i, _bid, _src, _dst, entry in copied:
            entry.published = True
        self.wal.crash_point(coordinator, "migrate:after-republish")

        # Phase 3 — GC: only now drop the source copies.
        for _i, bid, src, _dst, _entry in copied:
            src_node = self.cluster.node(src)
            if src_node.alive and src_node.has_block(bid):
                src_node.drop_block(bid)
            self.cluster.migrations.pop(bid, None)
        return len(copied)

    def _copy_block_for_migration(
        self, placement, i, bid, src, dst, coordinator, metrics
    ):
        """Process: land a copy of stripe position ``i`` on node ``dst``.

        Reads from the source when reachable, else reconstructs the
        block at the coordinator from the surviving shards (the same
        erasure path as a degraded read).  Returns False when no copy
        could be made (destination died mid-transfer, too few shards):
        the caller drops the intent and a later run retries.
        """
        src_node = self.cluster.node(src)
        dst_node = self.cluster.node(dst)
        if src_node.alive and src_node.has_block(bid):
            payload = yield from src_node.read_block(bid, self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                src_node.endpoint, dst_node.endpoint, self.config.scaled(payload.size), metrics
            )
        else:
            payload = yield from self._reconstruct_shard(placement, i, coordinator, metrics)
            if payload is None:
                return False
            yield from self.cluster.network.transfer(
                coordinator.endpoint, dst_node.endpoint, self.config.scaled(payload.size), metrics
            )
        if not dst_node.alive:
            return False  # died mid-transfer: the copy never landed
        yield from dst_node.disk.write(self.config.scaled(payload.size), metrics)
        dst_node.put_block(bid, payload)
        return True

    def _reconstruct_shard(self, placement, i, coordinator, metrics):
        """Process: rebuild stripe position ``i`` at the coordinator from
        the surviving shards it can reach; None when fewer than k are."""
        shards = yield from self._gather_shards(placement, coordinator, metrics, skip=(i,))
        yield from self._charge_decode(coordinator, shards, metrics)
        try:
            recovered = decode_stripe(self.config.code, shards, placement.data_sizes)
        except DecodeError:
            return None
        return encode_stripe(self.config.code, recovered).shards()[i]

    def stripes_of(self, name: str) -> list[int]:
        """Stripe ids of one object (repair-manager iteration helper)."""
        return [p.stripe_id for p in self._lookup(name).stripes]

    def stripes_on_node(self, node_id: int) -> list[tuple[str, int]]:
        """Every (object, stripe) with a position homed on ``node_id``."""
        return [
            (obj.name, placement.stripe_id)
            for obj in self.objects.values()
            for placement in obj.stripes
            if node_id in placement.node_ids
        ]

    # -- Consistency ------------------------------------------------------------

    def fsck(self) -> FsckReport:
        """Cluster-wide invariant check over this store's objects, every
        layout: blocks on disk vs stripe records vs metadata replicas,
        plus block checksums and pending WAL operations.  Metadata-
        plane: runs outside the simulation (see :mod:`repro.core.fsck`)."""
        return run_fsck(self)

    def recover(self) -> RecoveryReport:
        """Replay the cluster-wide WAL after a coordinator crash: roll
        committed operations forward from surviving metadata replicas
        (quorum read, newest epoch wins), roll uncommitted Puts back
        with orphan-block GC, and redo Deletes."""
        return run_recover(self)

    # -- helpers ---------------------------------------------------------------

    def _lookup(self, name: str):
        try:
            return self.objects[name]
        except KeyError:
            raise ObjectNotFound(f"no object named {name!r}") from None

    def object_plan(self, sql: str | Query) -> PhysicalPlan:
        """Plan a query against a stored object's schema (no execution)."""
        query = parse(sql) if isinstance(sql, str) else sql
        return make_plan(query, self._lookup(query.table).metadata.schema)
