"""Fusion: the analytics object store (paper Sections 4-5).

``Put`` runs file-format-aware coding: chunk boundaries are read from the
footer, Algorithm 1 packs whole chunks into variable-size data blocks,
stripes are Reed-Solomon encoded and scattered, and the per-chunk location
map is replicated ``k + 1`` ways.  If FAC cannot meet the configured
storage-overhead budget, the object falls back to fixed-block coding.

``Query`` executes in the paper's two stages.  Filters are always pushed
to the nodes holding the relevant chunks and return compressed bitmaps.
Projections go through the cost estimator per chunk: pushdown ships
``selectivity × uncompressed`` bytes of selected values; fallback ships
the compressed chunk for coordinator-side processing.  An optional
extension (the paper's future work) pushes aggregates down as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
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
from repro.cluster.membership import install_membership
from repro.cluster.qos import QuotaExceeded, install_qos
from repro.cluster.simcore import QueueFull, all_of
from repro.core import engine
from repro.core.baseline_store import BaselineStore, ObjectNotFound, PutReport
from repro.core.cache import LruDict
from repro.core.config import OP_REQUEST_BYTES, SCALAR_RESULT_BYTES, StoreConfig
from repro.core.cost_model import PushdownCostEstimator
from repro.core.fac import construct_stripes
from repro.core.scatter_gather import SHED, RemoteOp, execute_remote_ops
from repro.core.layout import ChunkItem, StripeLayout
from repro.core.location_map import ChecksumError, ChunkLocation, LocationMap, chunk_checksum
from repro.core.wal import MetaReplica, QuorumLost, WalRecord, WalWriter
from repro.obs.audit import PushdownAuditLog
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import install_telemetry
from repro.obs.tracer import Tracer, traced
from repro.ec.stripe import DecodeError, decode_stripe, encode_stripe
from repro.format.metadata import ColumnChunkMeta, FileMetadata
from repro.format.pages import decode_column_chunk
from repro.format.reader import read_metadata
from repro.format.schema import ColumnType
from repro.format.table import plain_size
from repro.sql.aggregates import merge_partial_aggregates, partial_aggregate
from repro.sql.ast_nodes import Aggregate, Query
from repro.sql.bitmap import Bitmap
from repro.sql.local import QueryResult
from repro.sql.parser import parse
from repro.sql.planner import PhysicalPlan, plan as make_plan
from repro.sql.predicate import eval_leaf, leaf_may_match


@dataclass
class StripePlacement:
    """Physical placement of one FAC stripe."""

    stripe_id: int
    node_ids: list[int]  # n nodes: k data then n-k parity
    data_block_ids: list[str]
    parity_block_ids: list[str]
    data_sizes: list[int]
    #: CRC of each stored block payload (n entries, data then parity),
    #: recorded at Put so repair can verify what it rewrites.
    checksums: list[int] = field(default_factory=list)

    @property
    def max_size(self) -> int:
        return max(self.data_sizes)


@dataclass
class StoredFusionObject:
    """Everything Fusion remembers about one object."""

    name: str
    metadata: FileMetadata
    layout: StripeLayout
    location_map: LocationMap
    stripes: list[StripePlacement] = field(default_factory=list)
    header_bytes: bytes = b""
    trailer_bytes: bytes = b""
    #: Version of the durable metadata; bumped on every replica
    #: republish (repair relocations), so recovery's quorum read can
    #: prefer the newest surviving snapshot.
    meta_epoch: int = 0


class FusionStore:
    """The Fusion analytics object store."""

    def __init__(self, cluster: Cluster, config: StoreConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config or StoreConfig()
        self.sim = cluster.sim
        self.objects: dict[str, StoredFusionObject] = {}
        self.estimator = PushdownCostEstimator(self.config.pushdown_mode)
        # Objects whose FAC layout blew the storage budget fall back to
        # fixed-block coding and baseline-style execution.
        self.fallback_store = BaselineStore(cluster, self.config)
        # One WAL op-id space across both stores: fused and fallback
        # operations interleave in the same cluster-wide log.
        self.wal = WalWriter(cluster, self.config.wal_enabled)
        self.fallback_store.wal = self.wal
        # Decoded-value memoisation (see BaselineStore._decode_cache).
        # All three caches hold real bytes only (simulated costs are
        # charged per access), are bounded by a small LRU, and are
        # invalidated on put/delete so a reused object name never serves
        # stale values.
        self._decode_cache: LruDict[tuple[str, tuple[int, int]], np.ndarray] = LruDict(
            self.config.decode_cache_entries
        )
        # Degraded-read reconstruction cache: block_id -> recovered bin.
        self._degraded_bin_cache: LruDict[str, np.ndarray] = LruDict(
            self.config.degraded_cache_entries
        )
        # Page-index cache for node-local page skipping.
        self._page_index_cache: LruDict[tuple[str, tuple[int, int]], list] = LruDict(
            self.config.decode_cache_entries
        )
        # Failure detection: share the cluster's health tracker (the
        # fallback store registers itself too) and hear about liveness
        # changes so degraded-read reconstructions are never served stale
        # after a restore or repair.
        cluster.health.suspicion_threshold = self.config.suspicion_threshold
        cluster.health.greylist_factor = self.config.greylist_latency_factor
        cluster.add_liveness_listener(self._on_liveness)
        # Observability (repro.obs): all three attachments are metadata-
        # plane — they never schedule simulation events — so runs are
        # event-identical with them on or off.
        if self.config.tracing_enabled and self.sim.tracer is None:
            self.sim.tracer = Tracer(self.sim)
        if self.config.metrics_registry_enabled and cluster.metrics.registry is None:
            cluster.metrics.registry = MetricsRegistry()
        self.audit = PushdownAuditLog(self.sim, self.config.pushdown_audit_enabled)
        self.fallback_store.audit = self.audit
        # Overload protection: bound the node service queues and install
        # the per-node circuit breakers.  Both are no-ops at the default
        # knobs (depth 0 / threshold 0), and both tolerate the store pair
        # sharing one cluster (idempotent installs).
        install_admission_control(cluster, self.config)
        install_circuit_breakers(cluster, self.config)
        # Elastic membership: hash-ring placement + runtime join/drain.
        # No-op at the default knob (membership_enabled=False) and
        # idempotent for the store pair sharing one cluster.
        install_membership(cluster, self.config)
        # Per-tenant QoS: DRR fair queues on node service loops + tenant
        # quota buckets.  No-op at the default knob (qos_enabled=False)
        # and idempotent for the store pair sharing one cluster.
        install_qos(cluster, self.config)
        # Continuous telemetry: scraper + SLO engine + exemplars.  The
        # scraper rides the kernel's clock-listener hook (observe-only,
        # never schedules events); no-op at the default knobs and
        # idempotent for the store pair sharing one cluster.
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

    def _floor_attempt(self, obj, block_id: str) -> bool:
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
            placement, _ = self._locate_block(obj, block_id)
        except KeyError:
            return False
        usable = sum(
            1 for nid in placement.node_ids if self._usable(self.cluster.node(nid))
        )
        return usable < self.config.code.k

    def _node_pressured(self, node) -> bool:
        """Is the node's CPU admission queue at capacity right now?

        Pure queue-length read; always ``False`` with admission control
        off, so default-knob runs take the cost estimator's branch
        untouched.  Used for graceful degradation: pushing compute to a
        node whose service queue is already full would likely just burn
        a round trip on a rejection.
        """
        depth = self.config.admission_queue_depth
        return depth > 0 and node.cpu.queue_length >= depth

    def _invalidate_object_caches(self, name: str) -> None:
        """Drop every cached artefact derived from object ``name``."""
        self._decode_cache.evict_where(lambda key: key[0] == name)
        self._page_index_cache.evict_where(lambda key: key[0] == name)
        # Degraded-bin keys are block ids of the form "<name>/s<i>/d<j>".
        self._degraded_bin_cache.evict_where(lambda bid: bid.startswith(name + "/s"))

    def _page_fraction(self, obj_name: str, meta: ColumnChunkMeta, op, data) -> float:
        """Fraction of the chunk's rows in pages the filter can match."""
        if not self.config.enable_page_skipping or meta.num_values == 0:
            return 1.0
        from repro.format.pages import chunk_page_index

        key = (obj_name, meta.key)
        pages = self._page_index_cache.get(key)
        if pages is None:
            pages = chunk_page_index(data)
            self._page_index_cache[key] = pages
        candidate = sum(
            p.num_values
            for p in pages
            if leaf_may_match(op.leaf, op.type, p.min_value, p.max_value)
        )
        return candidate / meta.num_values

    def _decode_cached(self, obj_name: str, meta: ColumnChunkMeta, data: np.ndarray) -> np.ndarray:
        key = (obj_name, meta.key)
        cached = self._decode_cache.get(key)
        if cached is None:
            # The chunk view decodes in place; no bytes() copy on misses,
            # and hits never touch the payload at all.
            cached = decode_column_chunk(data)
            self._decode_cache[key] = cached
        return cached

    # -- Put -----------------------------------------------------------------

    def put(self, name: str, data: bytes, tenant: str | None = None) -> PutReport:
        """Store an object (runs the simulation to completion)."""
        proc = self.sim.process(self.put_process(name, data, tenant=tenant))
        self.sim.run()
        return proc.value

    def put_process(self, name: str, data: bytes, tenant: str | None = None):
        """Simulated Put with FAC stripe construction.

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
            obj=name, store="fusion",
        )
        return report

    def _put_body(self, name: str, data: bytes):
        if name in self.objects or name in self.fallback_store.objects:
            raise ValueError(f"object {name!r} already exists (updates are fresh inserts)")
        # A reused name (put after delete) must never serve bytes decoded
        # from its previous incarnation.
        self._invalidate_object_caches(name)
        start = self.sim.now
        # Put budget: checked cooperatively between phases.  A Put that
        # blows its deadline aborts before commit, leaving a WAL intent
        # that recovery rolls back like any other crashed Put.
        deadline = Deadline.from_config(self.sim, self.config)
        config = self.config
        metadata = read_metadata(data)
        chunks = metadata.all_chunks()
        if not chunks:
            raise ValueError(f"object {name!r} has no column chunks")
        items = [ChunkItem(key=c.key, size=c.size) for c in chunks]
        by_key = {c.key: c for c in chunks}

        layout = construct_stripes(config.code, items)
        if layout.overhead_vs_optimal > config.storage_overhead_threshold:
            # Budget exceeded: default to fixed-block coding (paper 4.2).
            report = yield from self.fallback_store.put_process(name, data)
            report.strategy = "fixed-fallback"
            report.fallback = True
            report.layout_build_seconds = layout.build_seconds
            return report

        coordinator = self.cluster.coordinator_for(name)
        raw = np.frombuffer(data, dtype=np.uint8)
        obj = StoredFusionObject(
            name=name,
            metadata=metadata,
            layout=layout,
            location_map=LocationMap(object_name=name),
            header_bytes=data[:4],
            trailer_bytes=data[chunks[-1].end_offset :],
        )

        # Precompute every placement (and the metadata replica set) up
        # front so the WAL intent can name every resource the operation
        # will touch.  Placement draws stay in seed order — one per
        # stripe, then one for the replica nodes — so fault-free runs
        # place blocks exactly where they always did.
        stripe_payloads: list[list[np.ndarray]] = []
        for sid, binset in enumerate(layout.binsets):
            payloads = []
            for b in binset.bins:
                if b.items:
                    payloads.append(
                        np.concatenate(
                            [raw[by_key[i.key].offset : by_key[i.key].end_offset] for i in b.items]
                        )
                    )
                else:
                    payloads.append(np.zeros(0, dtype=np.uint8))
            stripe_payloads.append(payloads)
            node_ids = self.cluster.place_stripe(f"{name}/s{sid}", config.code.n)
            placement = StripePlacement(
                stripe_id=sid,
                node_ids=node_ids,
                data_block_ids=[f"{name}/s{sid}/d{j}" for j in range(config.code.k)],
                parity_block_ids=[f"{name}/s{sid}/p{j}" for j in range(config.code.parity)],
                data_sizes=[p.size for p in payloads],
            )
            obj.stripes.append(placement)
            # Record chunk locations (with end-to-end checksums) for this stripe.
            for j, b in enumerate(binset.bins):
                for item, offset in b.offsets():
                    meta = by_key[item.key]
                    obj.location_map.add(
                        ChunkLocation(
                            chunk_key=item.key,
                            node_id=node_ids[j],
                            block_id=placement.data_block_ids[j],
                            offset_in_block=offset,
                            size=item.size,
                            checksum=chunk_checksum(raw[meta.offset : meta.end_offset]),
                        )
                    )
        replica_count = config.resolved_metadata_replicas(self.cluster.num_nodes)
        replica_nodes = self.cluster.place_stripe(f"{name}/meta", replica_count)
        obj.location_map.replica_nodes = tuple(replica_nodes)

        blocks: list[tuple[int, str]] = []
        block_sizes: list[int] = []
        for placement in obj.stripes:
            for j, bid in enumerate(placement.data_block_ids):
                if placement.data_sizes[j] > 0:
                    blocks.append((placement.node_ids[j], bid))
                    block_sizes.append(placement.data_sizes[j])
            for pj, bid in enumerate(placement.parity_block_ids):
                blocks.append((placement.node_ids[config.code.k + pj], bid))
                block_sizes.append(placement.max_size)

        op_id = self.wal.new_op_id()
        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=0,
                phase="intent",
                op="put",
                store_kind="fac",
                object_name=name,
                blocks=tuple(blocks),
                block_sizes=tuple(block_sizes),
                replica_nodes=tuple(replica_nodes),
            ),
        )
        self.wal.crash_point(coordinator, "put:after-intent")

        yield from self.cluster.network.transfer(
            self.cluster.client, coordinator.endpoint, config.scaled(len(data))
        )
        if deadline is not None:
            deadline.check("put transfer")
        # Footer parse cost at the coordinator.
        footer_size = len(data) - (chunks[-1].end_offset if chunks else 0)
        yield from coordinator.compute(
            footer_size * config.size_scale / coordinator.cpu_config.decode_bps
        )

        writes = []
        for sid, payloads in enumerate(stripe_payloads):
            placement = obj.stripes[sid]
            node_ids = placement.node_ids
            encode_bytes = sum(p.size for p in payloads)
            yield from coordinator.compute(
                encode_bytes * config.size_scale / coordinator.cpu_config.decode_bps
            )
            encoded = encode_stripe(config.code, payloads)
            placement.checksums = [chunk_checksum(s) for s in encoded.shards()]

            for j, payload in enumerate(encoded.data_blocks):
                if payload.size == 0:
                    continue
                writes.append(
                    self.sim.process(
                        self._write_block(
                            coordinator, node_ids[j], placement.data_block_ids[j], payload
                        )
                    )
                )
            for pj, payload in enumerate(encoded.parity_blocks):
                writes.append(
                    self.sim.process(
                        self._write_block(
                            coordinator,
                            node_ids[config.code.k + pj],
                            placement.parity_block_ids[pj],
                            payload,
                        )
                    )
                )
        yield all_of(self.sim, writes)
        if deadline is not None:
            deadline.check("put writes")
        self.wal.crash_point(coordinator, "put:after-data")

        # Materialize the metadata replicas: the location map (plus
        # footer) travels to each replica node and is stored there as a
        # snapshot, charged at the paper's 8 bytes per entry.
        map_bytes = obj.location_map.wire_size + len(obj.trailer_bytes)
        replica = self._meta_snapshot(obj)
        replications = []
        for nid in replica_nodes:
            node = self.cluster.node(nid)
            if node is coordinator:
                node.put_meta(name, replica)
            else:
                replications.append(
                    self.sim.process(
                        self._replicate_meta(coordinator, node, map_bytes, name, replica)
                    )
                )
        yield all_of(self.sim, replications)
        if deadline is not None:
            deadline.check("put meta")
        self.wal.crash_point(coordinator, "put:after-meta")

        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=1,
                phase="commit",
                op="put",
                store_kind="fac",
                object_name=name,
                replica_nodes=tuple(replica_nodes),
            ),
        )
        self.wal.crash_point(coordinator, "put:after-commit")

        # Atomic visibility: the object appears only after commit.
        self.objects[name] = obj
        return PutReport(
            object_name=name,
            strategy="fac",
            stored_bytes=layout.stored_bytes,
            data_bytes=layout.data_bytes,
            overhead_vs_optimal=layout.overhead_vs_optimal,
            layout_build_seconds=layout.build_seconds,
            simulated_put_seconds=self.sim.now - start,
            num_stripes=layout.num_stripes,
        )

    def _write_block(self, coordinator, node_id: int, block_id: str, payload: np.ndarray):
        node = self.cluster.node(node_id)
        yield from self.cluster.network.transfer(
            coordinator.endpoint, node.endpoint, self.config.scaled(payload.size)
        )
        yield from node.disk.write(self.config.scaled(payload.size))
        node.put_block(block_id, payload)

    # -- Metadata replicas ------------------------------------------------------

    def _meta_snapshot(self, obj: StoredFusionObject) -> MetaReplica:
        """Deep snapshot of the object's durable metadata for a replica
        node — never aliases live placement state, so repair mutations
        do not bleed into already-published replicas."""
        return MetaReplica(
            object_name=obj.name,
            epoch=obj.meta_epoch,
            store_kind="fac",
            payload={
                "metadata": obj.metadata,
                "layout": obj.layout,
                "entries": obj.location_map.snapshot(),
                "replica_nodes": tuple(obj.location_map.replica_nodes),
                "stripes": [_copy_placement(p) for p in obj.stripes],
                "header": obj.header_bytes,
                "trailer": obj.trailer_bytes,
            },
        )

    def _replicate_meta(self, coordinator, node, map_bytes: int, name: str, replica) -> object:
        """Process: ship the serialized map to one replica node, then
        install the snapshot there (a node that died mid-transfer missed
        the write)."""
        yield from self.cluster.network.transfer(
            coordinator.endpoint, node.endpoint, self.config.scaled(map_bytes)
        )
        if node.alive:
            node.put_meta(name, replica)

    def _republish_meta(self, obj: StoredFusionObject) -> None:
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
        holders = obj.location_map.replica_nodes
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
        for nid in obj.location_map.replica_nodes:
            node = self.cluster.node(nid)
            if not node.alive:
                continue
            existing = node.get_meta(obj.name)
            if (
                existing is not None
                and existing.store_kind == "fac"
                and existing.epoch >= obj.meta_epoch
            ):
                continue
            if replica is None:
                replica = self._meta_snapshot(obj)
            node.put_meta(obj.name, replica)
            synced += 1
        return synced

    def _install_from_replica(self, replica: MetaReplica) -> StoredFusionObject:
        """Recovery roll-forward: rebuild the in-memory object from a
        surviving metadata replica snapshot."""
        p = replica.payload
        obj = StoredFusionObject(
            name=replica.object_name,
            metadata=p["metadata"],
            layout=p["layout"],
            location_map=LocationMap(
                object_name=replica.object_name,
                entries=dict(p["entries"]),
                replica_nodes=tuple(p["replica_nodes"]),
            ),
            stripes=[_copy_placement(s) for s in p["stripes"]],
            header_bytes=p["header"],
            trailer_bytes=p["trailer"],
            meta_epoch=replica.epoch,
        )
        self.objects[obj.name] = obj
        self._invalidate_object_caches(obj.name)
        return obj

    # -- Integrity --------------------------------------------------------------

    def _verify_chunk(self, obj_name: str, loc, data) -> None:
        """End-to-end check: bytes just read must match the CRC recorded
        at Put.  Raises :class:`ChecksumError`; the scatter-gather layer
        treats it as non-retryable and falls straight back to degraded
        reconstruction (re-reading the same bad bytes cannot help, and a
        media error says nothing about the node's liveness)."""
        if not self.config.checksum_verify or not loc.checksum:
            return
        if chunk_checksum(data) != loc.checksum:
            raise ChecksumError(
                f"chunk {loc.chunk_key} of {obj_name!r} failed CRC in block {loc.block_id}"
            )

    # -- Get -------------------------------------------------------------------

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
        proc = self.sim.process(
            self.get_process(name, offset=offset, size=size, tenant=tenant)
        )
        self.sim.run()
        return proc.value

    def get_process(
        self,
        name: str,
        metrics: QueryMetrics | None = None,
        offset: int = 0,
        size: int | None = None,
        tenant: str | None = None,
    ):
        """Simulated Get: fetch the chunk ranges covering the byte range.

        Fusion stores chunks out of file order, so a ranged Get maps the
        requested range onto the file's segments (header, chunks, footer)
        and reads only the overlapping parts of each chunk — each from the
        single node holding it.
        """
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
                obj=name, store="fusion",
            )
        except DeadlineExceeded:
            if metrics is not None:
                metrics.deadline_exceeded += 1
            raise
        return data

    def _get_body(self, name: str, metrics: QueryMetrics | None, offset: int, size: int | None):
        if name in self.fallback_store.objects:
            data = yield from self.fallback_store.get_process(
                name, metrics, offset=offset, size=size
            )
            return data
        obj = self._lookup(name)
        chunks = obj.metadata.all_chunks()
        total = len(obj.header_bytes) + sum(c.size for c in chunks) + len(obj.trailer_bytes)
        if size is None:
            size = total - offset
        if offset < 0 or size < 0 or offset + size > total:
            raise ValueError(f"range [{offset}, {offset + size}) outside object of size {total}")
        if size == 0:
            return b""
        end = offset + size
        coordinator = self.cluster.coordinator_for(name)

        # Walk the file's segment map in byte order, collecting the parts
        # that overlap the requested range.  Local segments (header and
        # footer live with the replicated metadata) cost nothing.
        parts: list[tuple[int, bytes | None]] = []  # (segment_start, local bytes)
        fetch_ops = []
        fetch_starts = []
        header_end = len(obj.header_bytes)
        if offset < header_end:
            parts.append((offset, obj.header_bytes[offset : min(end, header_end)]))
        for meta in chunks:
            lo = max(offset, meta.offset)
            hi = min(end, meta.end_offset)
            if lo >= hi:
                continue
            loc = obj.location_map.lookup(meta.key)
            fetch_starts.append(lo)
            fetch_ops.append(
                self._fetch_chunk_range_op(
                    obj, coordinator, loc, lo - meta.offset, hi - lo, metrics
                )
            )
        trailer_start = total - len(obj.trailer_bytes)
        if end > trailer_start:
            lo = max(offset, trailer_start)
            parts.append((lo, obj.trailer_bytes[lo - trailer_start : end - trailer_start]))

        payloads = yield from execute_remote_ops(
            self.cluster, coordinator, fetch_ops, metrics, self.config.enable_rpc_batching, config=self.config
        )
        for start, payload in zip(fetch_starts, payloads):
            parts.append((start, payload))
        parts.sort(key=lambda item: item[0])
        # join() accepts buffer views directly; the single copy here is
        # the only materialisation on the whole range-read path.
        return b"".join(p for _start, p in parts)

    def _fetch_chunk_range_op(
        self,
        obj: StoredFusionObject,
        coordinator,
        loc,
        within: int,
        length: int,
        metrics: QueryMetrics | None,
    ) -> RemoteOp:
        """Op reading ``[within, within+length)`` of one chunk from its node."""
        node = self.cluster.node(loc.node_id)

        def degraded():
            chunk = yield from self._degraded_chunk_read(obj, loc, coordinator, metrics)
            return chunk[within : within + length]

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, loc.block_id)
        ):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(metrics, "chunk fetch")
            data = yield from node.read_block_range(
                loc.block_id,
                loc.offset_in_block + within,
                length,
                self.config.size_scale,
                metrics,
            )
            if within == 0 and length == loc.size:
                # Whole-chunk read: the recorded CRC covers exactly these
                # bytes (partial ranges are verified via reconstruction
                # only when a full read flags the chunk).
                self._verify_chunk(obj.name, loc, data)
            return self.config.scaled(length), data

        return RemoteOp(node=node, execute=execute, fallback=degraded)

    # -- Degraded reads ----------------------------------------------------------

    def _locate_block(self, obj: StoredFusionObject, block_id: str):
        """Find the stripe placement and bin index holding ``block_id``."""
        for placement in obj.stripes:
            if block_id in placement.data_block_ids:
                return placement, placement.data_block_ids.index(block_id)
        raise KeyError(f"object {obj.name!r} has no data block {block_id!r}")

    def _degraded_chunk_read(
        self,
        obj: StoredFusionObject,
        loc,
        coordinator,
        metrics: QueryMetrics | None,
    ):
        """Reconstruct a chunk whose node is down, at the coordinator.

        Gathers ``k`` surviving blocks of the stripe, RS-decodes the lost
        bin, and slices the chunk out — the expensive path that justifies
        prompt recovery.  Reconstructed bins are cached (real bytes only;
        simulated costs are charged on every call).
        """
        chunk = yield from traced(
            self.sim,
            self._degraded_chunk_read_body(obj, loc, coordinator, metrics),
            "degraded_read", "store", obj=obj.name, block=loc.block_id,
        )
        return chunk

    def _degraded_chunk_read_body(self, obj, loc, coordinator, metrics):
        check_deadline(metrics, "degraded read")
        if metrics is not None:
            metrics.degraded_reads += 1
        placement, bin_idx = self._locate_block(obj, loc.block_id)
        k, n = self.config.code.k, self.config.code.n
        shards: list[np.ndarray | None] = [None] * n
        for i in range(k):
            if placement.data_sizes[i] == 0:
                shards[i] = np.zeros(0, dtype=np.uint8)

        # Pick the surviving shards to gather (first k in stripe order,
        # healthy nodes before suspect ones), then fetch them as one
        # scatter-gather round: the stripe spreads over distinct nodes,
        # so this is one RPC per surviving node either way, but the
        # reads overlap instead of serialising.
        pending = sum(1 for s in shards if s is not None)
        candidates: list[tuple[int, object, str]] = []
        for i in range(n):
            if shards[i] is not None:
                continue
            node = self.cluster.node(placement.node_ids[i])
            block_id = (
                placement.data_block_ids[i] if i < k else placement.parity_block_ids[i - k]
            )
            if not node.alive or not node.has_block(block_id):
                continue
            if not self.cluster.reachable(coordinator.node_id, node.node_id):
                # Partitioned away: the fetch RPC is deterministically
                # lost, so don't waste the timeout discovering it.
                continue
            candidates.append((i, node, block_id))
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
            [fetch_op(node, bid) for _i, node, bid in gather],
            metrics,
            self.config.enable_rpc_batching,
            config=self.config,
        )
        for (i, _node, _bid), data in zip(gather, payloads):
            shards[i] = data

        gathered = sum(s.size for s in shards if s is not None)
        yield from coordinator.compute(
            gathered * self.config.size_scale / coordinator.cpu_config.decode_bps, metrics
        )
        cached = self._degraded_bin_cache.get(loc.block_id)
        if cached is None:
            recovered = decode_stripe(self.config.code, shards, placement.data_sizes)
            cached = recovered[bin_idx]
            self._degraded_bin_cache[loc.block_id] = cached
        chunk = cached[loc.offset_in_block : loc.offset_in_block + loc.size]
        if (
            self.config.checksum_verify
            and loc.checksum
            and chunk_checksum(chunk) != loc.checksum
        ):
            # The reconstruction itself is wrong: one of the gathered
            # shards was silently corrupt (including, possibly, the
            # target block itself when this path was entered because a
            # direct read failed its CRC).  Fall back to checksum-guided
            # recovery over every reachable shard.
            if metrics is not None:
                metrics.checksum_failures += 1
            rebuilt = yield from self._verified_bin_recovery(
                obj, placement, bin_idx, coordinator, metrics
            )
            if rebuilt is not None:
                cached = rebuilt
                self._degraded_bin_cache[loc.block_id] = cached
                chunk = cached[loc.offset_in_block : loc.offset_in_block + loc.size]
        # Anti-entropy read-repair: this foreground read had to
        # reconstruct — queue the stripe for background repair so the
        # damage heals from traffic instead of waiting for a scrub.
        if self.config.read_repair_enabled:
            self.cluster.enqueue_read_repair(
                self, "fac", obj.name, placement.stripe_id
            )
        return chunk

    def _verified_bin_recovery(
        self, obj, placement: StripePlacement, bin_idx: int, coordinator, metrics
    ):
        """Checksum-guided reconstruction of one data bin.

        Gathers *every* reachable shard of the stripe (not just the
        first k), localises silently-corrupt shards with decode trials
        (:func:`repro.core.repair.find_bad_shards`), and decodes with
        them excluded.  Returns the recovered bin's bytes, or None when
        the stripe is damaged beyond what the code can localise.
        """
        from repro.core.repair import RepairError, find_bad_shards

        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.data_block_ids + placement.parity_block_ids
        shards: list[np.ndarray | None] = []
        for i in range(n):
            if i < k and placement.data_sizes[i] == 0:
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            node = self.cluster.node(placement.node_ids[i])
            if (
                not node.alive
                or not self.cluster.reachable(coordinator.node_id, node.node_id)
                or not node.has_block(block_ids[i])
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(block_ids[i], self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                node.endpoint, coordinator.endpoint, self.config.scaled(data.size), metrics
            )
            shards.append(data)
        yield from coordinator.compute(
            sum(s.size for s in shards if s is not None)
            * self.config.size_scale
            / coordinator.cpu_config.decode_bps,
            metrics,
        )
        try:
            bad = find_bad_shards(self.config.code, shards, placement.data_sizes)
            good = [s if i not in bad else None for i, s in enumerate(shards)]
            recovered = decode_stripe(self.config.code, good, placement.data_sizes)
        except (RepairError, DecodeError):
            return None
        return recovered[bin_idx]

    def _degraded_chunk_values(
        self, obj, meta: ColumnChunkMeta, loc, coordinator, metrics
    ):
        """Degraded read plus decode-to-values at the coordinator."""
        raw = yield from self._degraded_chunk_read(obj, loc, coordinator, metrics)
        yield from coordinator.compute(
            coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale),
            metrics,
        )
        return self._decode_cached(obj.name, meta, raw)

    # -- Query -----------------------------------------------------------------

    def query(
        self, sql: str | Query, tenant: str | None = None
    ) -> tuple[QueryResult, QueryMetrics]:
        """Run one query alone on an idle cluster (runs the simulation)."""
        metrics = QueryMetrics()
        proc = self.sim.process(self.query_process(sql, metrics, tenant=tenant))
        self.sim.run()
        return proc.value, metrics

    def query_process(
        self, sql: str | Query, metrics: QueryMetrics, tenant: str | None = None
    ):
        """Two-stage adaptive-pushdown execution.

        ``tenant`` stamps the metrics and charges the query against that
        tenant's quota buckets before any device work; an over-quota
        request is refused with a typed QuotaExceeded (``reject``) or
        demoted to the background lane (``demote``).  Delegations to the
        fallback store pass the already-stamped metrics, never the
        tenant kwarg, so a query is charged exactly once.
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
        if query.table in self.fallback_store.objects:
            result = yield from self.fallback_store.query_process(query, metrics)
            return result
        arm_deadline(self.sim, self.config, metrics)
        try:
            result = yield from traced(
                self.sim, self._query_body(query, metrics), "query", "store",
                metrics=metrics, table=query.table, store="fusion",
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

    def _query_body(self, query: Query, metrics: QueryMetrics):
        obj = self._lookup(query.table)
        physical = make_plan(query, obj.metadata.schema)
        coordinator = self.cluster.coordinator_for(obj.name)
        metrics.start_time = self.sim.now
        tracer = self.sim.tracer

        row_groups = engine.prune_row_groups(physical, obj.metadata)

        # Partial results: scan queries (no aggregates or GROUP BY) may
        # trade shed chunks for a typed PartialResult instead of failing
        # outright when admission control refuses ops.
        allow_shed = (
            self.config.allow_partial_results
            and not query.has_aggregates()
            and not query.group_by
        )

        # Fused fast path: when the whole query touches exactly one column
        # (a single filter leaf whose column is also the only projection),
        # a storage node's local bitmap is already the final bitmap for
        # its row group.  The node applies the Cost Equation locally and
        # answers filter + projection in one round trip with one decode.
        if self._fusable(physical):
            result = yield from traced(
                self.sim,
                self._fused_query(
                    obj, coordinator, physical, row_groups, metrics, allow_shed
                ),
                "fused_stage", "store", chunks=len(row_groups),
            )
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
            return result

        # ---- Filter stage: push every live leaf down, gather bitmaps. ----
        filter_span = (
            tracer.begin("filter_stage", cat="store") if tracer is not None else None
        )
        # Row-group bitmaps travel as Bitmap objects: each remembers its
        # wire form, so one bitmap is tokenised once however many ops
        # ship it.
        rg_selected: dict[int, Bitmap] = {}
        ops = []
        keys: list[tuple[int, int]] = []
        zero_bitmaps: dict[tuple[int, int], Bitmap] = {}
        for rg in row_groups:
            num_rows = obj.metadata.row_groups[rg].num_rows
            for op in physical.filter_ops:
                meta = obj.metadata.chunk(rg, op.column)
                if not leaf_may_match(
                    op.leaf, op.type, meta.stats.min_value, meta.stats.max_value
                ):
                    # Footer stats prove no row matches: skip the RPC.
                    zero_bitmaps[(rg, op.index)] = Bitmap.zeros(num_rows)
                    continue
                keys.append((rg, op.index))
                ops.append(self._filter_op(obj, coordinator, rg, op, meta, metrics))
        bitmaps_out = yield from execute_remote_ops(
            self.cluster, coordinator, ops, metrics, self.config.enable_rpc_batching,
            config=self.config, allow_shed=allow_shed,
        )
        leaf_results = dict(zip(keys, bitmaps_out))
        leaf_results.update(zero_bitmaps)

        # A shed filter leaf leaves its whole row group unanswerable:
        # drop the group and report the query as partial.
        shed_rgs: set[int] = set()
        shed_chunks = 0
        for (rg, _idx), bits in leaf_results.items():
            if bits is SHED:
                shed_chunks += 1
                shed_rgs.add(rg)

        for rg in row_groups:
            if rg in shed_rgs:
                continue
            num_rows = obj.metadata.row_groups[rg].num_rows
            bitmaps = [leaf_results[(rg, op.index)] for op in physical.filter_ops]
            if bitmaps:
                # Consolidation cost: tiny, linear in bitmap bytes.
                yield from coordinator.compute(
                    coordinator.scan_seconds(num_rows // 8 + 1, self.config.size_scale),
                    metrics,
                )
            bits = physical.combine_bitmaps([b.bits for b in bitmaps], num_rows)
            # A lone positive leaf is its own row-group bitmap: keep the
            # filter reply, whose wire form is already known.
            rg_selected[rg] = (
                bitmaps[0] if bitmaps and bits is bitmaps[0].bits else Bitmap(bits)
            )
        if filter_span is not None:
            tracer.finish(filter_span, ops=len(ops))

        # ---- Projection stage -------------------------------------------------
        if (
            self.config.enable_aggregate_pushdown
            and query.has_aggregates()
            and not query.group_by
        ):
            result = yield from traced(
                self.sim,
                self._aggregate_pushdown_stage(
                    obj, coordinator, physical, row_groups, rg_selected, metrics
                ),
                "aggregate_stage", "store",
            )
        else:
            projection_span = (
                tracer.begin("projection_stage", cat="store")
                if tracer is not None
                else None
            )
            rg_projected: dict[tuple[int, str], np.ndarray] = {}
            ops = []
            task_keys = []
            for rg in row_groups:
                if rg in shed_rgs:
                    continue
                bitmap = rg_selected[rg]
                indices = bitmap.indices()
                for col in physical.projection_columns:
                    type_ = physical.schema.field(col).type
                    if len(indices) == 0:
                        rg_projected[(rg, col)] = _empty_values(type_)
                        continue
                    meta = obj.metadata.chunk(rg, col)
                    task_keys.append((rg, col))
                    ops.append(
                        self._projection_op(
                            obj, coordinator, meta, type_, bitmap, indices, metrics
                        )
                    )
            values_out = yield from execute_remote_ops(
                self.cluster, coordinator, ops, metrics, self.config.enable_rpc_batching,
                config=self.config, allow_shed=allow_shed,
            )
            for key, values in zip(task_keys, values_out):
                if values is SHED:
                    # One shed projection chunk invalidates its whole row
                    # group (rows must carry every projected column).
                    shed_chunks += 1
                    shed_rgs.add(key[0])
                else:
                    rg_projected[key] = values
            kept = [rg for rg in row_groups if rg not in shed_rgs]
            result = engine.assemble_result(
                physical,
                obj.metadata,
                kept,
                {rg: rg_selected[rg].bits for rg in kept},
                rg_projected,
            )
            if projection_span is not None:
                tracer.finish(projection_span, ops=len(ops))
            if shed_chunks:
                metrics.partial_results += 1
                result = PartialResult(result, shed_chunks)

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
        return result

    @staticmethod
    def _fusable(physical: PhysicalPlan) -> bool:
        """True when the query is a single-column filter + projection."""
        ops = physical.filter_ops
        return (
            len(ops) == 1
            and not physical.query.has_aggregates()
            and not physical.query.group_by
            and physical.projection_columns == [ops[0].column]
        )

    def _fused_query(
        self, obj, coordinator, physical: PhysicalPlan, row_groups, metrics,
        allow_shed: bool = False,
    ):
        """Single-round execution of a one-column filter+projection query."""
        op = physical.filter_ops[0]
        rg_selected: dict[int, np.ndarray] = {}
        rg_projected: dict[tuple[int, str], np.ndarray] = {}
        type_ = physical.schema.field(op.column).type

        ops = []
        task_rgs = []
        for rg in row_groups:
            num_rows = obj.metadata.row_groups[rg].num_rows
            meta = obj.metadata.chunk(rg, op.column)
            if not leaf_may_match(op.leaf, op.type, meta.stats.min_value, meta.stats.max_value):
                rg_selected[rg] = np.zeros(num_rows, dtype=np.bool_)
                rg_projected[(rg, op.column)] = _empty_values(type_)
                continue
            task_rgs.append(rg)
            ops.append(self._fused_op(obj, coordinator, op, meta, type_, metrics))
        fused_out = yield from execute_remote_ops(
            self.cluster, coordinator, ops, metrics, self.config.enable_rpc_batching,
            config=self.config, allow_shed=allow_shed,
        )
        shed_rgs: set[int] = set()
        shed_chunks = 0
        for rg, out in zip(task_rgs, fused_out):
            if out is SHED:
                shed_chunks += 1
                shed_rgs.add(rg)
                continue
            bits, values = out
            rg_selected[rg] = bits
            rg_projected[(rg, op.column)] = values
        kept = [rg for rg in row_groups if rg not in shed_rgs]
        result = engine.assemble_result(
            physical, obj.metadata, kept, rg_selected, rg_projected
        )
        if shed_chunks:
            metrics.partial_results += 1
            return PartialResult(result, shed_chunks)
        return result

    def _fused_op(self, obj, coordinator, op, meta: ColumnChunkMeta, type_, metrics) -> RemoteOp:
        """One fused filter+projection op on the node holding the chunk."""
        loc = obj.location_map.lookup(meta.key)
        node = self.cluster.node(loc.node_id)

        # Degraded: reconstruct at the coordinator and process there.
        def degraded():
            metrics.fallback_chunks += 1
            values = yield from self._degraded_chunk_values(
                obj, meta, loc, coordinator, metrics
            )
            yield from coordinator.compute(
                2 * coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                metrics,
            )
            bits = eval_leaf(op.leaf, op.type, values)
            return bits, values[np.flatnonzero(bits)]

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, loc.block_id)
        ):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(metrics, "fused chunk")
            data = yield from node.read_block_range(
                loc.block_id, loc.offset_in_block, loc.size, self.config.size_scale, metrics
            )
            self._verify_chunk(obj.name, loc, data)
            fraction = self._page_fraction(obj.name, meta, op, data)
            yield from node.compute(
                fraction
                * (
                    node.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                    + 2 * node.scan_seconds(meta.plain_size, self.config.size_scale)
                ),
                metrics,
            )
            values = self._decode_cached(obj.name, meta, data)
            bits = eval_leaf(op.leaf, op.type, values)
            indices = np.flatnonzero(bits)
            selectivity = len(indices) / len(bits) if len(bits) else 0.0
            decision = self.estimator.decide(selectivity, meta.size, meta.plain_size)
            rec = self.audit.record(
                obj.name, meta.key, "fused", self.config.pushdown_mode.value, decision
            )
            bitmap_wire = Bitmap(bits).wire_size()

            if decision.push_down:
                metrics.pushed_down_chunks += 1
                selected = values[indices]
                selected_bytes = plain_size(type_, selected)
                if rec is not None:
                    rec.actual_chosen_bytes = selected_bytes
                    rec.actual_alternative_bytes = loc.size
                reply = bitmap_wire + selected_bytes
                return self.config.scaled(reply), ("pushed", bits, selected)
            # Unfavourable cost product: reply with the bitmap plus the
            # whole compressed chunk; the coordinator decodes locally.
            metrics.fallback_chunks += 1
            if rec is not None:
                rec.actual_chosen_bytes = loc.size
                rec.actual_alternative_bytes = plain_size(type_, values[indices])
            reply = bitmap_wire + loc.size
            return self.config.scaled(reply), ("fallback", bits, values[indices])

        def finalize(reply):
            kind, bits, values = reply
            if kind == "fallback":
                yield from coordinator.compute(
                    coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                    + coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                    metrics,
                )
            return bits, values

        return RemoteOp(
            node=node,
            request_bytes=self.config.scaled(OP_REQUEST_BYTES),
            execute=execute,
            finalize=finalize,
            fallback=degraded,
        )

    def _filter_op(self, obj, coordinator, rg: int, op, meta: ColumnChunkMeta, metrics) -> RemoteOp:
        """One pushed-down filter: runs in-situ, replies with a bitmap."""
        loc = obj.location_map.lookup(meta.key)
        node = self.cluster.node(loc.node_id)

        def degraded():
            values = yield from self._degraded_chunk_values(
                obj, meta, loc, coordinator, metrics
            )
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, self.config.size_scale), metrics
            )
            return Bitmap(eval_leaf(op.leaf, op.type, values))

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, loc.block_id)
        ):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(metrics, "filter chunk")
            data = yield from node.read_block_range(
                loc.block_id, loc.offset_in_block, loc.size, self.config.size_scale, metrics
            )
            self._verify_chunk(obj.name, loc, data)
            fraction = self._page_fraction(obj.name, meta, op, data)
            yield from node.compute(
                fraction
                * (
                    node.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                    + node.scan_seconds(meta.plain_size, self.config.size_scale)
                ),
                metrics,
            )
            values = self._decode_cached(obj.name, meta, data)
            reply = Bitmap(eval_leaf(op.leaf, op.type, values))
            return self.config.scaled(reply.wire_size()), reply

        return RemoteOp(
            node=node,
            request_bytes=self.config.scaled(OP_REQUEST_BYTES),
            execute=execute,
            fallback=degraded,
        )

    def _projection_op(
        self,
        obj,
        coordinator,
        meta: ColumnChunkMeta,
        type_: ColumnType,
        bitmap: Bitmap,
        indices: np.ndarray,
        metrics: QueryMetrics,
    ) -> RemoteOp:
        """One projection: pushed down or fetched, per the Cost Equation."""
        loc = obj.location_map.lookup(meta.key)
        node = self.cluster.node(loc.node_id)

        def degraded():
            metrics.fallback_chunks += 1
            values = yield from self._degraded_chunk_values(
                obj, meta, loc, coordinator, metrics
            )
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, self.config.size_scale), metrics
            )
            return values[indices]

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, loc.block_id)
        ):
            return RemoteOp(standalone=degraded)

        selectivity = len(indices) / len(bitmap) if len(bitmap) else 0.0
        decision = self.estimator.decide(selectivity, meta.size, meta.plain_size)
        rec = self.audit.record(
            obj.name, meta.key, "projection", self.config.pushdown_mode.value, decision
        )

        # Graceful degradation: when the holding node's service queue is
        # already at its admission bound, override a pushdown decision
        # and fetch the compressed chunk for coordinator-side evaluation
        # instead — the node serves a plain read (no decode/scan burn).
        pressured = decision.push_down and self._node_pressured(node)
        if pressured:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "pushdown.pressure_fallback", cat="overload", node=node.node_id
                )

        if decision.push_down and not pressured:
            metrics.pushed_down_chunks += 1
            # Ship the bitmap with the op; receive selected raw values.
            bitmap_wire = bitmap.wire_size()

            def execute_pushed():
                check_deadline(metrics, "projection chunk")
                data = yield from node.read_block_range(
                    loc.block_id, loc.offset_in_block, loc.size, self.config.size_scale, metrics
                )
                self._verify_chunk(obj.name, loc, data)
                yield from node.compute(
                    node.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                    + node.scan_seconds(meta.plain_size, self.config.size_scale),
                    metrics,
                )
                values = self._decode_cached(obj.name, meta, data)[indices]
                reply = plain_size(type_, values)
                if rec is not None:
                    rec.actual_chosen_bytes = reply
                    rec.actual_alternative_bytes = loc.size
                return self.config.scaled(reply), values

            return RemoteOp(
                node=node,
                request_bytes=self.config.scaled(OP_REQUEST_BYTES + bitmap_wire),
                execute=execute_pushed,
                fallback=degraded,
            )

        # Fallback: fetch the compressed chunk, process at the coordinator.
        metrics.fallback_chunks += 1

        def execute_fetch():
            check_deadline(metrics, "projection chunk")
            data = yield from node.read_block_range(
                loc.block_id, loc.offset_in_block, loc.size, self.config.size_scale, metrics
            )
            self._verify_chunk(obj.name, loc, data)
            return self.config.scaled(loc.size), data

        def finalize(data):
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                + coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                metrics,
            )
            values = self._decode_cached(obj.name, meta, data)[indices]
            if rec is not None:
                # What the pushdown branch would have shipped, measured on
                # the decoded values rather than estimated from the footer.
                rec.actual_chosen_bytes = loc.size
                rec.actual_alternative_bytes = plain_size(type_, values)
            return values

        return RemoteOp(
            node=node,
            request_bytes=self.config.scaled(OP_REQUEST_BYTES),
            execute=execute_fetch,
            finalize=finalize,
            fallback=degraded,
        )

    def _aggregate_pushdown_stage(
        self,
        obj,
        coordinator,
        physical: PhysicalPlan,
        row_groups: list[int],
        rg_selected: dict[int, Bitmap],
        metrics: QueryMetrics,
    ):
        """Extension: nodes compute per-chunk partial aggregates in-situ."""
        query = physical.query
        aggs = [item for item in query.select if isinstance(item, Aggregate)]
        matched = sum(rg_selected[rg].count() for rg in row_groups)

        ops = []
        task_keys = []
        for rg in row_groups:
            bitmap = rg_selected[rg]
            if not bitmap.bits.any():
                continue
            for agg_idx, agg in enumerate(aggs):
                if agg.column is None:
                    continue  # COUNT(*) comes from bitmaps alone
                meta = obj.metadata.chunk(rg, agg.column)
                task_keys.append((rg, agg_idx))
                ops.append(
                    self._partial_aggregate_op(obj, coordinator, meta, agg, bitmap, metrics)
                )
        partials_out = yield from execute_remote_ops(
            self.cluster, coordinator, ops, metrics, self.config.enable_rpc_batching, config=self.config
        )
        partials_by_agg: dict[int, list[dict]] = {i: [] for i in range(len(aggs))}
        for (rg, agg_idx), partial in zip(task_keys, partials_out):
            partials_by_agg[agg_idx].append(partial)

        results = []
        for agg_idx, agg in enumerate(aggs):
            if agg.column is None:
                results.append(matched)
            else:
                partials = partials_by_agg[agg_idx] or [{"count": 0}]
                results.append(merge_partial_aggregates(agg, partials))
        labels = [f"{a.func.value}({a.column or '*'})" for a in aggs]
        return QueryResult(
            columns=labels,
            rows=None,
            aggregates=results,
            matched_rows=matched,
            total_rows=obj.metadata.num_rows,
        )

    def _partial_aggregate_op(
        self, obj, coordinator, meta, agg: Aggregate, bitmap: Bitmap, metrics
    ) -> RemoteOp:
        """One pushed-down partial aggregate over a chunk."""
        loc = obj.location_map.lookup(meta.key)
        node = self.cluster.node(loc.node_id)

        def degraded():
            values = yield from self._degraded_chunk_values(
                obj, meta, loc, coordinator, metrics
            )
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, self.config.size_scale), metrics
            )
            return partial_aggregate(agg, values[bitmap.indices()], bitmap.count())

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, loc.block_id)
        ):
            return RemoteOp(standalone=degraded)

        bitmap_wire = bitmap.wire_size()

        def execute():
            check_deadline(metrics, "aggregate chunk")
            data = yield from node.read_block_range(
                loc.block_id, loc.offset_in_block, loc.size, self.config.size_scale, metrics
            )
            self._verify_chunk(obj.name, loc, data)
            yield from node.compute(
                node.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                + node.scan_seconds(meta.plain_size, self.config.size_scale),
                metrics,
            )
            values = self._decode_cached(obj.name, meta, data)[bitmap.indices()]
            partial = partial_aggregate(agg, values, bitmap.count())
            metrics.pushed_down_chunks += 1
            return self.config.scaled(SCALAR_RESULT_BYTES), partial

        return RemoteOp(
            node=node,
            request_bytes=self.config.scaled(OP_REQUEST_BYTES + bitmap_wire),
            execute=execute,
            fallback=degraded,
        )

    # -- Delete ----------------------------------------------------------------

    def delete(self, name: str) -> int:
        """Remove an object: drop its blocks and location map everywhere.
        Returns the number of blocks reclaimed.

        Runs the WAL protocol (intent -> drop metadata replicas -> drop
        data blocks -> commit) so a coordinator crash mid-delete leaves
        a recoverable log instead of silent orphans.  Once the intent is
        logged the delete is durable: recovery *redoes* it (every stage
        is idempotent).  Metadata-plane operation: no simulated data
        movement, exactly as in the seed."""
        if name in self.fallback_store.objects:
            return self.fallback_store.delete(name)
        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        replica_nodes = tuple(obj.location_map.replica_nodes)
        blocks: list[tuple[int, str]] = []
        block_sizes: list[int] = []
        for placement in obj.stripes:
            block_ids = placement.data_block_ids + placement.parity_block_ids
            for i, bid in enumerate(block_ids):
                size = (
                    placement.data_sizes[i]
                    if i < self.config.code.k
                    else placement.max_size
                )
                if size > 0:
                    blocks.append((placement.node_ids[i], bid))
                    block_sizes.append(size)

        op_id = self.wal.new_op_id()
        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=0,
                phase="intent",
                op="delete",
                store_kind="fac",
                object_name=name,
                blocks=tuple(blocks),
                block_sizes=tuple(block_sizes),
                replica_nodes=replica_nodes,
            ),
        )
        self.wal.crash_point(coordinator, "delete:after-intent")

        # The object leaves the namespace at intent time; everything
        # below (and recovery, after a crash) is idempotent cleanup.
        del self.objects[name]
        self._invalidate_object_caches(name)

        for nid in replica_nodes:
            self.cluster.node(nid).drop_meta(name)
        self.wal.crash_point(coordinator, "delete:after-meta-drop")

        reclaimed = 0
        for node_id, bid in blocks:
            node = self.cluster.node(node_id)
            if node.has_block(bid):
                node.drop_block(bid)
                reclaimed += 1
        self.wal.crash_point(coordinator, "delete:after-data-drop")

        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=1,
                phase="commit",
                op="delete",
                store_kind="fac",
                object_name=name,
                replica_nodes=replica_nodes,
            ),
        )
        self.wal.crash_point(coordinator, "delete:after-commit")
        return reclaimed

    # -- Scrubbing -----------------------------------------------------------

    def verify_object(self, name: str):
        """Scrub one object: re-read stripes, check parity (runs the sim)."""
        proc = self.sim.process(self.verify_object_process(name))
        self.sim.run()
        return proc.value

    def verify_object_process(self, name: str):
        if name in self.fallback_store.objects:
            report = yield from self.fallback_store.verify_object_process(name)
            return report
        report = yield from traced(
            self.sim, self._verify_object_body(name), "scrub", "store",
            obj=name, store="fusion",
        )
        return report

    def _verify_object_body(self, name: str):
        from repro.core.scrub import ScrubReport, check_stripe

        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        report = ScrubReport(object_name=name)
        k = self.config.code.k
        for placement in obj.stripes:
            data_blocks: list = []
            parity_blocks: list = []
            for i, bid in enumerate(placement.data_block_ids + placement.parity_block_ids):
                node = self.cluster.node(placement.node_ids[i])
                if i < k and placement.data_sizes[i] == 0:
                    data_blocks.append(np.zeros(0, dtype=np.uint8))
                    continue
                if not node.alive or not node.has_block(bid):
                    (data_blocks if i < k else parity_blocks).append(None)
                    continue
                payload = yield from node.read_block(bid, self.config.size_scale)
                yield from self.cluster.network.transfer(
                    node.endpoint, coordinator.endpoint, self.config.scaled(payload.size)
                )
                if (
                    self.config.checksum_verify
                    and placement.checksums
                    and chunk_checksum(payload) != placement.checksums[i]
                ):
                    report.checksum_mismatch_blocks.append(bid)
                (data_blocks if i < k else parity_blocks).append(payload)
            yield from coordinator.compute(
                sum(b.size for b in data_blocks if b is not None)
                * self.config.size_scale
                / coordinator.cpu_config.decode_bps
            )
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
        """Rebuild every Fusion block the node held (runs the simulation)."""
        proc = self.sim.process(self.recover_node_process(node_id))
        self.sim.run()
        return proc.value

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
        fallback = yield from self.fallback_store.recover_node_process(node_id, metrics)
        return rebuilt + fallback

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
        self,
        obj: StoredFusionObject,
        placement: StripePlacement,
        lost,
        metrics: QueryMetrics | None = None,
    ):
        yield from traced(
            self.sim,
            self._rebuild_stripe_body(obj, placement, lost, metrics),
            "repair_stripe", "store", obj=obj.name, stripe=placement.stripe_id,
        )

    def _rebuild_stripe_body(
        self,
        obj: StoredFusionObject,
        placement: StripePlacement,
        lost,
        metrics: QueryMetrics | None = None,
    ):
        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.data_block_ids + placement.parity_block_ids
        rescue = self._pick_rescue_node(
            set(placement.node_ids), placement.node_ids[lost[0]]
        )

        shards: list[np.ndarray | None] = []
        for i in range(n):
            if i in lost:
                shards.append(None)
                continue
            node = self.cluster.node(placement.node_ids[i])
            if (
                not node.alive
                or not self.cluster.reachable(rescue.node_id, node.node_id)
                or not node.has_block(block_ids[i])
            ):
                # Empty data blocks are never written; represent as zero-size.
                if i < k and placement.data_sizes[i] == 0:
                    shards.append(np.zeros(0, dtype=np.uint8))
                else:
                    shards.append(None)
                continue
            data = yield from node.read_block(block_ids[i], self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                node.endpoint, rescue.endpoint, self.config.scaled(data.size), metrics
            )
            shards.append(data)

        recovered = decode_stripe(self.config.code, shards, placement.data_sizes)
        reencoded = encode_stripe(self.config.code, recovered)
        all_blocks = reencoded.shards()
        for i in lost:
            payload = all_blocks[i]
            if i < k and payload.size == 0:
                placement.node_ids[i] = rescue.node_id
                continue
            if self._rewrite_mismatch(placement, i, payload):
                continue
            yield from rescue.disk.write(self.config.scaled(payload.size), metrics)
            rescue.put_block(block_ids[i], payload)
            self._relocate_block(obj, placement, i, rescue.node_id)
            self._invalidate_block(obj, block_ids[i])

    def _rewrite_mismatch(self, placement: StripePlacement, i: int, payload) -> bool:
        """Reconstructed block payload fails its Put-time CRC: refuse to
        write bytes we can prove are wrong (and count the event)."""
        if (
            not self.config.checksum_verify
            or not placement.checksums
            or chunk_checksum(payload) == placement.checksums[i]
        ):
            return False
        self.cluster.metrics.checksum_failures += 1
        return True

    def _relocate_block(
        self, obj: StoredFusionObject, placement: StripePlacement, i: int, node_id: int
    ) -> None:
        """Point the placement (and, for data bins, the location map) at
        the node now holding stripe position ``i``."""
        placement.node_ids[i] = node_id
        if i < self.config.code.k:
            block_id = placement.data_block_ids[i]
            for key, loc in list(obj.location_map.entries.items()):
                if loc.block_id == block_id:
                    obj.location_map.entries[key] = ChunkLocation(
                        chunk_key=loc.chunk_key,
                        node_id=node_id,
                        block_id=loc.block_id,
                        offset_in_block=loc.offset_in_block,
                        size=loc.size,
                        checksum=loc.checksum,
                    )

    def _invalidate_block(self, obj: StoredFusionObject, block_id: str) -> None:
        """A block was rewritten (repair) or changed reachability: drop
        every cached artefact derived from it."""
        self._degraded_bin_cache.pop(block_id)
        for key, loc in obj.location_map.entries.items():
            if loc.block_id == block_id:
                self._decode_cache.pop((obj.name, key))
                self._page_index_cache.pop((obj.name, key))

    def repair_stripe_process(
        self, name: str, stripe_id: int, metrics: QueryMetrics | None = None
    ):
        """Diagnose and repair one stripe: reads every reachable block,
        isolates missing/corrupt positions (``repro.core.repair``),
        reconstructs them, and rewrites — corrupt blocks in place on
        their live node, unreachable ones onto an alive rescue node,
        updating the placement and the chunk location map.  Returns the
        number of blocks rewritten (0 when the stripe is healthy)."""
        written = yield from traced(
            self.sim,
            self._repair_stripe_body(name, stripe_id, metrics),
            "repair_stripe", "store", obj=name, stripe=stripe_id,
        )
        return written

    def _repair_stripe_body(
        self, name: str, stripe_id: int, metrics: QueryMetrics | None = None
    ):
        from repro.core.repair import localise_stripe

        obj = self._lookup(name)
        placement = obj.stripes[stripe_id]
        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.data_block_ids + placement.parity_block_ids
        coordinator = self.cluster.coordinator_for(name)

        shards: list[np.ndarray | None] = []
        for i in range(n):
            if i < k and placement.data_sizes[i] == 0:
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            node = self.cluster.node(placement.node_ids[i])
            if (
                not node.alive
                or not self.cluster.reachable(coordinator.node_id, node.node_id)
                or not node.has_block(block_ids[i])
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(block_ids[i], self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                node.endpoint, coordinator.endpoint, self.config.scaled(data.size), metrics
            )
            shards.append(data)

        yield from coordinator.compute(
            sum(s.size for s in shards if s is not None)
            * self.config.size_scale
            / coordinator.cpu_config.decode_bps,
            metrics,
        )
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
            self._invalidate_block(obj, block_ids[i])
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
        moved = yield from traced(
            self.sim,
            self._migrate_stripe_body(name, stripe_id, targets, metrics),
            "migrate_stripe", "store", obj=name, stripe=stripe_id,
        )
        return moved

    def _migrate_stripe_body(
        self, name: str, stripe_id: int, targets, metrics: QueryMetrics | None = None
    ):
        from repro.core.rebalance import MigrationEntry

        obj = self._lookup(name)
        placement = obj.stripes[stripe_id]
        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.data_block_ids + placement.parity_block_ids
        coordinator = self.cluster.coordinator_for(name)

        moves: list[tuple[int, str, int, int]] = []
        relocated = False
        for i in range(n):
            src, dst = placement.node_ids[i], targets[i]
            if src == dst:
                continue
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
                block_id=bid, object_name=name, store_kind="fac",
                stripe_id=stripe_id, position=i, src=src, dst=dst,
            )
            self.cluster.migrations[bid] = entry
            ok = yield from self._copy_block_for_migration(
                obj, placement, i, bid, src, dst, coordinator, metrics
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

        # Phase 2 — republish: flip placement, location map and the
        # durable replicas to the destinations in one epoch bump (no
        # yields between relocate and publish, so readers see either the
        # whole old placement or the whole new one).
        for i, bid, src, dst, entry in copied:
            self._relocate_block(obj, placement, i, dst)
            self._invalidate_block(obj, bid)
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
        self, obj, placement, i, bid, src, dst, coordinator, metrics
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
            payload = yield from self._reconstruct_shard(
                obj, placement, i, coordinator, metrics
            )
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

    def _reconstruct_shard(self, obj, placement, i, coordinator, metrics):
        """Process: rebuild stripe position ``i`` at the coordinator from
        the surviving shards; None when fewer than k are reachable."""
        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.data_block_ids + placement.parity_block_ids
        shards: list[np.ndarray | None] = []
        for j in range(n):
            if j == i:
                shards.append(None)
                continue
            if j < k and placement.data_sizes[j] == 0:
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            node = self.cluster.node(placement.node_ids[j])
            if not node.alive or not node.has_block(block_ids[j]):
                shards.append(None)
                continue
            data = yield from node.read_block(block_ids[j], self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                node.endpoint, coordinator.endpoint, self.config.scaled(data.size), metrics
            )
            shards.append(data)
        yield from coordinator.compute(
            sum(s.size for s in shards if s is not None)
            * self.config.size_scale
            / coordinator.cpu_config.decode_bps,
            metrics,
        )
        try:
            recovered = decode_stripe(self.config.code, shards, placement.data_sizes)
        except DecodeError:
            return None
        return encode_stripe(self.config.code, recovered).shards()[i]

    def stripes_of(self, name: str) -> list[int]:
        """Stripe ids of one object (repair-manager iteration helper)."""
        return [p.stripe_id for p in self._lookup(name).stripes]

    def stripes_on_node(self, node_id: int) -> list[tuple[str, int]]:
        """Every (object, stripe) with a block placed on ``node_id``."""
        found = []
        for obj in self.objects.values():
            for placement in obj.stripes:
                if node_id in placement.node_ids:
                    found.append((obj.name, placement.stripe_id))
        return found

    # -- Consistency ------------------------------------------------------------

    def fsck(self):
        """Cluster-wide invariant check over this store and its fixed
        fallback: blocks on disk vs location maps vs metadata replicas,
        plus per-chunk checksums and pending WAL operations.  Metadata-
        plane: runs outside the simulation (see :mod:`repro.core.fsck`)."""
        from repro.core.fsck import fsck

        return fsck(self)

    def recover(self):
        """Replay the cluster-wide WAL after a coordinator crash: roll
        committed operations forward from surviving metadata replicas
        (quorum read, newest epoch wins), roll uncommitted Puts back
        with orphan-block GC, and redo Deletes."""
        from repro.core.fsck import recover

        return recover(self)

    # -- helpers ---------------------------------------------------------------

    def _lookup(self, name: str) -> StoredFusionObject:
        try:
            return self.objects[name]
        except KeyError:
            raise ObjectNotFound(f"no object named {name!r}") from None

    def object_plan(self, sql: str | Query) -> PhysicalPlan:
        """Plan a query against a stored object's schema (no execution)."""
        query = parse(sql) if isinstance(sql, str) else sql
        if query.table in self.fallback_store.objects:
            return self.fallback_store.object_plan(query)
        return make_plan(query, self._lookup(query.table).metadata.schema)

    def chunk_nodes(self, name: str) -> dict[tuple[int, int], int]:
        """Which node holds each chunk (for placement assertions in tests)."""
        obj = self._lookup(name)
        return {key: loc.node_id for key, loc in obj.location_map.entries.items()}


def _copy_placement(p: StripePlacement) -> StripePlacement:
    """Deep copy of a stripe placement (all fields are flat lists)."""
    return StripePlacement(
        stripe_id=p.stripe_id,
        node_ids=list(p.node_ids),
        data_block_ids=list(p.data_block_ids),
        parity_block_ids=list(p.parity_block_ids),
        data_sizes=list(p.data_sizes),
        checksums=list(p.checksums),
    )


def _empty_values(type_: ColumnType) -> np.ndarray:
    dtype = type_.numpy_dtype
    return np.empty(0, dtype=object) if dtype is None else np.zeros(0, dtype=dtype)


def node_id_rotate(node_id: int, num_nodes: int) -> int:
    """Next node id, wrapping around the cluster."""
    return (node_id + 1) % num_nodes
