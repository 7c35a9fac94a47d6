"""The baseline object store (MinIO/Ceph-like).

Erasure-codes an object into fixed-size blocks with no knowledge of its
internal structure, so column chunks straddle block — and therefore node —
boundaries.  Queries run entirely at a coordinator node, which first
*reassembles* every needed column chunk by fetching its fragments from the
nodes holding them (the paper's Figure 5 behaviour) and only then decodes,
filters and projects.  The one optimisation it shares with Fusion is
footer-based row-group pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.membership import install_membership
from repro.cluster.qos import QuotaExceeded, install_qos
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
from repro.cluster.simcore import QueueFull, all_of
from repro.core import engine
from repro.core.cache import LruDict
from repro.core.config import StoreConfig
from repro.core.fixed import FixedLayout, build_fixed_layout
from repro.core.location_map import ChecksumError, chunk_checksum
from repro.core.scatter_gather import SHED, RemoteOp, execute_remote_ops
from repro.core.wal import MetaReplica, QuorumLost, WalRecord, WalWriter
from repro.ec.stripe import DecodeError, decode_stripe, encode_stripe
from repro.obs.audit import PushdownAuditLog
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import install_telemetry
from repro.obs.tracer import Tracer, traced
from repro.format.metadata import FileMetadata
from repro.format.pages import decode_column_chunk
from repro.format.reader import read_metadata
from repro.sql.ast_nodes import Query
from repro.sql.local import QueryResult
from repro.sql.parser import parse
from repro.sql.planner import PhysicalPlan, plan as make_plan
from repro.sql.predicate import eval_leaf


class ObjectNotFound(KeyError):
    """Raised when querying an object that was never Put."""


@dataclass
class StoredFixedObject:
    """Placement record for one object striped into fixed blocks."""

    name: str
    metadata: FileMetadata
    total_bytes: int
    layout: FixedLayout
    data_block_nodes: dict[int, int] = field(default_factory=dict)  # block idx -> node
    parity_block_nodes: dict[tuple[int, int], int] = field(default_factory=dict)
    header_bytes: bytes = b""
    trailer_bytes: bytes = b""
    #: Nodes holding this object's metadata replica (placement maps +
    #: block checksums), chosen as the coordinator slot's successors.
    replica_nodes: tuple[int, ...] = ()
    #: CRC of each stored block's payload at Put time, by block id.
    block_checksums: dict[str, int] = field(default_factory=dict)
    #: Bumped on every replica republish (repair relocations).
    meta_epoch: int = 0

    def data_block_id(self, index: int) -> str:
        return f"{self.name}/b{index}"

    def parity_block_id(self, stripe: int, j: int) -> str:
        return f"{self.name}/s{stripe}/p{j}"


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


class BaselineStore:
    """Fixed-block erasure-coded store with coordinator-side execution."""

    def __init__(self, cluster: Cluster, config: StoreConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config or StoreConfig()
        self.sim = cluster.sim
        self.objects: dict[str, StoredFixedObject] = {}
        # Decoded-value memoisation: chunks are immutable once Put, and
        # simulated decode time is charged independently, so re-decoding
        # the same chunk for every simulated query would only burn real
        # wall-clock in benchmarks.  Bounded LRU, invalidated on
        # put/delete so a reused name never serves stale values.
        self._decode_cache: LruDict[tuple[str, int, str], np.ndarray] = LruDict(
            self.config.decode_cache_entries
        )
        # Degraded-read reconstruction cache (see FusionStore).
        self._degraded_block_cache: LruDict[tuple[str, int], np.ndarray] = LruDict(
            self.config.degraded_cache_entries
        )
        # Put/Delete write-ahead log.  When this store serves as a
        # FusionStore's fixed-block fallback, the owner overwrites this
        # with its own writer so both stores share one op-id space.
        self.wal = WalWriter(cluster, self.config.wal_enabled)
        cluster.health.suspicion_threshold = self.config.suspicion_threshold
        cluster.health.greylist_factor = self.config.greylist_latency_factor
        cluster.add_liveness_listener(self._on_liveness)
        # Observability (repro.obs): metadata-plane, never schedules
        # simulation events.  The baseline never evaluates the Cost
        # Equation, so its audit log stays empty unless a FusionStore
        # owner replaces it with the shared one.
        if self.config.tracing_enabled and self.sim.tracer is None:
            self.sim.tracer = Tracer(self.sim)
        if self.config.metrics_registry_enabled and cluster.metrics.registry is None:
            cluster.metrics.registry = MetricsRegistry()
        self.audit = PushdownAuditLog(self.sim, self.config.pushdown_audit_enabled)
        # Overload protection (shared with FusionStore when this store is
        # its fallback): both installs are idempotent no-ops at the
        # default knobs.
        install_admission_control(cluster, self.config)
        install_circuit_breakers(cluster, self.config)
        # Elastic membership (shared with a FusionStore owner; idempotent
        # and a no-op at the default membership_enabled=False knob).
        install_membership(cluster, self.config)
        # Per-tenant QoS (shared with a FusionStore owner; idempotent and
        # a no-op at the default qos_enabled=False knob).
        install_qos(cluster, self.config)
        # Continuous telemetry: scraper + SLO engine + exemplars.  The
        # scraper rides the kernel's clock-listener hook (observe-only,
        # never schedules events); no-op at the default knobs and
        # idempotent for the store pair sharing one cluster.
        install_telemetry(cluster, self.config)

    def _on_liveness(self, node_id: int, alive: bool) -> None:
        # Reconstructions cached while a node was down may differ from
        # what a direct read now returns (and vice versa): drop them.
        self._degraded_block_cache.clear()

    def _usable(self, node) -> bool:
        """Node is alive, not suspect, not greylisted (fail-slow), and
        its circuit breaker admits ops.  Greylisted nodes route to
        degraded reconstruction like the FusionStore's — unless the
        min-healthy floor (:meth:`_floor_attempt`) says reconstruction
        would itself be starved of usable sources."""
        return (
            node.alive
            and self.cluster.routable(node.node_id)
            and not self.cluster.health.is_greylisted(node.node_id)
        )

    def _floor_attempt(self, obj, block_index: int) -> bool:
        """Min-healthy-floor guard: True when an op should still attempt
        its non-usable holder because the block's stripe has fewer than
        k usable sources (degraded reconstruction would be forced onto
        non-usable nodes anyway).  Only evaluated after :meth:`_usable`
        fails, so fault-free runs never pay the scan."""
        k = self.config.code.k
        stripe = obj.layout.stripe_of(block_index)
        holder_ids = [
            obj.data_block_nodes[b.index] for b in obj.layout.stripe_blocks(stripe)
        ] + [
            nid
            for (s, _j), nid in obj.parity_block_nodes.items()
            if s == stripe
        ]
        usable = sum(1 for nid in holder_ids if self._usable(self.cluster.node(nid)))
        return usable < k

    def _invalidate_object_caches(self, name: str) -> None:
        """Drop every cached artefact derived from object ``name``."""
        self._decode_cache.evict_where(lambda key: key[0] == name)
        self._degraded_block_cache.evict_where(lambda key: key[0] == name)

    # -- Put -----------------------------------------------------------------

    def put(self, name: str, data: bytes, tenant: str | None = None) -> PutReport:
        """Store an object, running the simulation to completion."""
        proc = self.sim.process(self.put_process(name, data, tenant=tenant))
        self.sim.run()
        return proc.value

    def put_process(self, name: str, data: bytes, tenant: str | None = None):
        """Simulated Put: client -> coordinator -> striped across nodes.

        ``tenant`` charges the Put against that tenant's quota buckets;
        see ``FusionStore.put_process`` for the policy semantics.
        """
        if tenant is not None and self.cluster.qos is not None:
            self.cluster.qos.admit(tenant, nbytes=len(data))
        report = yield from traced(
            self.sim, self._put_body(name, data), "put", "store",
            obj=name, store="baseline",
        )
        return report

    def _put_body(self, name: str, data: bytes):
        if name in self.objects:
            raise ValueError(f"object {name!r} already exists (updates are fresh inserts)")
        # A reused name (put after delete) must never serve bytes decoded
        # from its previous incarnation.
        self._invalidate_object_caches(name)
        start = self.sim.now
        # Put budget, checked between phases (see FusionStore._put_body).
        deadline = Deadline.from_config(self.sim, self.config)
        config = self.config
        metadata = read_metadata(data)
        layout = build_fixed_layout(config.code, len(data), config.real_block_size)
        coordinator = self.cluster.coordinator_for(name)

        obj = StoredFixedObject(
            name=name,
            metadata=metadata,
            total_bytes=len(data),
            layout=layout,
        )
        obj.header_bytes = data[:4]
        footer_start = metadata.all_chunks()[-1].end_offset if metadata.all_chunks() else 4
        obj.trailer_bytes = data[footer_start:]
        raw = np.frombuffer(data, dtype=np.uint8)

        # Precompute every placement so the WAL intent can name all the
        # blocks the operation will write.  Placement draws stay in seed
        # order (one per stripe); the metadata replica set is derived
        # from the coordinator's hash slot (its successors) rather than
        # drawn, so the shared placement RNG is not perturbed.
        stripe_nodes: list[list[int]] = []
        wal_blocks: list[tuple[int, str]] = []
        wal_sizes: list[int] = []
        for stripe in range(layout.num_stripes):
            blocks = layout.stripe_blocks(stripe)
            nodes = self.cluster.place_stripe(f"{name}/s{stripe}", config.code.n)
            stripe_nodes.append(nodes)
            max_size = max(b.size for b in blocks)
            for j, block in enumerate(blocks):
                obj.data_block_nodes[block.index] = nodes[j]
                wal_blocks.append((nodes[j], obj.data_block_id(block.index)))
                wal_sizes.append(block.size)
            for pj in range(config.code.parity):
                node_id = nodes[config.code.k + pj] if config.code.k + pj < len(nodes) else nodes[-1]
                obj.parity_block_nodes[(stripe, pj)] = node_id
                wal_blocks.append((node_id, obj.parity_block_id(stripe, pj)))
                wal_sizes.append(max_size)
        replica_count = config.resolved_metadata_replicas(self.cluster.num_nodes)
        if self.cluster.membership is not None:
            # Ring-derived replica set: stays on active members as the
            # topology changes (the successor scheme below would pin
            # replicas to drained slots).
            obj.replica_nodes = tuple(
                self.cluster.membership.placement_for(f"{name}/meta", replica_count)
            )
        else:
            obj.replica_nodes = tuple(
                (coordinator.node_id + i) % self.cluster.num_nodes for i in range(replica_count)
            )

        op_id = self.wal.new_op_id()
        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=0,
                phase="intent",
                op="put",
                store_kind="fixed",
                object_name=name,
                blocks=tuple(wal_blocks),
                block_sizes=tuple(wal_sizes),
                replica_nodes=obj.replica_nodes,
            ),
        )
        self.wal.crash_point(coordinator, "put:after-intent")

        # Ship the object from the client to the coordinator.
        yield from self.cluster.network.transfer(
            self.cluster.client, coordinator.endpoint, config.scaled(len(data))
        )
        if deadline is not None:
            deadline.check("put transfer")

        # Encode and distribute stripe by stripe.
        writes = []
        for stripe in range(layout.num_stripes):
            blocks = layout.stripe_blocks(stripe)
            payloads = [raw[b.start : b.end] for b in blocks]
            encode_bytes = sum(p.size for p in payloads)
            yield from coordinator.compute(
                encode_bytes * config.size_scale / coordinator.cpu_config.decode_bps
            )
            encoded = encode_stripe(config.code, list(payloads))
            nodes = stripe_nodes[stripe]
            for j, block in enumerate(blocks):
                bid = obj.data_block_id(block.index)
                obj.block_checksums[bid] = chunk_checksum(encoded.data_blocks[j])
                writes.append(
                    self.sim.process(
                        self._write_block(coordinator, nodes[j], bid, encoded.data_blocks[j])
                    )
                )
            for pj, parity in enumerate(encoded.parity_blocks):
                bid = obj.parity_block_id(stripe, pj)
                obj.block_checksums[bid] = chunk_checksum(parity)
                writes.append(
                    self.sim.process(
                        self._write_block(
                            coordinator, obj.parity_block_nodes[(stripe, pj)], bid, parity
                        )
                    )
                )
        yield all_of(self.sim, writes)
        if deadline is not None:
            deadline.check("put writes")
        self.wal.crash_point(coordinator, "put:after-data")

        # Materialize metadata replicas.  The fixed-block store's
        # placement map is a handful of dict entries per block; the
        # paper charges map replication only for Fusion's chunk-granular
        # location map, so this publish is metadata-plane (no simulated
        # bytes — fault-free runs stay event-identical to the seed).
        replica = self._meta_snapshot(obj)
        for nid in obj.replica_nodes:
            node = self.cluster.node(nid)
            if node.alive:
                node.put_meta(name, replica)
        self.wal.crash_point(coordinator, "put:after-meta")

        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=1,
                phase="commit",
                op="put",
                store_kind="fixed",
                object_name=name,
                replica_nodes=obj.replica_nodes,
            ),
        )
        self.wal.crash_point(coordinator, "put:after-commit")

        # Atomic visibility: the object appears only after commit.
        self.objects[name] = obj
        return PutReport(
            object_name=name,
            strategy="fixed",
            stored_bytes=layout.stored_bytes,
            data_bytes=len(data),
            overhead_vs_optimal=self._overhead_vs_optimal(layout),
            layout_build_seconds=0.0,
            simulated_put_seconds=self.sim.now - start,
            num_stripes=layout.num_stripes,
        )

    def _overhead_vs_optimal(self, layout: FixedLayout) -> float:
        optimal = layout.total_bytes * (1.0 + self.config.code.optimal_overhead)
        return (layout.stored_bytes - optimal) / optimal

    def _write_block(self, coordinator, node_id: int, block_id: str, payload: np.ndarray):
        node = self.cluster.node(node_id)
        yield from self.cluster.network.transfer(
            coordinator.endpoint, node.endpoint, self.config.scaled(payload.size)
        )
        yield from node.disk.read(self.config.scaled(payload.size))  # write ~ read cost
        node.put_block(block_id, payload)

    # -- Metadata replicas ------------------------------------------------------

    def _meta_snapshot(self, obj: StoredFixedObject) -> MetaReplica:
        """Deep snapshot of the object's durable metadata for a replica
        node (never aliases live placement state)."""
        return MetaReplica(
            object_name=obj.name,
            epoch=obj.meta_epoch,
            store_kind="fixed",
            payload={
                "metadata": obj.metadata,
                "total_bytes": obj.total_bytes,
                "layout": obj.layout,
                "data_block_nodes": dict(obj.data_block_nodes),
                "parity_block_nodes": dict(obj.parity_block_nodes),
                "replica_nodes": tuple(obj.replica_nodes),
                "block_checksums": dict(obj.block_checksums),
                "header": obj.header_bytes,
                "trailer": obj.trailer_bytes,
            },
        )

    def _republish_meta(self, obj: StoredFixedObject) -> None:
        """Repair relocated blocks: push a fresh snapshot (bumped epoch)
        to the reachable replica holders.  Metadata-plane operation.

        Quorum-guarded exactly like the Fusion store's republish: with
        3+ holders, reaching only a minority raises
        :class:`~repro.core.wal.QuorumLost` instead of installing a
        minority-epoch snapshot (split-brain guard)."""
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
        # Placement changed: cached decodes/reconstructions may describe
        # bytes about to be GC'd from their old node.  Real-bytes caches
        # only — dropping them never perturbs the event stream.
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
                and existing.store_kind == "fixed"
                and existing.epoch >= obj.meta_epoch
            ):
                continue
            if replica is None:
                replica = self._meta_snapshot(obj)
            node.put_meta(obj.name, replica)
            synced += 1
        return synced

    def _install_from_replica(self, replica: MetaReplica) -> StoredFixedObject:
        """Recovery roll-forward: rebuild the in-memory object from a
        surviving metadata replica snapshot."""
        p = replica.payload
        obj = StoredFixedObject(
            name=replica.object_name,
            metadata=p["metadata"],
            total_bytes=p["total_bytes"],
            layout=p["layout"],
            data_block_nodes=dict(p["data_block_nodes"]),
            parity_block_nodes=dict(p["parity_block_nodes"]),
            header_bytes=p["header"],
            trailer_bytes=p["trailer"],
            replica_nodes=tuple(p["replica_nodes"]),
            block_checksums=dict(p["block_checksums"]),
            meta_epoch=replica.epoch,
        )
        self.objects[obj.name] = obj
        self._invalidate_object_caches(obj.name)
        return obj

    # -- Integrity --------------------------------------------------------------

    def _verify_block(self, obj: StoredFixedObject, block_id: str, data) -> None:
        """Whole-block reads must match the CRC recorded at Put; raises
        :class:`ChecksumError` (non-retryable — the scatter-gather layer
        falls back to degraded reconstruction)."""
        if not self.config.checksum_verify:
            return
        want = obj.block_checksums.get(block_id)
        if want and chunk_checksum(data) != want:
            raise ChecksumError(f"block {block_id} of {obj.name!r} failed CRC")

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
        query: QueryMetrics | None = None,
        offset: int = 0,
        size: int | None = None,
        tenant: str | None = None,
    ):
        """Simulated Get: fetch the covering block fragments to the
        coordinator and reassemble the byte range."""
        if query is None:
            # Deadlines and the tenant id ride on the metrics object;
            # synthesize a carrier when either needs one so bare Gets
            # are budgeted and fair-scheduled too.
            deadline = Deadline.from_config(self.sim, self.config)
            if deadline is not None or tenant is not None:
                query = QueryMetrics()
                query.deadline = deadline
        else:
            arm_deadline(self.sim, self.config, query)
        if tenant is not None:
            query.tenant = tenant
            if self.cluster.qos is not None:
                self.cluster.qos.admit(
                    tenant, query, nbytes=0 if size is None else size
                )
        try:
            data = yield from traced(
                self.sim, self._get_body(name, query, offset, size), "get", "store",
                obj=name, store="baseline",
            )
        except DeadlineExceeded:
            if query is not None:
                query.deadline_exceeded += 1
            raise
        return data

    def _get_body(self, name: str, query: QueryMetrics | None, offset: int, size: int | None):
        obj = self._lookup(name)
        if size is None:
            size = obj.total_bytes - offset
        if offset < 0 or size < 0 or offset + size > obj.total_bytes:
            raise ValueError(
                f"range [{offset}, {offset + size}) outside object of "
                f"size {obj.total_bytes}"
            )
        if size == 0:
            return b""
        coordinator = self.cluster.coordinator_for(name)
        fragments = obj.layout.locate(offset, size)
        parts = yield from execute_remote_ops(
            self.cluster,
            coordinator,
            [
                self._fetch_fragment_op(
                    obj, coordinator, f.block_index, f.block_offset, f.length, query
                )
                for f in fragments
            ],
            query,
            self.config.enable_rpc_batching,
            config=self.config,
        )
        return b"".join(parts)

    def _fetch_fragment_op(self, obj, coordinator, block_index, offset, length, query) -> RemoteOp:
        """Op reading one block fragment on its node and shipping it back."""
        node = self.cluster.node(obj.data_block_nodes[block_index])

        def degraded():
            block = yield from self._degraded_block_read(
                obj, coordinator, block_index, query
            )
            return block[offset : offset + length]

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, block_index)
        ):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(query, "block fragment")
            data = yield from node.read_block_range(
                obj.data_block_id(block_index), offset, length, self.config.size_scale, query
            )
            if offset == 0 and length == obj.layout.blocks[block_index].size:
                # Whole-block read (the default I/O granularity): the
                # recorded CRC covers exactly these bytes.
                self._verify_block(obj, obj.data_block_id(block_index), data)
            return self.config.scaled(length), data

        return RemoteOp(node=node, execute=execute, fallback=degraded)

    def _degraded_block_read(self, obj, coordinator, block_index: int, query):
        """Reconstruct one lost block at the coordinator from its stripe.

        Gathers k surviving shards (skipping dead nodes), RS-decodes, and
        returns the target block's bytes.  Reconstructed blocks are cached
        by content; simulated costs are charged on every call.
        """
        block = yield from traced(
            self.sim,
            self._degraded_block_read_body(obj, coordinator, block_index, query),
            "degraded_read", "store", obj=obj.name, block=obj.data_block_id(block_index),
        )
        return block

    def _degraded_block_read_body(self, obj, coordinator, block_index: int, query):
        import numpy as np

        check_deadline(query, "degraded read")
        if query is not None:
            query.degraded_reads += 1
        k, n = self.config.code.k, self.config.code.n
        stripe = obj.layout.stripe_of(block_index)
        blocks = obj.layout.stripe_blocks(stripe)
        target_j = block_index - stripe * k
        data_sizes = [b.size for b in blocks] + [0] * (k - len(blocks))

        shards: list[np.ndarray | None] = [None] * n
        for i in range(len(blocks), k):
            shards[i] = np.zeros(0, dtype=np.uint8)

        # Pick the surviving shards to gather (first k in stripe order,
        # preferring nodes the health tracker trusts), then fetch them as
        # one scatter-gather round (see FusionStore).
        pending = sum(1 for s in shards if s is not None)
        candidates: list[tuple[int, object, str]] = []
        for i in range(n):
            if shards[i] is not None:
                continue
            if i < k:
                bid = obj.data_block_id(blocks[i].index)
                nid = obj.data_block_nodes[blocks[i].index]
            else:
                bid = obj.parity_block_id(stripe, i - k)
                nid = obj.parity_block_nodes[(stripe, i - k)]
            node = self.cluster.node(nid)
            if not node.alive or not node.has_block(bid):
                continue
            if not self.cluster.reachable(coordinator.node_id, node.node_id):
                # Partitioned away: the fetch RPC is deterministically
                # lost, so don't waste the timeout discovering it.
                continue
            candidates.append((i, node, bid))
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

        def fetch_op(node, bid: str) -> RemoteOp:
            def execute():
                data = yield from node.read_block(bid, self.config.size_scale, query)
                return self.config.scaled(data.size), data

            return RemoteOp(node=node, execute=execute)

        payloads = yield from execute_remote_ops(
            self.cluster,
            coordinator,
            [fetch_op(node, bid) for _i, node, bid in gather],
            query,
            self.config.enable_rpc_batching,
            config=self.config,
        )
        for (i, _node, _bid), data in zip(gather, payloads):
            shards[i] = data

        gathered = sum(s.size for s in shards if s is not None)
        yield from coordinator.compute(
            gathered * self.config.size_scale / coordinator.cpu_config.decode_bps, query
        )
        cache_key = (obj.name, block_index)
        cached = self._degraded_block_cache.get(cache_key)
        if cached is None:
            recovered = decode_stripe(self.config.code, shards, data_sizes)
            cached = recovered[target_j]
            self._degraded_block_cache[cache_key] = cached
        want = obj.block_checksums.get(obj.data_block_id(block_index))
        if self.config.checksum_verify and want and chunk_checksum(cached) != want:
            # A gathered shard was silently corrupt (possibly the target
            # block itself): checksum-guided recovery over every
            # reachable shard.
            if query is not None:
                query.checksum_failures += 1
            rebuilt = yield from self._verified_block_recovery(
                obj, stripe, target_j, data_sizes, coordinator, query
            )
            if rebuilt is not None:
                cached = rebuilt
                self._degraded_block_cache[cache_key] = cached
        # Anti-entropy read-repair: this foreground read had to
        # reconstruct — queue the stripe for background repair.
        if self.config.read_repair_enabled:
            self.cluster.enqueue_read_repair(self, "fixed", obj.name, stripe)
        return cached

    def _verified_block_recovery(
        self, obj, stripe: int, target_j: int, data_sizes, coordinator, query
    ):
        """Checksum-guided reconstruction of one data block: gather every
        reachable shard, localise corrupt ones by decode trials, decode
        with them excluded.  Returns the block's bytes, or None when the
        stripe is damaged beyond what the code can localise."""
        from repro.core.repair import RepairError, find_bad_shards

        k, n = self.config.code.k, self.config.code.n
        blocks = obj.layout.stripe_blocks(stripe)
        shards: list[np.ndarray | None] = []
        for i in range(n):
            if i < k and i >= len(blocks):
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            if i < k:
                bid = obj.data_block_id(blocks[i].index)
                nid = obj.data_block_nodes[blocks[i].index]
            else:
                bid = obj.parity_block_id(stripe, i - k)
                nid = obj.parity_block_nodes[(stripe, i - k)]
            node = self.cluster.node(nid)
            if (
                not node.alive
                or not self.cluster.reachable(coordinator.node_id, node.node_id)
                or not node.has_block(bid)
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(bid, self.config.size_scale, query)
            yield from self.cluster.network.transfer(
                node.endpoint, coordinator.endpoint, self.config.scaled(data.size), query
            )
            shards.append(data)
        yield from coordinator.compute(
            sum(s.size for s in shards if s is not None)
            * self.config.size_scale
            / coordinator.cpu_config.decode_bps,
            query,
        )
        try:
            bad = find_bad_shards(self.config.code, shards, data_sizes)
            good = [s if i not in bad else None for i, s in enumerate(shards)]
            recovered = decode_stripe(self.config.code, good, data_sizes)
        except (RepairError, DecodeError):
            return None
        return recovered[target_j]

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
        """Simulated query: reassemble needed chunks, execute locally.

        ``tenant`` stamps the metrics and charges the query against that
        tenant's quota buckets (typed QuotaExceeded / demotion per
        policy) before any device work, exactly like FusionStore.
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
                metrics=metrics, table=query.table, store="baseline",
            )
        except DeadlineExceeded:
            fail_query(self.cluster, metrics, deadline=True)
            raise
        except QueueFull as exc:
            fail_query(self.cluster, metrics, shed=exc.shed)
            raise
        return result

    def _query_body(self, query: Query, metrics: QueryMetrics):
        obj = self._lookup(query.table)
        physical = make_plan(query, obj.metadata.schema)
        coordinator = self.cluster.coordinator_for(obj.name)
        metrics.start_time = self.sim.now

        row_groups = engine.prune_row_groups(physical, obj.metadata)
        columns = engine.needed_columns(physical, query)
        needed = [(rg, col) for rg in row_groups for col in columns]
        allow_shed = (
            self.config.allow_partial_results
            and not query.has_aggregates()
            and not query.group_by
        )

        # Stage 1: fetch every needed chunk to the coordinator, in parallel.
        fetch_body = (
            self._fetch_chunks_block_granular(obj, coordinator, needed, metrics, allow_shed)
            if self.config.baseline_whole_block_reads
            else self._fetch_chunks_byte_granular(obj, coordinator, needed, metrics, allow_shed)
        )
        decoded, shed_ops = yield from traced(
            self.sim, fetch_body, "fetch_stage", "store", chunks=len(needed)
        )
        # A shed fetch leaves its chunk unreadable; drop the whole row
        # group and report the query as partial.
        shed_rgs = {rg for (rg, _col), values in decoded.items() if values is SHED}
        kept = [rg for rg in row_groups if rg not in shed_rgs]

        # Stage 2: local evaluation at the coordinator.
        eval_span = (
            self.sim.tracer.begin("eval_stage", cat="store")
            if self.sim.tracer is not None
            else None
        )
        rg_selected: dict[int, np.ndarray] = {}
        for rg in kept:
            num_rows = obj.metadata.row_groups[rg].num_rows
            leaf_bitmaps = []
            for op in physical.filter_ops:
                check_deadline(metrics, "filter eval")
                values = decoded[(rg, op.column)]
                meta = obj.metadata.chunk(rg, op.column)
                yield from coordinator.compute(
                    coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                    metrics,
                )
                leaf_bitmaps.append(eval_leaf(op.leaf, op.type, values))
            rg_selected[rg] = physical.combine_bitmaps(leaf_bitmaps, num_rows)

        rg_projected: dict[tuple[int, str], np.ndarray] = {}
        for rg in kept:
            indices = np.flatnonzero(rg_selected[rg])
            for col in physical.projection_columns:
                check_deadline(metrics, "projection eval")
                meta = obj.metadata.chunk(rg, col)
                yield from coordinator.compute(
                    coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                    metrics,
                )
                rg_projected[(rg, col)] = decoded[(rg, col)][indices]

        result = engine.assemble_result(
            physical, obj.metadata, kept, rg_selected, rg_projected
        )
        if eval_span is not None:
            self.sim.tracer.finish(eval_span)
        if shed_ops:
            metrics.partial_results += 1
            result = PartialResult(result, shed_ops)
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

    def _fetch_chunks_block_granular(
        self, obj, coordinator, needed, metrics: QueryMetrics, allow_shed: bool = False
    ):
        """Fetch whole erasure-code blocks covering the needed chunks.

        Blocks are the placement and I/O unit of fixed-block stores, so
        chunk reassembly reads every block a chunk touches in full (each
        block once per query).  Chunk bytes are then sliced out locally
        and decoded at the coordinator.  Returns ``(decoded, shed_ops)``:
        chunks touching a shed block map to the ``SHED`` sentinel.
        """
        block_set: set[int] = set()
        for rg, col in needed:
            meta = obj.metadata.chunk(rg, col)
            for f in obj.layout.locate(meta.offset, meta.size):
                block_set.add(f.block_index)

        indices = sorted(block_set)
        payloads = yield from execute_remote_ops(
            self.cluster,
            coordinator,
            [
                self._fetch_fragment_op(
                    obj, coordinator, idx, 0, obj.layout.blocks[idx].size, metrics
                )
                for idx in indices
            ],
            metrics,
            self.config.enable_rpc_batching,
            config=self.config,
            allow_shed=allow_shed,
        )
        block_bytes = dict(zip(indices, payloads))
        shed_ops = sum(1 for p in payloads if p is SHED)

        decoded = {}
        for rg, col in needed:
            meta = obj.metadata.chunk(rg, col)
            fragments = obj.layout.locate(meta.offset, meta.size)
            if any(block_bytes[f.block_index] is SHED for f in fragments):
                decoded[(rg, col)] = SHED
                continue
            cache_key = (obj.name, rg, col)
            cached = self._decode_cache.get(cache_key)
            if cached is None:
                parts = [
                    block_bytes[f.block_index][f.block_offset : f.block_offset + f.length]
                    for f in fragments
                ]
                cached = decode_column_chunk(
                    parts[0] if len(parts) == 1 else b"".join(parts)
                )
                self._decode_cache[cache_key] = cached
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale),
                metrics,
            )
            decoded[(rg, col)] = cached
        return decoded, shed_ops

    def _fetch_chunks_byte_granular(
        self, obj, coordinator, needed, metrics: QueryMetrics, allow_shed: bool = False
    ):
        """Reassemble each needed chunk from its exact byte fragments.

        All chunks' fragments travel in one scatter-gather round (batched:
        one reply per holding node); each chunk is then decoded at the
        coordinator once its bytes are assembled.  Returns
        ``(decoded, shed_ops)``: chunks with a shed fragment map to the
        ``SHED`` sentinel and are never decoded.
        """
        frag_ops = []
        frag_owner: list[int] = []  # fragment -> index into ``needed``
        for ci, (rg, col) in enumerate(needed):
            meta = obj.metadata.chunk(rg, col)
            for f in obj.layout.locate(meta.offset, meta.size):
                frag_owner.append(ci)
                frag_ops.append(
                    self._fetch_fragment_op(
                        obj, coordinator, f.block_index, f.block_offset, f.length, metrics
                    )
                )
        payloads = yield from execute_remote_ops(
            self.cluster,
            coordinator,
            frag_ops,
            metrics,
            self.config.enable_rpc_batching,
            config=self.config,
            allow_shed=allow_shed,
        )
        shed_ops = sum(1 for p in payloads if p is SHED)
        chunk_parts: dict[int, list] = {ci: [] for ci in range(len(needed))}
        for ci, payload in zip(frag_owner, payloads):
            chunk_parts[ci].append(payload)

        # NOTE: decode_one runs as a spawned process, so it must never
        # raise typed errors (they would escape the event loop rather
        # than reach the query); deadline enforcement stays with the
        # scatter-gather stage and the eval loops.
        def decode_one(rg: int, col: str, parts: list):
            meta = obj.metadata.chunk(rg, col)
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale),
                metrics,
            )
            cache_key = (obj.name, rg, col)
            cached = self._decode_cache.get(cache_key)
            if cached is None:
                cached = decode_column_chunk(
                    parts[0] if len(parts) == 1 else b"".join(parts)
                )
                self._decode_cache[cache_key] = cached
            return cached

        decoded: dict = {}
        decode_keys = []
        decodes = []
        for ci, (rg, col) in enumerate(needed):
            if any(p is SHED for p in chunk_parts[ci]):
                decoded[(rg, col)] = SHED
                continue
            decode_keys.append((rg, col))
            decodes.append(self.sim.process(decode_one(rg, col, chunk_parts[ci])))
        barrier = all_of(self.sim, decodes)
        yield barrier
        decoded.update(dict(zip(decode_keys, barrier.value)))
        return decoded, shed_ops

    # -- Delete ----------------------------------------------------------------

    def delete(self, name: str) -> int:
        """Remove an object: drop its blocks everywhere.  Returns the
        number of blocks reclaimed.

        Runs the WAL protocol (intent -> drop metadata replicas -> drop
        data blocks -> commit); once the intent is logged the delete is
        durable and recovery redoes it (every stage is idempotent).
        (Metadata-plane operation: no simulated data movement.)"""
        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        blocks: list[tuple[int, str]] = []
        sizes: list[int] = []
        for index, nid in obj.data_block_nodes.items():
            blocks.append((nid, obj.data_block_id(index)))
            sizes.append(obj.layout.blocks[index].size)
        for (stripe, pj), nid in obj.parity_block_nodes.items():
            blocks.append((nid, obj.parity_block_id(stripe, pj)))
            sizes.append(max(b.size for b in obj.layout.stripe_blocks(stripe)))
        op_id = self.wal.new_op_id()
        self.wal.append(
            coordinator,
            WalRecord(
                op_id=op_id,
                seq=0,
                phase="intent",
                op="delete",
                store_kind="fixed",
                object_name=name,
                blocks=tuple(blocks),
                block_sizes=tuple(sizes),
                replica_nodes=tuple(obj.replica_nodes),
            ),
        )
        self.wal.crash_point(coordinator, "delete:after-intent")

        # The object leaves the namespace at intent time; everything
        # below (and recovery, after a crash) is idempotent cleanup.
        del self.objects[name]
        self._invalidate_object_caches(name)

        for nid in obj.replica_nodes:
            self.cluster.node(nid).drop_meta(name)
        self.wal.crash_point(coordinator, "delete:after-meta-drop")

        reclaimed = 0
        for nid, bid in blocks:
            node = self.cluster.node(nid)
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
                store_kind="fixed",
                object_name=name,
                replica_nodes=tuple(obj.replica_nodes),
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
        report = yield from traced(
            self.sim, self._verify_object_body(name), "scrub", "store",
            obj=name, store="baseline",
        )
        return report

    def _verify_object_body(self, name: str):
        from repro.core.scrub import ScrubReport, check_stripe

        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        report = ScrubReport(object_name=name)
        k, n = self.config.code.k, self.config.code.n
        for stripe in range(obj.layout.num_stripes):
            blocks = obj.layout.stripe_blocks(stripe)
            data_sizes = [b.size for b in blocks] + [0] * (k - len(blocks))
            data_blocks: list = []
            parity_blocks: list = []
            for i in range(n):
                if i < k:
                    if i >= len(blocks):
                        data_blocks.append(np.zeros(0, dtype=np.uint8))
                        continue
                    bid = obj.data_block_id(blocks[i].index)
                    nid = obj.data_block_nodes[blocks[i].index]
                else:
                    bid = obj.parity_block_id(stripe, i - k)
                    nid = obj.parity_block_nodes[(stripe, i - k)]
                node = self.cluster.node(nid)
                if not node.alive or not node.has_block(bid):
                    (data_blocks if i < k else parity_blocks).append(None)
                    continue
                payload = yield from node.read_block(bid, self.config.size_scale)
                yield from self.cluster.network.transfer(
                    node.endpoint, coordinator.endpoint, self.config.scaled(payload.size)
                )
                want = obj.block_checksums.get(bid)
                if self.config.checksum_verify and want and chunk_checksum(payload) != want:
                    report.checksum_mismatch_blocks.append(bid)
                (data_blocks if i < k else parity_blocks).append(payload)
            yield from coordinator.compute(
                sum(b.size for b in data_blocks if b is not None)
                * self.config.size_scale
                / coordinator.cpu_config.decode_bps
            )
            verdict = check_stripe(self.config.code, data_blocks, parity_blocks, data_sizes)
            report.stripes_checked += 1
            if verdict == "corrupt":
                report.corrupt_stripes.append(stripe)
            elif verdict == "incomplete":
                report.incomplete_stripes.append(stripe)
        return report

    # -- Fault tolerance ---------------------------------------------------------

    def recover_node(self, node_id: int) -> int:
        """Reconstruct every block the given node held, placing the
        replacements on other nodes.  Returns the number of blocks rebuilt.
        (Runs the simulation.)"""
        proc = self.sim.process(self.recover_node_process(node_id))
        self.sim.run()
        return proc.value

    def recover_node_process(self, node_id: int, metrics: QueryMetrics | None = None):
        rebuilt = 0
        for obj in self.objects.values():
            touched = False
            for stripe in range(obj.layout.num_stripes):
                holders = self._stripe_holders(obj, stripe)
                lost = [
                    i for i, h in enumerate(holders) if h is not None and h[1] == node_id
                ]
                if not lost:
                    continue
                rebuilt += len(lost)
                touched = True
                yield from self._rebuild_stripe(obj, stripe, holders, lost, metrics)
            if touched:
                self._republish_meta(obj)
        return rebuilt

    def _stripe_holders(self, obj, stripe: int) -> list[tuple[str, int] | None]:
        """Stripe-aligned (block_id, node_id) holders: positions 0..k-1
        are data (None for trailing blocks that do not exist in a partial
        stripe), k..n-1 are parity."""
        k, n = self.config.code.k, self.config.code.n
        blocks = obj.layout.stripe_blocks(stripe)
        holders: list[tuple[str, int] | None] = []
        for b in blocks:
            holders.append((obj.data_block_id(b.index), obj.data_block_nodes[b.index]))
        while len(holders) < k:
            holders.append(None)
        for pj in range(n - k):
            holders.append(
                (obj.parity_block_id(stripe, pj), obj.parity_block_nodes[(stripe, pj)])
            )
        return holders

    def _pick_rescue_node(
        self, holder_ids: set[int], lost_node_id: int, reachable_from: int | None = None
    ):
        """An *alive* node to host rebuilt blocks, preferring non-holders.

        Matches the seed's choice (smallest non-holder id, else the lost
        node's successor) whenever every node is alive.
        ``reachable_from`` additionally excludes nodes partitioned away
        from the repairing coordinator."""

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
        self, obj, stripe: int, holders, lost: list[int], metrics: QueryMetrics | None = None
    ):
        """Gather surviving shards, RS-decode, re-encode, re-place lost ones."""
        yield from traced(
            self.sim,
            self._rebuild_stripe_body(obj, stripe, holders, lost, metrics),
            "repair_stripe", "store", obj=obj.name, stripe=stripe,
        )

    def _rebuild_stripe_body(
        self, obj, stripe: int, holders, lost: list[int], metrics: QueryMetrics | None = None
    ):
        k, n = self.config.code.k, self.config.code.n
        blocks = obj.layout.stripe_blocks(stripe)
        data_sizes = [b.size for b in blocks] + [0] * (k - len(blocks))
        holder_ids = {h[1] for h in holders if h is not None}
        rescue_node = self._pick_rescue_node(holder_ids, holders[lost[0]][1])
        shards: list[np.ndarray | None] = []
        for i, holder in enumerate(holders):
            if holder is None:
                # A never-written trailing data block of a partial stripe:
                # its content is the empty block the encoder padded with.
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            bid, nid = holder
            if i in lost:
                shards.append(None)
                continue
            node = self.cluster.node(nid)
            if (
                not node.alive
                or not self.cluster.reachable(rescue_node.node_id, node.node_id)
                or not node.has_block(bid)
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(bid, self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                node.endpoint, rescue_node.endpoint, self.config.scaled(data.size), metrics
            )
            shards.append(data)
        recovered = decode_stripe(self.config.code, shards, data_sizes)
        reencoded = encode_stripe(self.config.code, recovered)
        for i in lost:
            bid, _old = holders[i]
            payload = reencoded.shards()[i]
            if i < k:
                payload = payload[: blocks[i].size]
            if self._rewrite_mismatch(obj, bid, payload):
                continue
            if i < k:
                self._relocate_block(obj, stripe, i, rescue_node.node_id)
            else:
                obj.parity_block_nodes[(stripe, i - k)] = rescue_node.node_id
            yield from rescue_node.disk.write(self.config.scaled(payload.size), metrics)
            rescue_node.put_block(bid, payload)
            self._invalidate_block(obj, stripe, i)

    def _rewrite_mismatch(self, obj, bid: str, payload) -> bool:
        """Reconstructed payload fails its Put-time CRC: refuse to write
        bytes we can prove are wrong (and count the event)."""
        want = obj.block_checksums.get(bid)
        if not self.config.checksum_verify or not want or chunk_checksum(payload) == want:
            return False
        self.cluster.metrics.checksum_failures += 1
        return True

    def _relocate_block(self, obj, stripe: int, i: int, node_id: int) -> None:
        """Point the placement maps at the node now holding position ``i``."""
        k = self.config.code.k
        if i < k:
            blocks = obj.layout.stripe_blocks(stripe)
            obj.data_block_nodes[blocks[i].index] = node_id
        else:
            obj.parity_block_nodes[(stripe, i - k)] = node_id

    def _invalidate_block(self, obj, stripe: int, i: int) -> None:
        """A stripe position was rewritten: drop cached artefacts that
        could have been derived from its previous bytes."""
        k = self.config.code.k
        if i < k:
            blocks = obj.layout.stripe_blocks(stripe)
            if i < len(blocks):
                self._degraded_block_cache.pop((obj.name, blocks[i].index))
                # Chunks straddle blocks, so decoded values keyed by
                # (rg, col) cannot be mapped back to one block cheaply:
                # evict the whole object (repair is rare).
                self._decode_cache.evict_where(lambda key: key[0] == obj.name)

    def repair_stripe_process(
        self, name: str, stripe_id: int, metrics: QueryMetrics | None = None
    ):
        """Diagnose and repair one stripe (see FusionStore's twin): read
        every reachable block, isolate missing/corrupt positions,
        reconstruct them, and rewrite — corrupt blocks in place, lost
        ones onto an alive rescue node.  Returns blocks rewritten."""
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
        k, n = self.config.code.k, self.config.code.n
        blocks = obj.layout.stripe_blocks(stripe_id)
        data_sizes = [b.size for b in blocks] + [0] * (k - len(blocks))
        holders = self._stripe_holders(obj, stripe_id)
        coordinator = self.cluster.coordinator_for(name)

        shards: list[np.ndarray | None] = []
        for i, holder in enumerate(holders):
            if holder is None:
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            bid, nid = holder
            node = self.cluster.node(nid)
            if (
                not node.alive
                or not self.cluster.reachable(coordinator.node_id, node.node_id)
                or not node.has_block(bid)
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(bid, self.config.size_scale, metrics)
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
        found, all_blocks = localise_stripe(self.config.code, shards, data_sizes)
        bad = [i for i in found if holders[i] is not None]
        written = 0
        for i in sorted(bad):
            bid, nid = holders[i]
            payload = all_blocks[i]
            if i < k:
                payload = payload[: blocks[i].size]
            if self._rewrite_mismatch(obj, bid, payload):
                continue
            holder = self.cluster.node(nid)
            if not holder.alive or not self.cluster.reachable(
                coordinator.node_id, holder.node_id
            ):
                # The holder set as it stands *now*: an earlier position
                # of this loop may already have moved onto a rescue node.
                holder = self._pick_rescue_node(
                    {h[1] for h in self._stripe_holders(obj, stripe_id) if h is not None},
                    nid,
                    reachable_from=coordinator.node_id,
                )
            yield from self.cluster.network.transfer(
                coordinator.endpoint, holder.endpoint, self.config.scaled(payload.size), metrics
            )
            yield from holder.disk.write(self.config.scaled(payload.size), metrics)
            holder.put_block(bid, payload)
            self._relocate_block(obj, stripe_id, i, holder.node_id)
            self._invalidate_block(obj, stripe_id, i)
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
        copy-then-republish-then-GC (see FusionStore's twin).  Returns
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
        holders = self._stripe_holders(obj, stripe_id)
        coordinator = self.cluster.coordinator_for(name)

        moves: list[tuple[int, str, int, int]] = []
        for i, holder in enumerate(holders):
            if holder is None:
                continue  # never-written trailing block of a partial stripe
            bid, src = holder
            dst = targets[i]
            if src == dst:
                continue
            if not self.cluster.node(dst).alive:
                continue  # destination unreachable: defer to a later run
            moves.append((i, bid, src, dst))

        # Phase 1 — copy (old placement keeps serving; each move is
        # registered as an intent before its bytes flow).
        copied: list[tuple[int, str, int, int, MigrationEntry]] = []
        for i, bid, src, dst in moves:
            entry = MigrationEntry(
                block_id=bid, object_name=name, store_kind="fixed",
                stripe_id=stripe_id, position=i, src=src, dst=dst,
            )
            self.cluster.migrations[bid] = entry
            ok = yield from self._copy_block_for_migration(
                obj, stripe_id, holders, i, bid, src, dst, coordinator, metrics
            )
            if ok:
                copied.append((i, bid, src, dst, entry))
            else:
                del self.cluster.migrations[bid]
        if not copied:
            return 0
        self.wal.crash_point(coordinator, "migrate:after-copy")

        # Phase 2 — republish: flip the placement maps and durable
        # replicas in one epoch bump (no yields in between).
        for i, bid, src, dst, entry in copied:
            self._relocate_block(obj, stripe_id, i, dst)
            self._invalidate_block(obj, stripe_id, i)
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
        self, obj, stripe_id, holders, i, bid, src, dst, coordinator, metrics
    ):
        """Process: land a copy of stripe position ``i`` on node ``dst``
        (source read when reachable, erasure reconstruction otherwise).
        Returns False when no copy could be made."""
        src_node = self.cluster.node(src)
        dst_node = self.cluster.node(dst)
        if src_node.alive and src_node.has_block(bid):
            payload = yield from src_node.read_block(bid, self.config.size_scale, metrics)
            yield from self.cluster.network.transfer(
                src_node.endpoint, dst_node.endpoint, self.config.scaled(payload.size), metrics
            )
        else:
            payload = yield from self._reconstruct_shard(
                obj, stripe_id, holders, i, coordinator, metrics
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

    def _reconstruct_shard(self, obj, stripe_id, holders, i, coordinator, metrics):
        """Process: rebuild stripe position ``i`` at the coordinator from
        the surviving shards; None when fewer than k are reachable."""
        k = self.config.code.k
        blocks = obj.layout.stripe_blocks(stripe_id)
        data_sizes = [b.size for b in blocks] + [0] * (k - len(blocks))
        shards: list[np.ndarray | None] = []
        for j, holder in enumerate(holders):
            if holder is None:
                shards.append(np.zeros(0, dtype=np.uint8))
                continue
            if j == i:
                shards.append(None)
                continue
            bid, nid = holder
            node = self.cluster.node(nid)
            if (
                not node.alive
                or not self.cluster.reachable(coordinator.node_id, node.node_id)
                or not node.has_block(bid)
            ):
                shards.append(None)
                continue
            data = yield from node.read_block(bid, self.config.size_scale, metrics)
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
            recovered = decode_stripe(self.config.code, shards, data_sizes)
        except DecodeError:
            return None
        payload = encode_stripe(self.config.code, recovered).shards()[i]
        if i < k:
            payload = payload[: blocks[i].size]
        return payload

    def stripes_of(self, name: str) -> list[int]:
        """Stripe ids of one object (repair-manager iteration helper)."""
        return list(range(self._lookup(name).layout.num_stripes))

    def stripes_on_node(self, node_id: int) -> list[tuple[str, int]]:
        """Every (object, stripe) with a block placed on ``node_id``."""
        found = []
        for obj in self.objects.values():
            for stripe in range(obj.layout.num_stripes):
                if any(
                    h is not None and h[1] == node_id
                    for h in self._stripe_holders(obj, stripe)
                ):
                    found.append((obj.name, stripe))
        return found

    # -- Consistency ------------------------------------------------------------

    def fsck(self):
        """Cluster-wide invariant check for this store: blocks on disk
        vs placement maps vs metadata replicas, block checksums, and
        pending WAL operations (see :mod:`repro.core.fsck`)."""
        from repro.core.fsck import fsck

        return fsck(self)

    def recover(self):
        """Replay the cluster-wide WAL after a coordinator crash (see
        :mod:`repro.core.fsck`)."""
        from repro.core.fsck import recover

        return recover(self)

    # -- helpers ---------------------------------------------------------------

    def _lookup(self, name: str) -> StoredFixedObject:
        try:
            return self.objects[name]
        except KeyError:
            raise ObjectNotFound(f"no object named {name!r}") from None

    def object_plan(self, sql: str | Query) -> PhysicalPlan:
        """Plan a query against a stored object's schema (no execution)."""
        query = parse(sql) if isinstance(sql, str) else sql
        return make_plan(query, self._lookup(query.table).metadata.schema)
