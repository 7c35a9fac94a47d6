"""The baseline object store (MinIO/Ceph-like).

Erasure-codes an object into fixed-size blocks with no knowledge of its
internal structure, so column chunks straddle block — and therefore node —
boundaries.  Queries run entirely at a coordinator node, which first
*reassembles* every needed column chunk by fetching its fragments from the
nodes holding them (the paper's Figure 5 behaviour) and only then decodes,
filters and projects.  The one optimisation it shares with Fusion is
footer-based row-group pruning.

Durability and repair (WAL, metadata replicas, degraded reads, scrub,
rebuild, repair, migration) are the shared :mod:`repro.core.kernel`; this
module is the fixed-block layout policy on top of it, which
:class:`~repro.core.store.FusionStore` inherits for its over-budget objects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import Deadline, PartialResult, check_deadline
from repro.cluster.simcore import all_of
from repro.core import engine
from repro.core.fixed import FixedLayout, build_fixed_layout
from repro.core.kernel import ObjectNotFound, PutReport, StoreKernel, StripePlacement
from repro.core.location_map import ChecksumError, chunk_checksum
from repro.core.scatter_gather import SHED, RemoteOp, execute_remote_ops
from repro.format.metadata import FileMetadata
from repro.format.pages import decode_column_chunk
from repro.format.reader import read_metadata
from repro.obs.tracer import traced
from repro.sql.ast_nodes import Query
from repro.sql.planner import plan as make_plan
from repro.sql.predicate import eval_leaf

__all__ = ["BaselineStore", "ObjectNotFound", "PutReport", "StoredFixedObject"]


@dataclass
class StoredFixedObject:
    """Placement record for one object striped into fixed blocks."""

    #: Layout stamp on WAL records, metadata replicas, migration intents
    #: and read-repair keys.
    kind: ClassVar[str] = "fixed"
    #: Fixed cuts ignore chunk boundaries: queries reassemble at the
    #: coordinator.
    splits_chunks: ClassVar[bool] = True

    name: str
    metadata: FileMetadata
    total_bytes: int
    layout: FixedLayout
    #: One record per stripe; data position ``j`` of stripe ``s`` is
    #: block ``s * k + j`` of the layout.
    stripes: list[StripePlacement] = field(default_factory=list)
    header_bytes: bytes = b""
    trailer_bytes: bytes = b""
    #: Nodes holding this object's metadata replica (the stripe records
    #: with their block checksums), chosen as the coordinator slot's
    #: successors.
    replica_nodes: tuple[int, ...] = ()
    #: Bumped on every replica republish (repair relocations).
    meta_epoch: int = 0

    def data_block_id(self, index: int) -> str:
        return f"{self.name}/b{index}"

    def parity_block_id(self, stripe: int, j: int) -> str:
        return f"{self.name}/s{stripe}/p{j}"

    def snapshot(self) -> "StoredFixedObject":
        """Copy for a metadata replica: shares the immutable footer and
        layout, never the stripe records repair mutates."""
        return dataclasses.replace(self, stripes=[p.copy() for p in self.stripes])

    # Layout hooks of the kernel (see its module docstring).

    def locate_block(self, block_index: int) -> tuple[StripePlacement, int]:
        """The stripe record and position of data block ``block_index``."""
        k = self.layout.params.k
        return self.stripes[block_index // k], block_index % k

    def block_moved(self, block_id: str, node_id: int) -> None:
        """The stripe records are the whole map: nothing else to follow."""

    def dangling_locations(self) -> list[str]:
        """No map besides the stripe records, so nothing can dangle."""
        return []

    # Read-only views for tests and benches (the store itself indexes
    # ``stripes`` directly and never builds these).

    @property
    def data_block_nodes(self) -> dict[int, int]:
        """Block index -> node, for every block that exists."""
        k = self.layout.params.k
        return {
            p.stripe_id * k + j: p.node_ids[j]
            for p in self.stripes
            for j in range(k)
            if p.data_sizes[j] > 0
        }

    @property
    def parity_block_nodes(self) -> dict[tuple[int, int], int]:
        """(stripe, parity index) -> node."""
        k = self.layout.params.k
        return {
            (p.stripe_id, pj): nid
            for p in self.stripes
            for pj, nid in enumerate(p.node_ids[k:])
        }


class BaselineStore(StoreKernel):
    """Fixed-block erasure-coded store with coordinator-side execution."""

    span_label = "baseline"

    # -- Put -----------------------------------------------------------------

    def _put_body(self, name: str, data: bytes):
        """Client -> coordinator -> fixed blocks striped across nodes."""
        if name in self.objects:
            raise ValueError(f"object {name!r} already exists (updates are fresh inserts)")
        # A reused name (put after delete) must never serve bytes decoded
        # from its previous incarnation.
        self._invalidate_object_caches(name)
        start = self.sim.now
        # Put budget, checked between phases (see FusionStore._put_body).
        deadline = Deadline.from_config(self.sim, self.config)
        config = self.config
        k = config.code.k
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
        for stripe in range(layout.num_stripes):
            blocks = layout.stripe_blocks(stripe)
            nodes = self.cluster.place_stripe(f"{name}/s{stripe}", config.code.n)
            missing = k - len(blocks)  # trailing blocks of a partial stripe
            placement = StripePlacement(
                stripe_id=stripe,
                node_ids=nodes[: len(blocks)] + [None] * missing + nodes[k:],
                data_block_ids=[obj.data_block_id(stripe * k + j) for j in range(k)],
                parity_block_ids=[
                    obj.parity_block_id(stripe, pj) for pj in range(config.code.parity)
                ],
                data_sizes=[b.size for b in blocks] + [0] * missing,
            )
            obj.stripes.append(placement)
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

        intent = self._log_intent(coordinator, "put", obj)
        self.wal.crash_point(coordinator, "put:after-intent")

        # Ship the object from the client to the coordinator.
        yield from self.cluster.network.transfer(
            self.cluster.client, coordinator.endpoint, config.scaled(len(data))
        )
        if deadline is not None:
            deadline.check("put transfer")

        # Encode and distribute stripe by stripe.
        writes = []
        for placement in obj.stripes:
            payloads = [raw[b.start : b.end] for b in layout.stripe_blocks(placement.stripe_id)]
            writes += yield from self._write_stripe(coordinator, placement, payloads)
        yield all_of(self.sim, writes)
        if deadline is not None:
            deadline.check("put writes")
        self.wal.crash_point(coordinator, "put:after-data")

        # Materialize metadata replicas.  The fixed-block store's
        # placement map is a handful of entries per block; the paper
        # charges map replication only for Fusion's chunk-granular
        # location map, so this publish is metadata-plane (no simulated
        # bytes — fault-free runs stay event-identical to the seed).
        replica = self._meta_snapshot(obj)
        for nid in obj.replica_nodes:
            node = self.cluster.node(nid)
            if node.alive:
                node.put_meta(name, replica)
        self.wal.crash_point(coordinator, "put:after-meta")

        self._log_outcome(coordinator, intent)
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

    # -- Integrity --------------------------------------------------------------

    def _verify_block(self, obj: StoredFixedObject, placement: StripePlacement, j: int, data) -> None:
        """Whole-block reads must match the CRC recorded at Put; raises
        :class:`ChecksumError` (non-retryable — the scatter-gather layer
        falls back to degraded reconstruction)."""
        want = placement.checksum(j)
        if want and chunk_checksum(data) != want:
            raise ChecksumError(f"block {placement.data_block_ids[j]} of {obj.name!r} failed CRC")

    # -- Get -------------------------------------------------------------------

    def _get_body(self, name: str, query: QueryMetrics | None, offset: int, size: int | None):
        """Fetch the covering block fragments to the coordinator and
        reassemble the byte range."""
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
        placement, j = obj.locate_block(block_index)
        node = self.cluster.node(placement.node_ids[j])
        block_id = placement.data_block_ids[j]

        def degraded():
            want = placement.checksum(j)
            block = yield from self._degraded_block_read(
                obj, placement, j, coordinator, query,
                intact=lambda block: not want or chunk_checksum(block) == want,
            )
            return block[offset : offset + length]

        if not self._usable(node) and not (
            node.alive and self._floor_attempt(obj, block_index)
        ):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(query, "block fragment")
            data = yield from node.read_block_range(
                block_id, offset, length, self.config.size_scale, query
            )
            if offset == 0 and length == placement.data_sizes[j]:
                # Whole-block read (the default I/O granularity): the
                # recorded CRC covers exactly these bytes.
                self._verify_block(obj, placement, j, data)
            return self.config.scaled(length), data

        return RemoteOp(node=node, execute=execute, fallback=degraded)

    def _invalidate_block(self, obj, placement: StripePlacement, i: int) -> None:
        """A stripe position was rewritten: drop cached artefacts that
        could have been derived from its previous bytes."""
        if i < self.config.code.k:
            self._degraded_bin_cache.pop(placement.data_block_ids[i])
            # Chunks straddle blocks, so decoded values keyed by
            # (rg, col) cannot be mapped back to one block cheaply:
            # evict the whole object (repair is rare).
            self._decode_cache.evict_where(lambda key: key[0] == obj.name)

    # -- Query -----------------------------------------------------------------

    def _query_body(self, query: Query, metrics: QueryMetrics):
        """Reassemble the needed chunks, then execute locally."""
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
        yield from self._return_result(coordinator, result, metrics)
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
