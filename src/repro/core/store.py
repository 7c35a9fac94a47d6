"""Fusion: the analytics object store (paper Sections 4-5).

:class:`StoredFusionObject` is the file-format-aware layout.  Its Put
reads chunk boundaries from the footer, Algorithm 1 packs whole chunks
into variable-size data blocks, stripes are Reed-Solomon encoded and
scattered, and the per-chunk location map is replicated ``k + 1`` ways.

Its Query executes in the paper's two stages.  Filters are always pushed
to the nodes holding the relevant chunks and return compressed bitmaps.
Projections go through the cost estimator per chunk: pushdown ships
``selectivity × uncompressed`` bytes of selected values; fallback ships
the compressed chunk for coordinator-side processing.  An optional
extension (the paper's future work) pushes aggregates down as well.

:class:`FusionStore` is the kernel (:mod:`repro.core.kernel`) with a Put
policy: FAC first, and fixed blocks
(:class:`~repro.core.baseline_store.StoredFixedObject`) for an object
whose FAC layout blows the storage-overhead budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import check_deadline
from repro.cluster.simcore import LinkDown, all_of
from repro.core import engine
from repro.core.baseline_store import StoredFixedObject
from repro.core.config import OP_REQUEST_BYTES, SCALAR_RESULT_BYTES
from repro.core.fac import construct_stripes
from repro.core.kernel import (
    PublishedStripes,
    PutReport,
    StoreKernel,
    StripePlacement,
    partial_result,
    span_intact,
)
from repro.core.scatter_gather import SHED, RemoteOp, execute_remote_ops
from repro.core.layout import ChunkItem, StripeLayout
from repro.core.location_map import ChunkLocation, LocationMap, chunk_checksum
from repro.obs.tracer import traced
from repro.format.metadata import ColumnChunkMeta, FileMetadata
from repro.format.schema import ColumnType
from repro.format.table import plain_size
from repro.sql.aggregates import merge_partial_aggregates, partial_aggregate
from repro.sql.ast_nodes import Aggregate
from repro.sql.bitmap import Bitmap
from repro.sql.local import QueryResult
from repro.sql.planner import PhysicalPlan
from repro.sql.predicate import leaf_may_match

__all__ = ["FusionStore", "StoredFusionObject", "StripePlacement"]


@dataclass
class StoredFusionObject(PublishedStripes):
    """Everything Fusion remembers about one object."""

    #: Layout stamp on WAL records, metadata replicas, migration intents
    #: and read-repair keys.
    kind: ClassVar[str] = "fac"

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
    #: Data block id -> (stripe record, bin index, keys of the chunks in
    #: the bin), built on first use (:meth:`_bin`).
    _bins: dict[str, tuple[StripePlacement, int, list[tuple[int, int]]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def replica_nodes(self) -> tuple[int, ...]:
        """Nodes holding the metadata replicas (kept with the location
        map they replicate)."""
        return self.location_map.replica_nodes

    @replica_nodes.setter
    def replica_nodes(self, nodes: tuple[int, ...]) -> None:
        self.location_map.replica_nodes = nodes

    @property
    def total_bytes(self) -> int:
        """The object's size: header, chunks and footer."""
        chunks = self.metadata.all_chunks()
        return len(self.header_bytes) + sum(c.size for c in chunks) + len(self.trailer_bytes)

    @property
    def chunk_nodes(self) -> dict[tuple[int, int], int]:
        """Chunk key -> the node holding the chunk (a read-only view for
        tests and benches)."""
        return {key: loc.node_id for key, loc in self.location_map.entries.items()}

    def snapshot(self, stripes: list[StripePlacement] | None = None) -> "StoredFusionObject":
        """Copy for a metadata replica: shares the immutable footer and
        layout, never the stripe records or the map repair mutates.
        ``stripes`` are the stripe-record copies it holds (default: a
        fresh copy of each)."""
        return dataclasses.replace(
            self,
            location_map=LocationMap(
                object_name=self.name,
                entries=self.location_map.snapshot(),
                replica_nodes=tuple(self.location_map.replica_nodes),
            ),
            stripes=[p.copy() for p in self.stripes] if stripes is None else stripes,
        )

    def _bin(self, block_id: str):
        """The bin index entry of data block ``block_id``, or None (a
        parity id, or no block of this object).  The stripe records and
        the map's keys never change after Put (a move rewrites entries
        in place), so the index is built once."""
        if self._bins is None:
            bins = self._bins = {
                bid: (placement, j, [])
                for placement in self.stripes
                for j, bid in enumerate(placement.data_block_ids)
            }
            for key, loc in self.location_map.entries.items():
                if loc.block_id in bins:  # fsck reports the others
                    bins[loc.block_id][2].append(key)
        return self._bins.get(block_id)

    def chunk_keys(self, block_id: str) -> list[tuple[int, int]]:
        """Location-map keys of the chunks stored in block ``block_id``
        (none for a parity block)."""
        found = self._bin(block_id)
        return found[2] if found is not None else []

    # Layout operations of the kernel (see its module docstring).

    def locate_block(self, block_id: str) -> tuple[StripePlacement, int]:
        """The stripe record and bin index holding ``block_id``."""
        found = self._bin(block_id)
        if found is None:
            raise KeyError(f"object {self.name!r} has no data block {block_id!r}")
        return found[0], found[1]

    def block_moved(self, block_id: str, node_id: int) -> None:
        """Point the location-map entries of a moved data bin at the node
        now holding it (parity ids match no entry)."""
        entries = self.location_map.entries
        for key in self.chunk_keys(block_id):
            entries[key] = dataclasses.replace(entries[key], node_id=node_id)

    def dangling_locations(self) -> list[str]:
        """fsck's location-map leg: entries inconsistent with the stripe
        record they cite."""
        data_place: dict[str, tuple[int, int]] = {}
        for p in self.stripes:
            for j, bid in enumerate(p.data_block_ids):
                data_place[bid] = (p.node_ids[j], p.data_sizes[j])
        problems = []
        for key, loc in sorted(self.location_map.entries.items()):
            place = data_place.get(loc.block_id)
            if place is None:
                problems.append(f"chunk {key} cites unknown block {loc.block_id}")
                continue
            nid, size = place
            if loc.node_id != nid:
                problems.append(
                    f"chunk {key} points at node {loc.node_id}; block lives on {nid}"
                )
            elif loc.offset_in_block + loc.size > size:
                problems.append(f"chunk {key} range exceeds block {loc.block_id}")
        return problems

    def invalidate(self, store, placement: StripePlacement, i: int) -> None:
        """Drop the decoded values and page indexes of every chunk in the
        rewritten or moved bin (a parity block holds none)."""
        for key in self.chunk_keys(placement.block_ids[i]):
            store._decode_cache.pop((self.name, key))
            store._page_index_cache.pop((self.name, key))

    # -- Put -----------------------------------------------------------------

    @staticmethod
    def pack(code, name: str, metadata: FileMetadata) -> StripeLayout:
        """Algorithm 1 over the object's chunks: its stripes, unplaced."""
        chunks = metadata.all_chunks()
        if not chunks:
            raise ValueError(f"object {name!r} has no column chunks")
        return construct_stripes(code, [ChunkItem(key=c.key, size=c.size) for c in chunks])

    @classmethod
    def lay_out(
        cls, store, name: str, data: bytes, metadata: FileMetadata, coordinator,
        layout: StripeLayout,
    ):
        """A Put's layout step (:meth:`StoreKernel._put`): the bins of
        ``layout`` as stripes, and a location-map entry (with its chunk's
        CRC) per chunk.

        Placement draws stay in seed order - one per stripe, then one for
        the replica nodes - so fault-free runs place blocks exactly where
        they always did.  The coordinator parses the footer before it
        writes, charged at the footer's real size: metadata does not grow
        with the data (StoreConfig.scaled)."""
        config = store.config
        chunks = metadata.all_chunks()
        by_key = {c.key: c for c in chunks}
        raw = np.frombuffer(data, dtype=np.uint8)
        obj = cls(
            name=name,
            metadata=metadata,
            layout=layout,
            location_map=LocationMap(object_name=name),
            header_bytes=data[:4],
            trailer_bytes=data[chunks[-1].end_offset :],
        )
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
            node_ids = store.cluster.place_stripe(f"{name}/s{sid}", config.code.n)
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
        replica_count = config.resolved_metadata_replicas(store.cluster.num_nodes)
        obj.replica_nodes = tuple(store.cluster.place_stripe(f"{name}/meta", replica_count))
        report = PutReport(
            object_name=name,
            strategy="fac",
            stored_bytes=layout.stored_bytes,
            data_bytes=layout.data_bytes,
            overhead_vs_optimal=layout.overhead_vs_optimal,
            layout_build_seconds=layout.build_seconds,
            simulated_put_seconds=0.0,
            num_stripes=layout.num_stripes,
        )
        parse_s = len(obj.trailer_bytes) / coordinator.cpu_config.decode_bps
        return obj, stripe_payloads, parse_s, report

    def publish(self, store, coordinator, deadline):
        """Process: a Put's metadata replicas.  The location map (plus
        footer) travels to each replica node and is stored there as a
        snapshot, charged at the paper's 8 bytes per entry and at real
        size, like the footer parse; a replica the network refuses
        misses the write."""
        map_bytes = self.location_map.wire_size + len(self.trailer_bytes)
        replica = store._meta_snapshot(self)

        def replicate(node):
            try:
                yield from store.cluster.network.transfer(
                    coordinator.endpoint, node.endpoint, map_bytes
                )
            except LinkDown:
                return
            node.put_meta(self.name, replica)

        replications = []
        for nid in self.replica_nodes:
            node = store.cluster.node(nid)
            if node is coordinator:
                node.put_meta(self.name, replica)
            else:
                replications.append(store.sim.process(replicate(node)))
        yield all_of(store.sim, replications)
        if deadline is not None:
            deadline.check("put meta")

    # -- Get -------------------------------------------------------------------

    def get(self, store, coordinator, offset: int, size: int, metrics):
        """Process: fetch the chunk ranges covering the byte range.

        Fusion stores chunks out of file order, so a ranged Get maps the
        requested range onto the file's segments (header, chunks, footer)
        and reads only the overlapping parts of each chunk - each from the
        single node holding it, all in one round.
        """
        end = offset + size
        # Walk the file's segment map in byte order, collecting the parts
        # that overlap the requested range.  Local segments (header and
        # footer live with the replicated metadata) cost nothing.
        parts: list[tuple[int, bytes | None]] = []  # (segment_start, local bytes)
        reads = []
        fetch_starts = []
        header_end = len(self.header_bytes)
        if offset < header_end:
            parts.append((offset, self.header_bytes[offset : min(end, header_end)]))
        for meta in self.metadata.all_chunks():
            lo = max(offset, meta.offset)
            hi = min(end, meta.end_offset)
            if lo >= hi:
                continue
            loc = self.location_map.lookup(meta.key)
            fetch_starts.append(lo)
            # Bin coordinates of the read and of the chunk its CRC covers.
            base = loc.offset_in_block - meta.offset
            reads.append((
                loc.block_id, base + lo, base + hi,
                (loc.offset_in_block, loc.offset_in_block + loc.size, loc.checksum),
            ))
        trailer_start = self.total_bytes - len(self.trailer_bytes)
        if end > trailer_start:
            lo = max(offset, trailer_start)
            parts.append((lo, self.trailer_bytes[lo - trailer_start : end - trailer_start]))

        payloads = yield from store._get_round(self, reads, coordinator, metrics)
        for start, payload in zip(fetch_starts, payloads):
            parts.append((start, payload))
        parts.sort(key=lambda item: item[0])
        # join() accepts buffer views directly; the single copy here is
        # the only materialisation on the whole range-read path.
        return b"".join(p for _start, p in parts)

    # -- Chunk reads -------------------------------------------------------------

    def _read_chunk(self, store, node, loc, metrics):
        """Process: the whole chunk at ``loc`` read off ``node`` and
        checked against its Put-time CRC."""
        data = yield from node.read_block_range(
            loc.block_id, loc.offset_in_block, loc.size, store.config.size_scale, metrics
        )
        store._verify(self, loc.block_id, loc.checksum, data)
        return data

    def _degraded_chunk(self, store, meta: ColumnChunkMeta, loc, coordinator, metrics):
        """Process: reconstruct a chunk whose node is down at the
        coordinator - the kernel's degraded read of the chunk's bin,
        checked against the chunk's own CRC - and decode it there."""
        placement, bin_idx = self.locate_block(loc.block_id)
        lo, hi = loc.offset_in_block, loc.offset_in_block + loc.size
        bin_bytes = yield from store._degraded_block_read(
            self, placement, bin_idx, coordinator, metrics, span_intact(lo, hi, loc.checksum)
        )
        yield from coordinator.compute(
            coordinator.decode_seconds(meta.size, meta.plain_size, store.config.size_scale),
            metrics,
        )
        return store._decoded_chunk(self.name, meta, (bin_bytes[lo:hi],))

    # -- Query -----------------------------------------------------------------

    def query(self, store, physical: PhysicalPlan, coordinator, row_groups, metrics: QueryMetrics):
        """Process: two-stage adaptive-pushdown execution."""
        query = physical.query
        config = store.config
        tracer = store.sim.tracer
        allow_shed = store._may_shed(query)

        # Fused fast path: when the whole query touches exactly one column
        # (a single filter leaf whose column is also the only projection),
        # a storage node's local bitmap is already the final bitmap for
        # its row group.  The node applies the Cost Equation locally and
        # answers filter + projection in one round trip with one decode.
        if _fusable(physical):
            return (yield from traced(
                store.sim,
                self._fused_query(store, coordinator, physical, row_groups, metrics, allow_shed),
                "fused_stage", "store", chunks=len(row_groups),
            ))

        # ---- Filter stage: push every live leaf down, gather bitmaps. ----
        filter_span = (
            tracer.begin("filter_stage", cat="store") if tracer is not None else None
        )
        # Row-group bitmaps travel as Bitmap objects: each remembers its
        # cardinality, counted once however many ops ship it.
        rg_selected: dict[int, Bitmap] = {}
        ops = []
        keys: list[tuple[int, int]] = []
        zero_bitmaps: dict[tuple[int, int], Bitmap] = {}
        for rg in row_groups:
            num_rows = self.metadata.row_groups[rg].num_rows
            for op in physical.filter_ops:
                meta = self.metadata.chunk(rg, op.column)
                if not leaf_may_match(
                    op.leaf, op.type, meta.stats.min_value, meta.stats.max_value
                ):
                    # Footer stats prove no row matches: skip the RPC.
                    zero_bitmaps[(rg, op.index)] = Bitmap.zeros(num_rows)
                    continue
                keys.append((rg, op.index))
                ops.append(self._filter_op(store, coordinator, op, meta, metrics))
        bitmaps_out = yield from execute_remote_ops(
            store.cluster, coordinator, ops, metrics, config=config, allow_shed=allow_shed,
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
            num_rows = self.metadata.row_groups[rg].num_rows
            bitmaps = [leaf_results[(rg, op.index)] for op in physical.filter_ops]
            if bitmaps:
                # Consolidation cost: tiny, linear in bitmap bytes.
                yield from coordinator.compute(
                    coordinator.scan_seconds(num_rows // 8 + 1, config.size_scale),
                    metrics,
                )
            bits = physical.combine_bitmaps([b.bits for b in bitmaps], num_rows)
            # A lone positive leaf is its own row-group bitmap: keep the
            # filter reply, whose cardinality is already known.
            rg_selected[rg] = (
                bitmaps[0] if bitmaps and bits is bitmaps[0].bits else Bitmap(bits)
            )
        if filter_span is not None:
            tracer.finish(filter_span, ops=len(ops))

        # ---- Projection stage -------------------------------------------------
        if config.enable_aggregate_pushdown and query.has_aggregates() and not query.group_by:
            return (yield from traced(
                store.sim,
                self._aggregate_pushdown_stage(
                    store, coordinator, physical, row_groups, rg_selected, metrics
                ),
                "aggregate_stage", "store",
            ))
        projection_span = (
            tracer.begin("projection_stage", cat="store") if tracer is not None else None
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
                meta = self.metadata.chunk(rg, col)
                task_keys.append((rg, col))
                ops.append(
                    self._projection_op(
                        store, coordinator, meta, type_, bitmap, indices, metrics
                    )
                )
        values_out = yield from execute_remote_ops(
            store.cluster, coordinator, ops, metrics, config=config, allow_shed=allow_shed,
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
            self.metadata,
            kept,
            {rg: rg_selected[rg].bits for rg in kept},
            rg_projected,
        )
        if projection_span is not None:
            tracer.finish(projection_span, ops=len(ops))
        return partial_result(result, shed_chunks, shed_rgs, metrics)

    def _fused_query(
        self, store, coordinator, physical: PhysicalPlan, row_groups, metrics,
        allow_shed: bool,
    ):
        """Single-round execution of a one-column filter+projection query."""
        op = physical.filter_ops[0]
        rg_selected: dict[int, np.ndarray] = {}
        rg_projected: dict[tuple[int, str], np.ndarray] = {}
        type_ = physical.schema.field(op.column).type

        ops = []
        task_rgs = []
        for rg in row_groups:
            num_rows = self.metadata.row_groups[rg].num_rows
            meta = self.metadata.chunk(rg, op.column)
            if not leaf_may_match(op.leaf, op.type, meta.stats.min_value, meta.stats.max_value):
                rg_selected[rg] = np.zeros(num_rows, dtype=np.bool_)
                rg_projected[(rg, op.column)] = _empty_values(type_)
                continue
            task_rgs.append(rg)
            ops.append(self._fused_op(store, coordinator, op, meta, type_, metrics))
        fused_out = yield from execute_remote_ops(
            store.cluster, coordinator, ops, metrics,
            config=store.config, allow_shed=allow_shed,
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
            physical, self.metadata, kept, rg_selected, rg_projected
        )
        return partial_result(result, shed_chunks, shed_rgs, metrics)

    def _fused_op(
        self, store, coordinator, op, meta: ColumnChunkMeta, type_, metrics
    ) -> RemoteOp:
        """One fused filter+projection op on the node holding the chunk."""
        config = store.config
        scale = config.size_scale
        loc = self.location_map.lookup(meta.key)
        node = store.cluster.node(loc.node_id)

        # Degraded: reconstruct at the coordinator and process there.
        def degraded():
            metrics.fallback_chunks += 1
            chunk = yield from self._degraded_chunk(store, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                2 * coordinator.scan_seconds(meta.plain_size, scale), metrics
            )
            return chunk.bitmap(op.leaf, op.type).bits, chunk.selected(op.leaf, type_)[0]

        if not store._routes_direct(self, node, loc.block_id):
            return RemoteOp(standalone=degraded)

        # One audit record per op, written by its first attempt; a retry
        # re-evaluates the same Cost Equation on the same chunk.
        rec = None

        def execute():
            nonlocal rec
            check_deadline(metrics, "fused chunk")
            data = yield from self._read_chunk(store, node, loc, metrics)
            fraction = store._page_fraction(self.name, meta, op, data)
            yield from node.compute(
                fraction
                * (
                    node.decode_seconds(meta.size, meta.plain_size, scale)
                    + 2 * node.scan_seconds(meta.plain_size, scale)
                ),
                metrics,
            )
            chunk = store._decoded_chunk(self.name, meta, (data,))
            bitmap = chunk.bitmap(op.leaf, op.type)
            decision = store.estimator.decide(bitmap.selectivity(), meta.size, meta.plain_size)
            if rec is None:
                rec = store.audit.record(
                    self.name, meta.key, "fused", config.pushdown_mode.value, decision
                )
            selected, selected_bytes = chunk.selected(op.leaf, type_)
            if decision.push_down:
                reply = bitmap.wire_size() + selected_bytes
                return config.scaled(reply), (bitmap.bits, selected, selected_bytes, True)
            # Unfavourable cost product: reply with the bitmap plus the
            # whole compressed chunk; the coordinator decodes locally.
            reply = bitmap.wire_size() + loc.size
            return config.scaled(reply), (bitmap.bits, selected, selected_bytes, False)

        def finalize(reply):
            # The reply arrived: this attempt's path is the chunk's outcome.
            bits, selected, selected_bytes, pushed = reply
            if pushed:
                metrics.pushed_down_chunks += 1
                if rec is not None:
                    rec.actual_chosen_bytes = selected_bytes
                    rec.actual_alternative_bytes = loc.size
                return bits, selected
            metrics.fallback_chunks += 1
            if rec is not None:
                rec.actual_chosen_bytes = loc.size
                rec.actual_alternative_bytes = selected_bytes
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, scale)
                + coordinator.scan_seconds(meta.plain_size, scale),
                metrics,
            )
            return bits, selected

        return RemoteOp(
            node=node,
            request_bytes=config.scaled(OP_REQUEST_BYTES),
            execute=execute,
            finalize=finalize,
            fallback=degraded,
        )

    def _filter_op(self, store, coordinator, op, meta: ColumnChunkMeta, metrics) -> RemoteOp:
        """One pushed-down filter: runs in-situ, replies with a bitmap."""
        config = store.config
        scale = config.size_scale
        loc = self.location_map.lookup(meta.key)
        node = store.cluster.node(loc.node_id)

        def degraded():
            chunk = yield from self._degraded_chunk(store, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, scale), metrics
            )
            return chunk.bitmap(op.leaf, op.type)

        if not store._routes_direct(self, node, loc.block_id):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(metrics, "filter chunk")
            data = yield from self._read_chunk(store, node, loc, metrics)
            fraction = store._page_fraction(self.name, meta, op, data)
            yield from node.compute(
                fraction
                * (
                    node.decode_seconds(meta.size, meta.plain_size, scale)
                    + node.scan_seconds(meta.plain_size, scale)
                ),
                metrics,
            )
            reply = store._decoded_chunk(self.name, meta, (data,)).bitmap(op.leaf, op.type)
            return config.scaled(reply.wire_size()), reply

        return RemoteOp(
            node=node,
            request_bytes=config.scaled(OP_REQUEST_BYTES),
            execute=execute,
            fallback=degraded,
        )

    def _projection_op(
        self,
        store,
        coordinator,
        meta: ColumnChunkMeta,
        type_: ColumnType,
        bitmap: Bitmap,
        indices: np.ndarray,
        metrics: QueryMetrics,
    ) -> RemoteOp:
        """One projection: pushed down or fetched, per the Cost Equation."""
        config = store.config
        scale = config.size_scale
        loc = self.location_map.lookup(meta.key)
        node = store.cluster.node(loc.node_id)

        def degraded():
            metrics.fallback_chunks += 1
            chunk = yield from self._degraded_chunk(store, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, scale), metrics
            )
            return chunk.values[indices]

        if not store._routes_direct(self, node, loc.block_id):
            return RemoteOp(standalone=degraded)

        selectivity = len(indices) / len(bitmap) if len(bitmap) else 0.0
        decision = store.estimator.decide(selectivity, meta.size, meta.plain_size)
        rec = store.audit.record(
            self.name, meta.key, "projection", config.pushdown_mode.value, decision
        )

        # Graceful degradation: when the holding node's service queue is
        # already at its admission bound, override a pushdown decision
        # and fetch the compressed chunk for coordinator-side evaluation
        # instead — the node serves a plain read (no decode/scan burn).
        pressured = decision.push_down and store._node_pressured(node)
        if pressured:
            tracer = store.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "pushdown.pressure_fallback", cat="overload", node=node.node_id
                )

        if decision.push_down and not pressured:
            # Ship the bitmap with the op; receive selected raw values.
            bitmap_wire = bitmap.wire_size()

            def execute_pushed():
                check_deadline(metrics, "projection chunk")
                data = yield from self._read_chunk(store, node, loc, metrics)
                yield from node.compute(
                    node.decode_seconds(meta.size, meta.plain_size, scale)
                    + node.scan_seconds(meta.plain_size, scale),
                    metrics,
                )
                values = store._decoded_chunk(self.name, meta, (data,)).values[indices]
                reply = plain_size(type_, values)
                return config.scaled(reply), (values, reply)

            def finalize_pushed(reply):
                # The reply arrived: the chunk was pushed down.  Nothing to
                # charge here; ``yield from ()`` makes this a generator.
                yield from ()
                values, reply_bytes = reply
                metrics.pushed_down_chunks += 1
                if rec is not None:
                    rec.actual_chosen_bytes = reply_bytes
                    rec.actual_alternative_bytes = loc.size
                return values

            return RemoteOp(
                node=node,
                request_bytes=config.scaled(OP_REQUEST_BYTES + bitmap_wire),
                execute=execute_pushed,
                finalize=finalize_pushed,
                fallback=degraded,
            )

        # Fallback: fetch the compressed chunk, process at the coordinator.
        def execute_fetch():
            check_deadline(metrics, "projection chunk")
            data = yield from self._read_chunk(store, node, loc, metrics)
            return config.scaled(loc.size), data

        def finalize(data):
            metrics.fallback_chunks += 1
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, scale)
                + coordinator.scan_seconds(meta.plain_size, scale),
                metrics,
            )
            values = store._decoded_chunk(self.name, meta, (data,)).values[indices]
            if rec is not None:
                # What the pushdown branch would have shipped, measured on
                # the decoded values rather than estimated from the footer.
                rec.actual_chosen_bytes = loc.size
                rec.actual_alternative_bytes = plain_size(type_, values)
            return values

        return RemoteOp(
            node=node,
            request_bytes=config.scaled(OP_REQUEST_BYTES),
            execute=execute_fetch,
            finalize=finalize,
            fallback=degraded,
        )

    def _aggregate_pushdown_stage(
        self,
        store,
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
                meta = self.metadata.chunk(rg, agg.column)
                task_keys.append((rg, agg_idx))
                ops.append(
                    self._partial_aggregate_op(store, coordinator, meta, agg, bitmap, metrics)
                )
        partials_out = yield from execute_remote_ops(
            store.cluster, coordinator, ops, metrics, config=store.config
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
            total_rows=self.metadata.num_rows,
        )

    def _partial_aggregate_op(
        self, store, coordinator, meta, agg: Aggregate, bitmap: Bitmap, metrics
    ) -> RemoteOp:
        """One pushed-down partial aggregate over a chunk."""
        config = store.config
        scale = config.size_scale
        loc = self.location_map.lookup(meta.key)
        node = store.cluster.node(loc.node_id)

        def degraded():
            metrics.fallback_chunks += 1
            chunk = yield from self._degraded_chunk(store, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, scale), metrics
            )
            return partial_aggregate(agg, chunk.values[bitmap.indices()], bitmap.count())

        if not store._routes_direct(self, node, loc.block_id):
            return RemoteOp(standalone=degraded)

        bitmap_wire = bitmap.wire_size()

        def execute():
            check_deadline(metrics, "aggregate chunk")
            data = yield from self._read_chunk(store, node, loc, metrics)
            yield from node.compute(
                node.decode_seconds(meta.size, meta.plain_size, scale)
                + node.scan_seconds(meta.plain_size, scale),
                metrics,
            )
            values = store._decoded_chunk(self.name, meta, (data,)).values[bitmap.indices()]
            partial = partial_aggregate(agg, values, bitmap.count())
            return config.scaled(SCALAR_RESULT_BYTES), partial

        def finalize(partial):
            # The reply arrived: the chunk was aggregated in-situ.  Nothing
            # to charge here; ``yield from ()`` makes this a generator.
            yield from ()
            metrics.pushed_down_chunks += 1
            return partial

        return RemoteOp(
            node=node,
            request_bytes=config.scaled(OP_REQUEST_BYTES + bitmap_wire),
            execute=execute,
            finalize=finalize,
            fallback=degraded,
        )


class FusionStore(StoreKernel):
    """The Fusion analytics object store: a Put lays the object out with
    FAC, or in fixed blocks when FAC's layout blows the storage-overhead
    budget (paper 4.2)."""

    span_label = "fusion"

    def _put_body(self, name: str, data: bytes):
        def lay_out(metadata: FileMetadata, coordinator):
            layout = StoredFusionObject.pack(self.config.code, name, metadata)
            if layout.overhead_vs_optimal > self.config.storage_overhead_threshold:
                # Budget exceeded: default to fixed-block coding.
                obj, stripe_payloads, parse_s, report = StoredFixedObject.lay_out(
                    self, name, data, metadata, coordinator
                )
                report.strategy, report.fallback = "fixed-fallback", True
                report.layout_build_seconds = layout.build_seconds
                return obj, stripe_payloads, parse_s, report
            return StoredFusionObject.lay_out(self, name, data, metadata, coordinator, layout)

        return self._put(name, data, lay_out)


def _fusable(physical: PhysicalPlan) -> bool:
    """True when the query is a single-column filter + projection."""
    ops = physical.filter_ops
    return (
        len(ops) == 1
        and not physical.query.has_aggregates()
        and not physical.query.group_by
        and physical.projection_columns == [ops[0].column]
    )


def _empty_values(type_: ColumnType) -> np.ndarray:
    dtype = type_.numpy_dtype
    return np.empty(0, dtype=object) if dtype is None else np.zeros(0, dtype=dtype)
