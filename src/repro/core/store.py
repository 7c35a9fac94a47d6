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

import dataclasses
from dataclasses import dataclass, field
from operator import itemgetter
from typing import ClassVar

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import Deadline, PartialResult, check_deadline
from repro.cluster.simcore import LinkDown, all_of
from repro.core import engine
from repro.core.baseline_store import BaselineStore
from repro.core.cache import LruDict
from repro.core.config import OP_REQUEST_BYTES, SCALAR_RESULT_BYTES, StoreConfig
from repro.core.cost_model import PushdownCostEstimator
from repro.core.fac import construct_stripes
from repro.core.kernel import (
    DECODE_CACHE_ENTRIES,
    DecodedChunk,
    PublishedStripes,
    PutReport,
    StripePlacement,
    span_intact,
)
from repro.core.scatter_gather import SHED, RemoteOp, execute_remote_ops
from repro.core.layout import ChunkItem, StripeLayout
from repro.core.location_map import ChecksumError, ChunkLocation, LocationMap, chunk_checksum
from repro.obs.tracer import traced
from repro.format.metadata import ColumnChunkMeta, FileMetadata
from repro.format.pages import decode_column_chunk
from repro.format.reader import read_metadata
from repro.format.schema import ColumnType
from repro.format.table import plain_size
from repro.sql.aggregates import merge_partial_aggregates, partial_aggregate
from repro.sql.ast_nodes import Aggregate, Query
from repro.sql.bitmap import Bitmap
from repro.sql.local import QueryResult
from repro.sql.planner import PhysicalPlan, plan as make_plan
from repro.sql.predicate import leaf_may_match

__all__ = ["FusionStore", "StoredFusionObject", "StripePlacement"]


@dataclass
class StoredFusionObject(PublishedStripes):
    """Everything Fusion remembers about one object."""

    #: Layout stamp on WAL records, metadata replicas, migration intents
    #: and read-repair keys.
    kind: ClassVar[str] = "fac"
    #: Every chunk lives whole in one bin: queries push down per chunk.
    splits_chunks: ClassVar[bool] = False

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

    # Layout hooks of the kernel (see its module docstring).

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


class FusionStore(BaselineStore):
    """The Fusion analytics object store: a :class:`BaselineStore` whose
    Put tries FAC first.  An object it codes in fixed blocks instead
    (paper 4.2) takes the inherited Get and Query (``obj.splits_chunks``)."""

    span_label = "fusion"

    def __init__(self, cluster: Cluster, config: StoreConfig | None = None) -> None:
        super().__init__(cluster, config)
        self.estimator = PushdownCostEstimator(self.config.pushdown_mode)
        # Page-index cache for node-local page skipping (invalidated with
        # the kernel's decode and degraded-read caches).
        self._page_index_cache: LruDict[tuple[str, tuple[int, int]], list] = LruDict(
            DECODE_CACHE_ENTRIES, group=itemgetter(0)
        )

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
        super()._invalidate_object_caches(name)
        self._page_index_cache.evict_group(name)

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

    def _decoded_chunk(self, obj_name: str, meta: ColumnChunkMeta, data: np.ndarray) -> DecodedChunk:
        key = (obj_name, meta.key)
        cached = self._decode_cache.get(key)
        if cached is None:
            # The chunk view decodes in place; no bytes() copy on misses,
            # and hits never touch the payload at all.
            cached = DecodedChunk(decode_column_chunk(data))
            self._decode_cache[key] = cached
        return cached

    # -- Put -----------------------------------------------------------------

    def _put_body(self, name: str, data: bytes):
        """Put with FAC stripe construction (fixed-block fallback when
        the layout blows the storage-overhead budget)."""
        if name in self.objects:
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
            report = yield from super()._put_body(name, data)
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

        intent = self._log_intent(coordinator, "put", obj)
        self.wal.crash_point(coordinator, "put:after-intent")

        # Stream the object from the client and write it stripe by
        # stripe.  The footer parse is charged at the footer's real size:
        # metadata does not grow with the data (StoreConfig.scaled).
        yield from self._write_stripes(
            coordinator, obj, len(data), stripe_payloads, deadline,
            parse_s=len(obj.trailer_bytes) / coordinator.cpu_config.decode_bps,
        )
        self.wal.crash_point(coordinator, "put:after-data")

        # Materialize the metadata replicas: the location map (plus
        # footer) travels to each replica node and is stored there as a
        # snapshot, charged at the paper's 8 bytes per entry and at real
        # size, like the footer parse.
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

        self._log_outcome(coordinator, intent)
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

    # -- Metadata replicas ------------------------------------------------------

    def _replicate_meta(self, coordinator, node, map_bytes: int, name: str, replica) -> object:
        """Process: ship the serialized map to one replica node, then
        install the snapshot there (a replica the network refuses misses
        the write).  ``map_bytes`` is real bytes and is sent unscaled."""
        try:
            yield from self.cluster.network.transfer(
                coordinator.endpoint, node.endpoint, map_bytes
            )
        except LinkDown:
            return
        node.put_meta(name, replica)

    # -- Integrity --------------------------------------------------------------

    def _verify_chunk(self, obj_name: str, loc, data) -> None:
        """End-to-end check: bytes just read must match the CRC recorded
        at Put.  Raises :class:`ChecksumError`; the scatter-gather layer
        treats it as non-retryable and falls straight back to degraded
        reconstruction (re-reading the same bad bytes cannot help, and a
        media error says nothing about the node's liveness)."""
        if loc.checksum and chunk_checksum(data) != loc.checksum:
            raise ChecksumError(
                f"chunk {loc.chunk_key} of {obj_name!r} failed CRC in block {loc.block_id}"
            )

    # -- Get -------------------------------------------------------------------

    def _get_body(self, name: str, metrics: QueryMetrics | None, offset: int, size: int | None):
        """Fetch the chunk ranges covering the byte range.

        Fusion stores chunks out of file order, so a ranged Get maps the
        requested range onto the file's segments (header, chunks, footer)
        and reads only the overlapping parts of each chunk — each from the
        single node holding it.
        """
        obj = self._lookup(name)
        if obj.splits_chunks:
            data = yield from super()._get_body(name, metrics, offset, size)
            return data
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
        reads = []
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
            # Bin coordinates of the read and of the chunk its CRC covers.
            base = loc.offset_in_block - meta.offset
            reads.append((
                loc.block_id, base + lo, base + hi,
                (loc.offset_in_block, loc.offset_in_block + loc.size, loc.checksum),
                self._fetch_chunk_range_op(
                    obj, coordinator, loc, lo - meta.offset, hi - lo, metrics
                ),
            ))
        trailer_start = total - len(obj.trailer_bytes)
        if end > trailer_start:
            lo = max(offset, trailer_start)
            parts.append((lo, obj.trailer_bytes[lo - trailer_start : end - trailer_start]))

        payloads = yield from self._get_round(obj, reads, coordinator, metrics)
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

        if not self._routes_direct(obj, node, loc.block_id):
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

    def _degraded_chunk_read(
        self,
        obj: StoredFusionObject,
        loc,
        coordinator,
        metrics: QueryMetrics | None,
    ):
        """Reconstruct a chunk whose node is down, at the coordinator:
        the kernel's degraded read of the chunk's bin, checked against
        the chunk's own CRC, with the chunk sliced out."""
        placement, bin_idx = obj.locate_block(loc.block_id)
        lo, hi = loc.offset_in_block, loc.offset_in_block + loc.size
        bin_bytes = yield from self._degraded_block_read(
            obj, placement, bin_idx, coordinator, metrics, span_intact(lo, hi, loc.checksum)
        )
        return bin_bytes[lo:hi]

    def _degraded_chunk(
        self, obj, meta: ColumnChunkMeta, loc, coordinator, metrics
    ):
        """Degraded read plus decode at the coordinator."""
        raw = yield from self._degraded_chunk_read(obj, loc, coordinator, metrics)
        yield from coordinator.compute(
            coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale),
            metrics,
        )
        return self._decoded_chunk(obj.name, meta, raw)

    # -- Query -----------------------------------------------------------------

    def _query_body(self, query: Query, metrics: QueryMetrics):
        """Two-stage adaptive-pushdown execution."""
        obj = self._lookup(query.table)
        if obj.splits_chunks:
            result = yield from super()._query_body(query, metrics)
            return result
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
            yield from self._return_result(coordinator, result, metrics)
            return result

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
            self.cluster, coordinator, ops, metrics,
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
            # filter reply, whose cardinality is already known.
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
                self.cluster, coordinator, ops, metrics,
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
                result = PartialResult(
                    result, shed_chunks, dropped_row_groups=tuple(sorted(shed_rgs))
                )

        yield from self._return_result(coordinator, result, metrics)
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
            self.cluster, coordinator, ops, metrics,
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
            return PartialResult(
                result, shed_chunks, dropped_row_groups=tuple(sorted(shed_rgs))
            )
        return result

    def _fused_op(self, obj, coordinator, op, meta: ColumnChunkMeta, type_, metrics) -> RemoteOp:
        """One fused filter+projection op on the node holding the chunk."""
        loc = obj.location_map.lookup(meta.key)
        node = self.cluster.node(loc.node_id)

        # Degraded: reconstruct at the coordinator and process there.
        def degraded():
            metrics.fallback_chunks += 1
            chunk = yield from self._degraded_chunk(obj, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                2 * coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                metrics,
            )
            return chunk.bitmap(op.leaf, op.type).bits, chunk.selected(op.leaf, type_)[0]

        if not self._routes_direct(obj, node, loc.block_id):
            return RemoteOp(standalone=degraded)

        # One audit record per op, written by its first attempt; a retry
        # re-evaluates the same Cost Equation on the same chunk.
        rec = None

        def execute():
            nonlocal rec
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
            chunk = self._decoded_chunk(obj.name, meta, data)
            bitmap = chunk.bitmap(op.leaf, op.type)
            decision = self.estimator.decide(bitmap.selectivity(), meta.size, meta.plain_size)
            if rec is None:
                rec = self.audit.record(
                    obj.name, meta.key, "fused", self.config.pushdown_mode.value, decision
                )
            selected, selected_bytes = chunk.selected(op.leaf, type_)
            if decision.push_down:
                reply = bitmap.wire_size() + selected_bytes
                return self.config.scaled(reply), (bitmap.bits, selected, selected_bytes, True)
            # Unfavourable cost product: reply with the bitmap plus the
            # whole compressed chunk; the coordinator decodes locally.
            reply = bitmap.wire_size() + loc.size
            return self.config.scaled(reply), (bitmap.bits, selected, selected_bytes, False)

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
                coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                + coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                metrics,
            )
            return bits, selected

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
            chunk = yield from self._degraded_chunk(obj, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, self.config.size_scale), metrics
            )
            return chunk.bitmap(op.leaf, op.type)

        if not self._routes_direct(obj, node, loc.block_id):
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
            reply = self._decoded_chunk(obj.name, meta, data).bitmap(op.leaf, op.type)
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
            chunk = yield from self._degraded_chunk(obj, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, self.config.size_scale), metrics
            )
            return chunk.values[indices]

        if not self._routes_direct(obj, node, loc.block_id):
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
                values = self._decoded_chunk(obj.name, meta, data).values[indices]
                reply = plain_size(type_, values)
                return self.config.scaled(reply), (values, reply)

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
                request_bytes=self.config.scaled(OP_REQUEST_BYTES + bitmap_wire),
                execute=execute_pushed,
                finalize=finalize_pushed,
                fallback=degraded,
            )

        # Fallback: fetch the compressed chunk, process at the coordinator.
        def execute_fetch():
            check_deadline(metrics, "projection chunk")
            data = yield from node.read_block_range(
                loc.block_id, loc.offset_in_block, loc.size, self.config.size_scale, metrics
            )
            self._verify_chunk(obj.name, loc, data)
            return self.config.scaled(loc.size), data

        def finalize(data):
            metrics.fallback_chunks += 1
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, self.config.size_scale)
                + coordinator.scan_seconds(meta.plain_size, self.config.size_scale),
                metrics,
            )
            values = self._decoded_chunk(obj.name, meta, data).values[indices]
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
            self.cluster, coordinator, ops, metrics, config=self.config
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
            metrics.fallback_chunks += 1
            chunk = yield from self._degraded_chunk(obj, meta, loc, coordinator, metrics)
            yield from coordinator.compute(
                coordinator.scan_seconds(meta.plain_size, self.config.size_scale), metrics
            )
            return partial_aggregate(agg, chunk.values[bitmap.indices()], bitmap.count())

        if not self._routes_direct(obj, node, loc.block_id):
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
            values = self._decoded_chunk(obj.name, meta, data).values[bitmap.indices()]
            partial = partial_aggregate(agg, values, bitmap.count())
            return self.config.scaled(SCALAR_RESULT_BYTES), partial

        def finalize(partial):
            # The reply arrived: the chunk was aggregated in-situ.  Nothing
            # to charge here; ``yield from ()`` makes this a generator.
            yield from ()
            metrics.pushed_down_chunks += 1
            return partial

        return RemoteOp(
            node=node,
            request_bytes=self.config.scaled(OP_REQUEST_BYTES + bitmap_wire),
            execute=execute,
            finalize=finalize,
            fallback=degraded,
        )

    # -- Layout hooks of the kernel ----------------------------------------------

    def _invalidate_block(self, obj, placement: StripePlacement, i: int) -> None:
        """A block was rewritten (repair) or changed reachability: drop
        every cached artefact derived from it."""
        if obj.splits_chunks:
            super()._invalidate_block(obj, placement, i)
            return
        block_id = placement.block_ids[i]
        self._degraded_bin_cache.pop(block_id)
        for key in obj.chunk_keys(block_id):
            self._decode_cache.pop((obj.name, key))
            self._page_index_cache.pop((obj.name, key))

    def chunk_nodes(self, name: str) -> dict[tuple[int, int], int]:
        """Which node holds each chunk (for placement assertions in tests)."""
        obj = self._lookup(name)
        return {key: loc.node_id for key, loc in obj.location_map.entries.items()}


def _empty_values(type_: ColumnType) -> np.ndarray:
    dtype = type_.numpy_dtype
    return np.empty(0, dtype=object) if dtype is None else np.zeros(0, dtype=dtype)
