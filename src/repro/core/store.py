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

Every op of a query is a chunk op (:class:`_ChunkOp`): one routine
routes it, reads the chunk with its CRC checked, charges the node and
keeps the degraded path; the filter, fused, projection and aggregate ops
differ only in what they evaluate, reply and decide.  Every stage runs
its ops in one round through the stage runner (:func:`_run_stage`).

:class:`FusionStore` is the kernel (:mod:`repro.core.kernel`) with a Put
policy: FAC first, and fixed blocks
(:class:`~repro.core.baseline_store.StoredFixedObject`) for an object
whose FAC layout blows the storage-overhead budget.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import check_deadline
from repro.cluster.simcore import LinkDown, all_of
from repro.core import engine
from repro.core.baseline_store import StoredFixedObject
from repro.core.config import OP_REQUEST_BYTES, SCALAR_RESULT_BYTES
from repro.core.fac import construct_stripes
from repro.core.kernel import (
    DecodedChunk, PublishedStripes, PutReport, StoreKernel, StripePlacement, partial_result,
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

    # -- Query -----------------------------------------------------------------

    def query(self, store, physical: PhysicalPlan, coordinator, row_groups, metrics: QueryMetrics):
        """Process: two-stage adaptive-pushdown execution."""
        query = physical.query
        config = store.config
        tracer = store.sim.tracer
        allow_shed = store._may_shed(query)
        # Row group -> its shed ops: one shed op leaves its whole row
        # group unanswerable (rows must carry every projected column).
        dropped: Counter[int] = Counter()
        at = _At(self, store, coordinator, metrics)

        # Fused fast path: when the whole query touches exactly one column
        # (a single filter leaf whose column is also the only projection),
        # a storage node's local bitmap is already the final bitmap for
        # its row group.  The node applies the Cost Equation locally and
        # answers filter + projection in one round trip with one decode.
        if _fusable(physical):
            return (yield from traced(
                store.sim,
                self._fused_query(at, physical, row_groups, allow_shed, dropped),
                "fused_stage", "store", chunks=len(row_groups),
            ))

        # ---- Filter stage: push every live leaf down, gather bitmaps. ----
        filter_span_id = (
            tracer.begin("filter_stage", cat="store") if tracer is not None else None
        )
        # Row-group bitmaps travel as Bitmap objects: each remembers its
        # cardinality, counted once however many ops ship it.
        leaf_results: dict[tuple[int, int], Bitmap] = {}
        ops = {}
        for rg in row_groups:
            for op in physical.filter_ops:
                meta = self.metadata.chunk(rg, op.column)
                if leaf_may_match(op.leaf, op.type, meta.stats.min_value, meta.stats.max_value):
                    ops[rg, op.index] = _FilterOp(at, meta, op).remote_op()
                else:
                    # Footer stats prove no row matches: skip the RPC.
                    num_rows = self.metadata.row_groups[rg].num_rows
                    leaf_results[rg, op.index] = Bitmap.zeros(num_rows)
        leaf_results.update((yield from _run_stage(at, ops, dropped, allow_shed)))
        rg_selected: dict[int, Bitmap] = {}
        for rg in row_groups:
            if rg in dropped:
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
        if filter_span_id is not None:
            tracer.finish(filter_span_id, ops=len(ops))

        # ---- Projection stage -------------------------------------------------
        if config.enable_aggregate_pushdown and query.has_aggregates() and not query.group_by:
            return (yield from traced(
                store.sim,
                self._aggregate_pushdown_stage(at, physical, row_groups, rg_selected, dropped),
                "aggregate_stage", "store",
            ))
        projection_span_id = (
            tracer.begin("projection_stage", cat="store") if tracer is not None else None
        )
        rg_projected: dict[tuple[int, str], np.ndarray] = {}
        ops = {}
        for rg, bitmap in rg_selected.items():
            indices = bitmap.indices()
            for col in physical.projection_columns:
                type_ = physical.schema.field(col).type
                if len(indices) == 0:
                    rg_projected[rg, col] = _empty_values(type_)
                else:
                    meta = self.metadata.chunk(rg, col)
                    ops[rg, col] = _ProjectionOp(at, meta, bitmap, type_, indices).remote_op()
        rg_projected.update((yield from _run_stage(at, ops, dropped, allow_shed)))
        selected = {rg: bitmap.bits for rg, bitmap in rg_selected.items()}
        result = self._answer(physical, row_groups, selected, rg_projected, dropped, metrics)
        if projection_span_id is not None:
            tracer.finish(projection_span_id, ops=len(ops))
        return result

    def _fused_query(self, at, physical: PhysicalPlan, row_groups, allow_shed, dropped):
        """Single-round execution of a one-column filter+projection query."""
        op = physical.filter_ops[0]
        rg_selected: dict[int, np.ndarray] = {}
        rg_projected: dict[tuple[int, str], np.ndarray] = {}
        type_ = physical.schema.field(op.column).type
        ops = {}
        for rg in row_groups:
            meta = self.metadata.chunk(rg, op.column)
            if leaf_may_match(op.leaf, op.type, meta.stats.min_value, meta.stats.max_value):
                ops[rg, op.column] = _FusedOp(at, meta, op, type_).remote_op()
            else:
                num_rows = self.metadata.row_groups[rg].num_rows
                rg_selected[rg] = np.zeros(num_rows, dtype=np.bool_)
                rg_projected[rg, op.column] = _empty_values(type_)
        replies = yield from _run_stage(at, ops, dropped, allow_shed)
        for (rg, col), (bits, values) in replies.items():
            rg_selected[rg] = bits
            rg_projected[rg, col] = values
        return self._answer(physical, row_groups, rg_selected, rg_projected, dropped, at.metrics)

    def _answer(self, physical: PhysicalPlan, row_groups, selected, projected, dropped, metrics):
        """The query's answer over the row groups no shed op ``dropped``."""
        kept = [rg for rg in row_groups if rg not in dropped]
        result = engine.assemble_result(physical, self.metadata, kept, selected, projected)
        return partial_result(result, dropped.total(), dropped, metrics)

    def _aggregate_pushdown_stage(
        self, at, physical: PhysicalPlan, row_groups: list[int], rg_selected: dict[int, Bitmap],
        dropped: Counter[int],
    ):
        """Extension: nodes compute per-chunk partial aggregates in-situ."""
        query = physical.query
        aggs = [item for item in query.select if isinstance(item, Aggregate)]
        matched = sum(rg_selected[rg].count() for rg in row_groups)

        ops = {}
        for rg in row_groups:
            bitmap = rg_selected[rg]
            if not bitmap.bits.any():
                continue
            for agg_idx, agg in enumerate(aggs):
                if agg.column is not None:  # COUNT(*) comes from bitmaps alone
                    meta = self.metadata.chunk(rg, agg.column)
                    ops[rg, agg_idx] = _AggregateOp(at, meta, bitmap, agg).remote_op()
        # An aggregate's stage may not shed (StoreKernel._may_shed).
        partials = yield from _run_stage(at, ops, dropped)

        results = []
        for agg_idx, agg in enumerate(aggs):
            if agg.column is None:
                results.append(matched)
            else:
                mine = [p for (_rg, i), p in partials.items() if i == agg_idx]
                results.append(merge_partial_aggregates(agg, mine or [{"count": 0}]))
        labels = [f"{a.func.value}({a.column or '*'})" for a in aggs]
        return QueryResult(
            columns=labels, rows=None, aggregates=results, matched_rows=matched,
            total_rows=self.metadata.num_rows,
        )


class _At(NamedTuple):
    """Where a query's chunk ops run."""

    obj: StoredFusionObject
    store: StoreKernel
    coordinator: object  # StorageNode
    metrics: QueryMetrics


class _ChunkOp:
    """One op of a Fusion query on one chunk; :meth:`remote_op` routes it.

    On the node the op reads the chunk (CRC-checked), charges its decode
    and :attr:`scans` scans - over the pages its filter :attr:`leaf` can
    match, if it has one - and replies :meth:`size` bytes of
    :meth:`evaluate` on the decoded chunk.  An op with a Cost Equation
    (audit :attr:`stage`) may fetch instead: the node replies with the
    compressed chunk, and the coordinator decodes and scans it.  A
    projection decides before it is sent (:meth:`pushes`; a fetch sends
    no bitmap and charges the node nothing), a fused op on the node
    (:meth:`verdict`).  The degraded path - the holder not usable, or
    every attempt failed - reconstructs the chunk at the coordinator,
    charges the scans there and evaluates it.  An op is one object, not
    a set of closures: a hot query builds thousands.
    """

    __slots__ = ("obj", "store", "coordinator", "meta", "metrics", "loc", "node", "push", "rec")

    #: Names the op in its ``DeadlineExceeded``.
    label = ""
    #: Scans of the chunk per evaluation.
    scans = 1
    #: Audit stage of the op's Cost Equation (None: always pushed down).
    stage: str | None = None
    #: Counts the op's pushed-down and fallback chunks (a filter does not).
    counted = True
    #: The filter leaf whose pages the node may skip.
    leaf = None
    #: The row-group bitmap the request carries.
    sent: Bitmap | None = None

    def __init__(self, at: _At, meta: ColumnChunkMeta) -> None:
        self.obj, self.store, self.coordinator, self.metrics = at
        self.meta, self.rec = meta, None

    def evaluate(self, chunk: DecodedChunk):
        """What the op computes on the decoded chunk."""
        raise NotImplementedError

    def size(self, chunk: DecodedChunk, value) -> int:
        """Bytes of ``value`` in the node's reply."""
        raise NotImplementedError

    def pushes(self) -> bool:
        """Is the op pushed down?  Asked once, when it is built."""
        return True

    def verdict(self, chunk: DecodedChunk) -> tuple[bool, int]:
        """On the node: pushed down or fetched, and the bytes that ride
        with the reply either way."""
        return self.push, 0

    def decide(self, selectivity: float) -> bool:
        """The Cost Equation.  The op's first decision writes its audit
        record; a retry re-evaluates the same equation on the same chunk."""
        store, meta = self.store, self.meta
        decision = store.estimator.decide(selectivity, meta.size, meta.plain_size)
        if self.rec is None:
            self.rec = store.audit.record(
                self.obj.name, meta.key, self.stage, store.config.pushdown_mode.value, decision
            )
        return decision.push_down

    def remote_op(self) -> RemoteOp:
        """The op for the stage: to the node holding the chunk, or, when
        that node is not usable, straight down the degraded path."""
        store = self.store
        loc = self.loc = self.obj.location_map.lookup(self.meta.key)
        node = self.node = store.cluster.node(loc.node_id)
        if not store._routes_direct(self.obj, node, loc.block_id):
            return RemoteOp(standalone=self.degraded)
        sent, self.push = self.sent, self.pushes()
        request = OP_REQUEST_BYTES + (sent.wire_size() if self.push and sent is not None else 0)
        return RemoteOp(
            node=node, request_bytes=store.config.scaled(request), execute=self.execute,
            finalize=self.finalize if self.counted else None, fallback=self.degraded,
        )

    def execute(self):
        """Process, on the node: returns the reply's bytes and what the
        coordinator makes of it (:meth:`finalize`)."""
        store, meta, node, loc = self.store, self.meta, self.node, self.loc
        scale = store.config.size_scale
        check_deadline(self.metrics, self.label)
        data = yield from self._read_chunk()
        if self.push:
            fraction = (
                1.0 if self.leaf is None
                else store._page_fraction(self.obj.name, meta, self.leaf, data)
            )
            yield from node.compute(
                fraction
                * (
                    node.decode_seconds(meta.size, meta.plain_size, scale)
                    + self.scans * node.scan_seconds(meta.plain_size, scale)
                ),
                self.metrics,
            )
        # A fetched chunk is decoded here as well: the same bytes, with
        # the decode and the scan charged to the coordinator.
        chunk = store._decoded_chunk(self.obj.name, meta, (data,))
        value = self.evaluate(chunk)
        pushed, extra = self.verdict(chunk)
        # A fetch weighs its would-be reply only for the audit record.
        plain = self.size(chunk, value) if pushed or self.rec is not None else None
        reply = store.config.scaled(extra + (plain if pushed else loc.size))
        return reply, ((value, plain, pushed) if self.counted else value)

    def finalize(self, reply):
        """Process: the reply arrived, so this attempt's path is the
        chunk's outcome."""
        value, plain, pushed = reply
        metrics, loc = self.metrics, self.loc
        if pushed:
            metrics.pushed_down_chunks += 1
            chosen, alternative = plain, loc.size
        else:
            metrics.fallback_chunks += 1
            meta, coordinator = self.meta, self.coordinator
            scale = self.store.config.size_scale
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, scale)
                + coordinator.scan_seconds(meta.plain_size, scale),
                metrics,
            )
            chosen, alternative = loc.size, plain
        if self.rec is not None:
            self.rec.actual_chosen_bytes, self.rec.actual_alternative_bytes = chosen, alternative
        return value

    def degraded(self):
        """Process: the degraded path."""
        if self.counted:
            self.metrics.fallback_chunks += 1
        chunk = yield from self._degraded_chunk()
        coordinator = self.coordinator
        yield from coordinator.compute(
            self.scans
            * coordinator.scan_seconds(self.meta.plain_size, self.store.config.size_scale),
            self.metrics,
        )
        return self.evaluate(chunk)

    def _read_chunk(self):
        """Process: the whole chunk read off its node and checked against
        its Put-time CRC."""
        loc = self.loc
        data = yield from self.node.read_block_range(
            loc.block_id, loc.offset_in_block, loc.size, self.store.config.size_scale,
            self.metrics,
        )
        self.store._verify(self.obj, loc.block_id, loc.checksum, data)
        return data

    def _degraded_chunk(self):
        """Process: reconstruct the chunk at the coordinator - the
        kernel's degraded read of the chunk's bin, checked against the
        chunk's own CRC - and decode it there."""
        store, meta, loc, coordinator = self.store, self.meta, self.loc, self.coordinator
        placement, bin_idx = self.obj.locate_block(loc.block_id)
        lo, hi = loc.offset_in_block, loc.offset_in_block + loc.size
        bin_bytes = yield from store._degraded_block_read(
            self.obj, placement, bin_idx, coordinator, self.metrics,
            span_intact(lo, hi, loc.checksum),
        )
        yield from coordinator.compute(
            coordinator.decode_seconds(meta.size, meta.plain_size, store.config.size_scale),
            self.metrics,
        )
        return store._decoded_chunk(self.obj.name, meta, (bin_bytes[lo:hi],))


class _FilterOp(_ChunkOp):
    """A pushed-down filter leaf: the node replies with its bitmap."""

    __slots__ = ("leaf",)
    label, counted = "filter chunk", False

    def __init__(self, at, meta, leaf) -> None:
        super().__init__(at, meta)
        self.leaf = leaf

    def evaluate(self, chunk):
        return chunk.bitmap(self.leaf.leaf, self.leaf.type)

    def size(self, chunk, bitmap):
        return bitmap.wire_size()


class _FusedOp(_ChunkOp):
    """A filter leaf and the projection of its own column in one op: the
    node's bitmap is the row group's, so the node applies the Cost
    Equation to it, and ships it with the selected values or the chunk."""

    __slots__ = ("leaf", "type_")
    label, scans, stage = "fused chunk", 2, "fused"

    def __init__(self, at, meta, leaf, type_: ColumnType) -> None:
        super().__init__(at, meta)
        self.leaf, self.type_ = leaf, type_

    def evaluate(self, chunk):
        leaf = self.leaf
        return chunk.bitmap(leaf.leaf, leaf.type).bits, chunk.selected(leaf.leaf, self.type_)[0]

    def size(self, chunk, value):
        return chunk.selected(self.leaf.leaf, self.type_)[1]

    def verdict(self, chunk):
        bitmap = chunk.bitmap(self.leaf.leaf, self.leaf.type)
        return self.decide(bitmap.selectivity()), bitmap.wire_size()


class _ProjectionOp(_ChunkOp):
    """One projection of a row group's selected rows: pushed down (the
    bitmap goes, the selected values come back) or fetched, per the Cost
    Equation."""

    __slots__ = ("sent", "type_", "indices")
    label, stage = "projection chunk", "projection"

    def __init__(self, at, meta, sent: Bitmap, type_: ColumnType, indices: np.ndarray) -> None:
        super().__init__(at, meta)
        self.sent, self.type_, self.indices = sent, type_, indices

    def evaluate(self, chunk):
        return chunk.values[self.indices]

    def size(self, chunk, values):
        return plain_size(self.type_, values)

    def pushes(self):
        return self.decide(self.sent.selectivity())


class _AggregateOp(_ChunkOp):
    """One partial aggregate over a row group's selected rows, computed
    in-situ (an extension: the paper's future work)."""

    __slots__ = ("sent", "agg")
    label = "aggregate chunk"

    def __init__(self, at, meta, sent: Bitmap, agg: Aggregate) -> None:
        super().__init__(at, meta)
        self.sent, self.agg = sent, agg

    def evaluate(self, chunk):
        sent = self.sent
        return partial_aggregate(self.agg, chunk.values[sent.indices()], sent.count())

    def size(self, chunk, partial):
        return SCALAR_RESULT_BYTES


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


def _run_stage(at: _At, ops: dict, dropped: Counter[int], allow_shed: bool = False):
    """Process: run the ``{key: op}`` stage in one scatter-gather round;
    returns ``{key: value}`` for every op that was not shed.  A shed op
    counts against its row group (``key[0]``) in ``dropped``."""
    values = yield from execute_remote_ops(
        at.store.cluster, at.coordinator, list(ops.values()), at.metrics,
        config=at.store.config, allow_shed=allow_shed,
    )
    out = {}
    for key, value in zip(ops, values):
        if value is SHED:
            dropped[key[0]] += 1
        else:
            out[key] = value
    return out


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
