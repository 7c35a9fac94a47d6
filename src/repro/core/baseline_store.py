"""The fixed-block layout, and the baseline object store (MinIO/Ceph-like).

The layout erasure-codes an object into fixed-size blocks with no
knowledge of its internal structure, so column chunks straddle block -
and therefore node - boundaries.  Queries run entirely at a coordinator
node, which first *reassembles* every needed column chunk by fetching
the whole blocks holding it from their nodes (the paper's Figure 5
behaviour) and only then decodes, filters and projects.  The one
optimisation it shares with FAC is footer-based row-group pruning.

:class:`StoredFixedObject` owns the layout's Put, Get, Query and
invalidation; everything else (WAL, metadata replicas, degraded reads,
scrub, rebuild, repair, migration) is the shared
:mod:`repro.core.kernel`.  :class:`BaselineStore` is the kernel with a
Put policy of fixed blocks for every object; a
:class:`~repro.core.store.FusionStore` lays out in fixed blocks the
objects FAC cannot fit in its storage-overhead budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

import numpy as np

from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import check_deadline
from repro.core import engine
from repro.core.fixed import FixedLayout, build_fixed_layout
from repro.core.kernel import (
    ObjectNotFound,
    PublishedStripes,
    PutReport,
    StoreKernel,
    StripePlacement,
    partial_result,
)
from repro.core.scatter_gather import SHED, execute_remote_ops
from repro.format.metadata import FileMetadata
from repro.obs.tracer import traced
from repro.sql.bitmap import Bitmap
from repro.sql.planner import PhysicalPlan

__all__ = ["BaselineStore", "ObjectNotFound", "PutReport", "StoredFixedObject"]


@dataclass
class StoredFixedObject(PublishedStripes):
    """Placement record for one object striped into fixed blocks."""

    #: Layout stamp on WAL records, metadata replicas, migration intents
    #: and read-repair keys.
    kind: ClassVar[str] = "fixed"

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

    def snapshot(self, stripes: list[StripePlacement] | None = None) -> "StoredFixedObject":
        """Copy for a metadata replica: shares the immutable footer and
        layout, never the stripe records repair mutates.  ``stripes`` are
        the stripe-record copies it holds (default: a fresh copy of
        each)."""
        return dataclasses.replace(
            self, stripes=[p.copy() for p in self.stripes] if stripes is None else stripes
        )

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

    def invalidate(self, store, placement: StripePlacement, i: int) -> None:
        """Fixed cuts ignore chunk boundaries, so the chunks decoded from
        a rewritten data block are not mapped back to it: evict the
        object's group of the decode cache, which costs its own entries
        alone.  A parity block decodes into nothing."""
        if i < len(placement.data_block_ids):
            store._decode_cache.evict_group(self.name)

    def block_read(self, index: int, lo: int, hi: int) -> tuple:
        """The ``(handle, lo, hi, check)`` read of bytes ``[lo, hi)`` of
        data block ``index``; ``check`` is the whole block's ``(lo, hi,
        crc)`` span, which its end-to-end CRC covers."""
        placement, j = self.locate_block(index)
        return index, lo, hi, (0, placement.data_sizes[j], placement.checksum(j))

    # -- Put -----------------------------------------------------------------

    @classmethod
    def lay_out(cls, store, name: str, data: bytes, metadata: FileMetadata, coordinator):
        """A Put's layout step (:meth:`StoreKernel._put`): fixed blocks,
        striped ``k`` at a time.

        Placement draws stay in seed order (one per stripe); the metadata
        replica set is derived from the coordinator's hash slot (its
        successors) rather than drawn, so the shared placement RNG is not
        perturbed.  The coordinator parses no footer: the cuts ignore
        it."""
        config = store.config
        cluster = store.cluster
        k = config.code.k
        layout = build_fixed_layout(config.code, len(data), config.real_block_size)
        chunks = metadata.all_chunks()
        obj = cls(
            name=name,
            metadata=metadata,
            total_bytes=len(data),
            layout=layout,
            header_bytes=data[:4],
            trailer_bytes=data[chunks[-1].end_offset if chunks else 4 :],
        )
        for stripe in range(layout.num_stripes):
            blocks = layout.stripe_blocks(stripe)
            nodes = cluster.place_stripe(f"{name}/s{stripe}", config.code.n)
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
        replica_count = config.resolved_metadata_replicas(cluster.num_nodes)
        if cluster.membership is not None:
            # Ring-derived replica set: stays on active members as the
            # topology changes (the successor scheme below would pin
            # replicas to drained slots).
            obj.replica_nodes = tuple(
                cluster.membership.placement_for(f"{name}/meta", replica_count)
            )
        else:
            obj.replica_nodes = tuple(
                (coordinator.node_id + i) % cluster.num_nodes for i in range(replica_count)
            )
        raw = np.frombuffer(data, dtype=np.uint8)
        stripe_payloads = [
            [raw[b.start : b.end] for b in layout.stripe_blocks(placement.stripe_id)]
            for placement in obj.stripes
        ]
        optimal = layout.total_bytes * (1.0 + config.code.optimal_overhead)
        report = PutReport(
            object_name=name,
            strategy="fixed",
            stored_bytes=layout.stored_bytes,
            data_bytes=len(data),
            overhead_vs_optimal=(layout.stored_bytes - optimal) / optimal,
            layout_build_seconds=0.0,
            simulated_put_seconds=0.0,
            num_stripes=layout.num_stripes,
        )
        return obj, stripe_payloads, 0.0, report

    def publish(self, store, coordinator, deadline):
        """Process: a Put's metadata replicas.  The placement map is a
        handful of entries per block; the paper charges map replication
        only for FAC's chunk-granular location map, so this publish is
        metadata-plane (no simulated bytes)."""
        yield from ()  # nothing to charge; this makes it a generator
        replica = store._meta_snapshot(self)
        for nid in self.replica_nodes:
            if store.cluster.delivers(coordinator.node_id, nid):
                store.cluster.node(nid).put_meta(self.name, replica)

    # -- Get -------------------------------------------------------------------

    def get(self, store, coordinator, offset: int, size: int, metrics):
        """Process: fetch the block fragments covering the byte range to
        the coordinator, in one round, and reassemble them."""
        reads = [
            self.block_read(f.block_index, f.block_offset, f.block_offset + f.length)
            for f in self.layout.locate(offset, size)
        ]
        parts = yield from store._get_round(self, reads, coordinator, metrics)
        return b"".join(parts)

    # -- Query -----------------------------------------------------------------

    def query(self, store, physical: PhysicalPlan, coordinator, row_groups, metrics: QueryMetrics):
        """Process: reassemble the needed chunks, then execute locally."""
        config = store.config
        columns = engine.needed_columns(physical, physical.query)
        needed = [(rg, col) for rg in row_groups for col in columns]

        # Stage 1: fetch every needed chunk to the coordinator, in parallel.
        allow_shed = store._may_shed(physical.query)
        decoded, shed_ops = yield from traced(
            store.sim,
            self._fetch_blocks(store, coordinator, needed, metrics, allow_shed),
            "fetch_stage", "store", chunks=len(needed),
        )
        # A shed fetch leaves its chunk unreadable; drop the whole row
        # group and report the query as partial.
        shed_rgs = {rg for (rg, _col), values in decoded.items() if values is SHED}
        kept = [rg for rg in row_groups if rg not in shed_rgs]

        # Stage 2: local evaluation at the coordinator.
        tracer = store.sim.tracer
        eval_span_id = tracer.begin("eval_stage", cat="store") if tracer is not None else None
        rg_selected: dict[int, Bitmap] = {}
        for rg in kept:
            num_rows = self.metadata.row_groups[rg].num_rows
            leaf_bitmaps = []
            for op in physical.filter_ops:
                check_deadline(metrics, "filter eval")
                meta = self.metadata.chunk(rg, op.column)
                yield from coordinator.compute(
                    coordinator.scan_seconds(meta.plain_size, config.size_scale), metrics
                )
                leaf_bitmaps.append(decoded[(rg, op.column)].bitmap(op.leaf, op.type))
            bits = physical.combine_bitmaps([b.bits for b in leaf_bitmaps], num_rows)
            # A lone positive leaf is its own row-group bitmap, with its
            # set positions remembered.
            rg_selected[rg] = (
                leaf_bitmaps[0] if leaf_bitmaps and bits is leaf_bitmaps[0].bits else Bitmap(bits)
            )

        rg_projected: dict[tuple[int, str], np.ndarray] = {}
        for rg in kept:
            indices = rg_selected[rg].indices()
            for col in physical.projection_columns:
                check_deadline(metrics, "projection eval")
                meta = self.metadata.chunk(rg, col)
                yield from coordinator.compute(
                    coordinator.scan_seconds(meta.plain_size, config.size_scale), metrics
                )
                rg_projected[(rg, col)] = decoded[(rg, col)].values[indices]

        result = engine.assemble_result(
            physical, self.metadata, kept, {rg: rg_selected[rg].bits for rg in kept}, rg_projected
        )
        if eval_span_id is not None:
            tracer.finish(eval_span_id)
        return partial_result(result, shed_ops, shed_rgs, metrics)

    def _fetch_blocks(self, store, coordinator, needed, metrics, allow_shed: bool):
        """Fetch whole erasure-code blocks covering the needed chunks.

        Blocks are the placement and I/O unit of fixed-block stores, so
        chunk reassembly reads every block a chunk touches in full (each
        block once per query).  Chunk bytes are then sliced out locally
        and decoded at the coordinator.  Returns ``(decoded, shed_ops)``:
        chunks touching a shed block map to the ``SHED`` sentinel.
        """
        block_set: set[int] = set()
        for rg, col in needed:
            meta = self.metadata.chunk(rg, col)
            for f in self.layout.locate(meta.offset, meta.size):
                block_set.add(f.block_index)

        indices = sorted(block_set)
        reads = [self.block_read(idx, 0, self.layout.blocks[idx].size) for idx in indices]
        payloads = yield from execute_remote_ops(
            store.cluster,
            coordinator,
            [store._range_read_op(self, coordinator, *read, metrics) for read in reads],
            metrics,
            config=store.config,
            allow_shed=allow_shed,
        )
        block_bytes = dict(zip(indices, payloads))
        shed_ops = sum(1 for p in payloads if p is SHED)

        decoded = {}
        for rg, col in needed:
            meta = self.metadata.chunk(rg, col)
            fragments = self.layout.locate(meta.offset, meta.size)
            if any(block_bytes[f.block_index] is SHED for f in fragments):
                decoded[(rg, col)] = SHED
                continue
            chunk = store._decoded_chunk(self.name, meta, (
                block_bytes[f.block_index][f.block_offset : f.block_offset + f.length]
                for f in fragments
            ))
            yield from coordinator.compute(
                coordinator.decode_seconds(meta.size, meta.plain_size, store.config.size_scale),
                metrics,
            )
            decoded[(rg, col)] = chunk
        return decoded, shed_ops

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
    """Fixed-block erasure-coded store with coordinator-side execution:
    every Put lays the object out in fixed blocks."""

    span_label = "baseline"

    def _put_body(self, name: str, data: bytes):
        return self._put(
            name, data, partial(StoredFixedObject.lay_out, self, name, data)
        )
