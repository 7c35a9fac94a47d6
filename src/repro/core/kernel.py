"""The one object store: durability, repair and the Put / Get / Query protocol.

The paper's Figure 2 stripe - ``k`` data blocks of *different* sizes,
implicitly zero-padded, parity at the largest size - contains the
fixed-block stripe of Section 4.2's fallback as its equal-size special
case.  So both layouts keep **one stripe record**,
:class:`StripePlacement`, and everything that needs only that record
lives here once: plane installs, the run-the-sim and admission /
deadline / tenant wrappers, the Put protocol (WAL intent, streamed
writes, replica publish, commit), block writes, the WAL protocol of
Delete, metadata-replica publish (quorum-guarded) and anti-entropy,
scrub, the degraded read's gather-rank-fetch-decode, the range read of
a Get with its end-to-end check, checksum-guided recovery, stripe repair
in rounds (which is also node rebuild), stripe migration, fsck and WAL
recovery.  So do the caches every layout fills (decoded chunks with
their leaf selections, page indexes, degraded reconstructions) and the
Cost Equation's estimator.

The layout is a property of the stored object, not of the store: one
store holds one namespace, and a Fusion store's over-budget objects sit
in it as fixed-layout objects beside its FAC ones.  What depends on the
layout is therefore asked of the object, and both stored-object classes
(``StoredFusionObject``, ``StoredFixedObject``) define each of these
layout operations:

* ``kind`` - ``"fac"`` or ``"fixed"``, the stamp on WAL records,
  metadata replicas, migration intents and read-repair keys;
* ``lay_out(store, name, data, metadata, coordinator, ...)`` - a Put's
  layout step: the object with its placements drawn, its payloads, the
  footer parse it charges and its report (:meth:`StoreKernel._put`);
* ``publish(store, coordinator, deadline)`` - a Put's metadata-replica
  publish (FAC ships its location map; fixed is metadata-plane);
* ``get(store, coordinator, offset, size, metrics)`` - a ranged Get:
  the range as ``(handle, lo, hi, check)`` reads of data blocks, each
  with the ``(lo, hi, crc)`` span its end-to-end check covers (FAC: the
  chunk's; fixed: the block's), read in one round
  (:meth:`StoreKernel._get_round`);
* ``query(store, physical, coordinator, row_groups, metrics)`` - a
  query's stages: FAC pushes work to the node holding each chunk, the
  fixed layout reassembles chunks at the coordinator;
* ``invalidate(store, placement, i)`` - drop the decoded chunks derived
  from a rewritten or moved block;
* ``locate_block(handle)`` - the stripe record and position behind the
  layout's read handle (FAC: a block id; fixed: a block index);
* ``block_moved(block_id, node_id)`` - FAC rewrites its ``LocationMap``
  entries, the fixed layout has nothing to follow;
* ``dangling_locations()`` - fsck's location-map leg (empty for fixed);
* ``snapshot(stripes)``, ``replica_nodes`` and ``total_bytes`` - the
  copy a metadata replica holds (with the stripe-record copies the
  kernel hands it, :meth:`StoreKernel._meta_snapshot`), where the
  replicas live, and the object's size.

A store is the kernel plus its **Put policy**, ``_put_body``: which
layout a Put picks (``FusionStore``: FAC, falling back to fixed blocks
over the storage-overhead budget; ``BaselineStore``: fixed), and
:attr:`StoreKernel.span_label`, the ``store=`` label of its tracer
spans.

Two orderings the former twin implementations disagreed on, one rule
each:

* **Rebuild** (:meth:`StoreKernel._rebuild`): the bytes land
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
from operator import itemgetter

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
from repro.cluster.simcore import LinkDown, QueueFull, all_of, any_of
from repro.core import engine
from repro.core.cache import LruDict
from repro.core.config import StoreConfig
from repro.core.cost_model import PushdownCostEstimator
from repro.core.fsck import FsckReport, RecoveryReport, fsck as run_fsck, recover as run_recover
from repro.core.location_map import ChecksumError, chunk_checksum
from repro.core.rebalance import MigrationEntry
from repro.core.repair import RepairError, localise_stripes
from repro.core.scatter_gather import RemoteOp, execute_remote_ops
from repro.core.scrub import ScrubReport, check_stripe
from repro.core.wal import MetaReplica, QuorumLost, WalRecord, WalWriter
from repro.ec.stripe import decode_stripe, encode_stripe
from repro.format.metadata import ColumnChunkMeta
from repro.format.pages import chunk_page_index, decode_column_chunk
from repro.format.reader import read_metadata
from repro.format.table import plain_size
from repro.obs.audit import PushdownAuditLog
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import install_telemetry
from repro.obs.tracer import Tracer, traced
from repro.sql.ast_nodes import Between, Comparison, InList, Query
from repro.sql.bitmap import Bitmap
from repro.sql.local import QueryResult
from repro.sql.parser import parse
from repro.sql.planner import PhysicalPlan, plan as make_plan
from repro.sql.predicate import eval_leaf, leaf_may_match


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


@dataclass
class PublishedStripes:
    """Base of the stored-object classes: the copy-on-write state of
    their metadata snapshots (:meth:`StoreKernel._meta_snapshot`).  The
    stripe-record copies the last snapshot holds, and the ids of the
    stripes relocated since (:meth:`StoreKernel._relocate_block`)."""

    published_stripes: list[StripePlacement] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    moved_stripes: set[int] = field(default_factory=set, init=False, repr=False, compare=False)


_EMPTY = np.zeros(0, dtype=np.uint8)

#: LRU bounds (entries) of the real-bytes memo caches: decoded column
#: chunks, and blocks recovered by a degraded read.  They save benchmark
#: wall-clock, not simulated time (a chunk decode is charged on every
#: access; a degraded gather and its decode once per request and
#: stripe, whatever the cache holds), so a small cache suffices.
DECODE_CACHE_ENTRIES = 512
DEGRADED_CACHE_ENTRIES = 64
#: Leaf selections one decoded chunk remembers; past it, the oldest goes.
SELECTIONS_PER_CHUNK = 8


def leaf_key(leaf) -> tuple:
    """What a leaf's selection is remembered under: the leaf and the type
    of each literal, since ``1``, ``1.0`` and ``True`` compare and hash
    alike but need not select alike (or type-check at all)."""
    if isinstance(leaf, Comparison):
        literals = (leaf.value,)
    elif isinstance(leaf, Between):
        literals = (leaf.low, leaf.high)
    elif isinstance(leaf, InList):
        literals = leaf.values
    else:
        literals = ()
    return (leaf, *map(type, literals))


class DecodedChunk:
    """A decode-cache entry: one chunk's decoded values, and what each
    filter leaf evaluated over them selected.

    The selections are real bytes derived from the values, so they live
    and die with the entry: they share its LRU bound, its group and every
    eviction.  A chunk is immutable once Put and every scan is charged
    per op whatever is remembered, so a hit changes no simulated cost.
    Remembered arrays are read-only: every later query shares them.
    """

    __slots__ = ("values", "_selections")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        # leaf_key -> [bitmap, (selected values, their plain size) | None]
        self._selections: dict[tuple, list] = {}

    def _selection(self, leaf, type_) -> list:
        key = leaf_key(leaf)
        selection = self._selections.get(key)
        if selection is None:
            bitmap = Bitmap(eval_leaf(leaf, type_, self.values))
            bitmap.bits.flags.writeable = False
            selection = self._selections[key] = [bitmap, None]
            if len(self._selections) > SELECTIONS_PER_CHUNK:
                del self._selections[next(iter(self._selections))]
        return selection

    def bitmap(self, leaf, type_) -> Bitmap:
        """The rows of this chunk that ``leaf`` selects."""
        return self._selection(leaf, type_)[0]

    def selected(self, leaf, type_) -> tuple[np.ndarray, int]:
        """The values ``leaf`` selects, and their plain size in bytes."""
        selection = self._selection(leaf, type_)
        if selection[1] is None:
            values = self.values[selection[0].indices()]
            values.flags.writeable = False
            selection[1] = (values, plain_size(type_, values))
        return selection[1]


def block_owner(block_id: str) -> str:
    """The object a block id belongs to.  Ids are ``<name>/b<i>`` (a
    fixed data block) or ``<name>/s<i>/<d|p><j>``, and a name may hold
    ``/`` itself, so the owner is cut off from the right."""
    head, _, last = block_id.rpartition("/")
    return head if last.startswith("b") else head.rpartition("/")[0]


def span_intact(lo: int, hi: int, crc: int):
    """The end-to-end check of a data block: do its bytes ``[lo, hi)``
    match the Put-time CRC ``crc`` (0 = not recorded)?  FAC checks a
    chunk's span of its bin, the fixed layout the whole block."""

    def intact(block) -> bool:
        return not crc or chunk_checksum(block[lo:hi]) == crc

    return intact


class _SharedGather:
    """One request's degraded gather of one stripe.

    The first degraded read of the stripe, or the Get round that marked
    it, fetches and decode-charges the shards; later reads in the same
    request wait on ``done`` and reuse ``shards``.  When the gather fails, the entry leaves the
    table, ``dropped`` is set, ``shards`` stays ``None`` and ``error``
    holds what it raised (``None`` if it was cancelled).  A fetch of a
    dropped gather that still lands neither charges nor publishes.
    """

    __slots__ = ("done", "shards", "error", "waiters", "dropped")

    def __init__(self, done) -> None:
        self.done = done
        self.shards: list[np.ndarray | None] | None = None
        self.error: Exception | None = None
        self.waiters = 0
        self.dropped = False


def partial_result(result, shed: int, dropped, metrics: QueryMetrics):
    """A query's answer: ``result`` itself, or, when ``shed`` ops were
    shed, the :class:`PartialResult` naming the row groups ``dropped``
    (counted once per query)."""
    if not shed:
        return result
    metrics.partial_results += 1
    return PartialResult(result, shed, dropped_row_groups=tuple(sorted(dropped)))


class StoreKernel:
    """The object store; a subclass adds only its Put policy
    (``_put_body``) and its :attr:`span_label`."""

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
        # (simulated costs are charged whatever it holds), is bounded by
        # a small LRU, is grouped by object name, and is invalidated on
        # put/delete so a reused name never serves stale values.
        # Keyed ``(name, meta.key)`` whatever the layout.
        self._decode_cache: LruDict[tuple, DecodedChunk] = LruDict(
            DECODE_CACHE_ENTRIES, group=itemgetter(0)
        )
        # Page indexes for node-local page skipping, keyed the same way.
        self._page_index_cache: LruDict[tuple, list] = LruDict(
            DECODE_CACHE_ENTRIES, group=itemgetter(0)
        )
        # Degraded-read reconstruction cache: block id -> recovered block.
        self._degraded_bin_cache: LruDict[str, np.ndarray] = LruDict(
            DEGRADED_CACHE_ENTRIES, group=block_owner
        )
        # Degraded gathers of the requests in flight: id of the request's
        # metrics -> (object name, stripe id) -> _SharedGather.  Each
        # table lives exactly as long as its Get or query.
        self._request_gathers: dict[int, dict[tuple[str, int], _SharedGather]] = {}
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
        self.estimator = PushdownCostEstimator(self.config.pushdown_mode)
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
        min-healthy floor of :meth:`_routes_direct` reinstates them when
        reconstruction would be starved of sources anyway.
        """
        return (
            node.alive
            and self.cluster.routable(node.node_id)
            and not self.cluster.health.is_greylisted(node.node_id)
        )

    def _routes_direct(self, obj, node, handle) -> bool:
        """Build an op on block ``handle``'s holder ``node``, or build it
        as a standalone degraded read?

        Direct when the node is :meth:`_usable`.  A live but non-usable
        (suspect / greylisted / breaker-open) holder still gets the op
        under the min-healthy floor: once the holder's stripe has fewer
        than k usable sources, degraded reconstruction is itself
        guaranteed to lean on non-usable nodes, so a direct attempt -
        with the degraded path kept as fallback - is strictly better
        than the reconstruction cliff.  Fault-free runs never pay the
        floor's scan.
        """
        if self._usable(node):
            return True
        if not node.alive:
            return False
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
        """Drop every cached artefact derived from object ``name``, at
        the cost of that object's entries alone (cache groups)."""
        self._decode_cache.evict_group(name)
        self._page_index_cache.evict_group(name)
        self._degraded_bin_cache.evict_group(name)

    def _invalidate_block(self, obj, placement: StripePlacement, i: int) -> None:
        """Stripe position ``i`` was rewritten (repair) or moved: drop
        its degraded reconstruction and what its layout decoded from it."""
        self._degraded_bin_cache.pop(placement.block_ids[i])
        obj.invalidate(self, placement, i)

    def _decoded_chunk(self, name: str, meta: ColumnChunkMeta, parts) -> DecodedChunk:
        """The decode-cache entry of chunk ``meta`` of object ``name``.
        On a miss it decodes the chunk's bytes, the pieces ``parts``
        yields (several when the chunk was reassembled).  A lone piece
        decodes in place, with no copy; a hit never reads ``parts``."""
        key = (name, meta.key)
        cached = self._decode_cache.get(key)
        if cached is None:
            pieces = list(parts)
            data = pieces[0] if len(pieces) == 1 else b"".join(pieces)
            cached = DecodedChunk(decode_column_chunk(data))
            self._decode_cache[key] = cached
        return cached

    def _page_fraction(self, name: str, meta: ColumnChunkMeta, op, data) -> float:
        """Fraction of the chunk's rows in pages the filter can match."""
        if not self.config.enable_page_skipping or meta.num_values == 0:
            return 1.0
        key = (name, meta.key)
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

    def _may_shed(self, query: Query) -> bool:
        """May the query's stages shed refused ops?  Partial results: a
        scan (no aggregate, no GROUP BY) may trade shed chunks for a typed
        :class:`PartialResult` instead of failing outright when admission
        control refuses ops."""
        return (
            self.config.allow_partial_results
            and not query.has_aggregates()
            and not query.group_by
        )

    def _verify(self, obj, block_id: str, crc: int, data) -> None:
        """End-to-end check: bytes just read must match the CRC recorded
        at Put (0 = none recorded).  Raises :class:`ChecksumError`; the
        scatter-gather layer treats it as non-retryable and falls straight
        back to degraded reconstruction (re-reading the same bad bytes
        cannot help, and a media error says nothing about the node's
        liveness)."""
        if crc and chunk_checksum(data) != crc:
            raise ChecksumError(f"bytes of {obj.name!r} in block {block_id} failed CRC")

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

        ``tenant`` charges the Put as one request against that tenant's
        quota; an over-quota Put raises a typed
        :class:`~repro.cluster.qos.QuotaExceeded` before any device work.
        """
        if tenant is not None and self.cluster.qos is not None:
            self.cluster.qos.admit(tenant)
        report = yield from traced(
            self.sim, self._put_body(name, data), "put", "store",
            obj=name, store=self.span_label,
        )
        return report

    def _put(self, name: str, data: bytes, lay_out):
        """Process: a Put, with the store's Put policy ``lay_out``.

        ``lay_out(metadata, coordinator)`` picks the object's layout and
        runs its ``lay_out`` step, which draws every placement (and the
        metadata replica set) up front, so the WAL intent can name every
        resource the operation will touch.  It returns the object, one
        payload list per stripe, the seconds the coordinator parses the
        footer before it writes, and the :class:`PutReport`.  The rest
        is one protocol: intent, the streamed writes
        (:meth:`_write_stripes`), the layout's replica publish
        (``obj.publish``), commit, and only then visibility.  The Put
        budget is checked cooperatively between phases: a Put that blows
        its deadline aborts before commit, leaving a WAL intent that
        recovery rolls back like any other crashed Put."""
        if name in self.objects:
            raise ValueError(f"object {name!r} already exists (updates are fresh inserts)")
        # A reused name (put after delete) must never serve bytes decoded
        # from its previous incarnation.
        self._invalidate_object_caches(name)
        start = self.sim.now
        deadline = Deadline.from_config(self.sim, self.config)
        coordinator = self.cluster.coordinator_for(name)
        obj, stripe_payloads, parse_s, report = lay_out(read_metadata(data), coordinator)

        intent = self._log_intent(coordinator, "put", obj)
        self.wal.crash_point(coordinator, "put:after-intent")
        yield from self._write_stripes(
            coordinator, obj, len(data), stripe_payloads, deadline, parse_s
        )
        self.wal.crash_point(coordinator, "put:after-data")
        yield from obj.publish(self, coordinator, deadline)
        self.wal.crash_point(coordinator, "put:after-meta")
        self._log_outcome(coordinator, intent)
        self.wal.crash_point(coordinator, "put:after-commit")

        # Atomic visibility: the object appears only after commit.
        self.objects[name] = obj
        report.simulated_put_seconds = self.sim.now - start
        return report

    def _write_block(self, coordinator, node_id: int, block_id: str, payload: np.ndarray):
        """Process: ship one block to its node and write it there; False
        if the network refused it."""
        node = self.cluster.node(node_id)
        try:
            yield from self.cluster.network.transfer(
                coordinator.endpoint, node.endpoint, self.config.scaled(payload.size)
            )
        except LinkDown:
            return False
        yield from node.disk.write(self.config.scaled(payload.size))
        node.put_block(block_id, payload)
        return True

    def _upload(self, coordinator, sizes, arrived, abort):
        """Process: the client streams a Put to ``coordinator`` in pieces
        of ``sizes`` real bytes over one RPC: the first piece opens it
        (``transfer``), the rest ride it (``stream_transfer``).  Each
        piece is charged between the scaled cumulative offsets at its
        ends, so the pieces sum to ``scaled(sum(sizes))``.  ``arrived[i]``
        fires when piece ``i`` has landed; a refused piece fires ``abort``
        with its LinkDown and ends the upload."""
        network, scaled = self.cluster.network, self.config.scaled
        sent = 0
        for i, (size, event) in enumerate(zip(sizes, arrived)):
            send = network.stream_transfer if i else network.transfer
            try:
                yield from send(
                    self.cluster.client, coordinator.endpoint, scaled(sent + size) - scaled(sent)
                )
            except LinkDown as exc:
                if not abort.fired:
                    abort.succeed(exc)
                return
            sent += size
            event.succeed()

    def _write_stripes(self, coordinator, obj, size, stripe_payloads, deadline, parse_s=0.0):
        """Process: a Put's upload and writes, one payload list per
        stripe, then its deadline check.

        Write order is one rule for both layouts: stripes in ascending
        data bytes, ties broken by stripe id.  That is Johnson's rule for
        the two-stage flow shop of upload then egress, which holds
        because a stripe's egress (data and parity) is never shorter
        than its upload (data).  The client uploads the object of
        ``size`` real bytes (:meth:`_upload`): first the bytes in no data
        block (Fusion's header and footer, which the coordinator parses
        in ``parse_s`` before it writes), then each non-empty data block
        in write order.  The code is systematic, so a data block's write
        leaves as soon as its bytes arrive.  RS parity is a linear sum
        over the data blocks, so one encode lane charges each block's
        share of its stripe's encode when the block arrives, and the
        stripe's parity writes leave after its last share.

        A refused write leaves its block unwritten; a stripe must land
        all but ``n - k`` blocks (a degraded read's ``k``) and one with a
        hole is queued for read-repair.  A refused upload piece or a
        stripe with more holes aborts the Put with LinkDown before
        commit: the upload, the encode lane and every write still in
        flight are cancelled, so nothing moves after the failure, and
        recovery rolls the Put back."""
        code, sim = self.config.code, self.sim
        order = sorted(
            zip(obj.stripes, stripe_payloads),
            key=lambda stripe: (sum(p.size for p in stripe[1]), stripe[0].stripe_id),
        )
        blocks = [
            (placement.stripe_id, nid, bid, payload)
            for placement, payloads in order
            for nid, bid, payload in zip(placement.node_ids, placement.data_block_ids, payloads)
            if payload.size
        ]
        sizes = [payload.size for *_, payload in blocks]
        sizes.insert(0, size - sum(sizes))
        arrived = [sim.event() for _ in sizes]
        abort = sim.event()
        writes = []
        holes = {placement.stripe_id: 0 for placement in obj.stripes}

        def write(sid, nid, bid, payload):
            def landed(proc):
                if proc.value is False:
                    holes[sid] += 1
                    if holes[sid] > code.parity and not abort.fired:
                        abort.succeed(LinkDown(
                            f"Put of {obj.name!r}: a stripe lost more blocks than n - k"
                        ))

            proc = sim.process(self._write_block(coordinator, nid, bid, payload))
            proc.add_callback(landed)
            writes.append(proc)

        def encode_lane():
            arrivals = iter(arrived[1:])
            for placement, payloads in order:
                shards = encode_stripe(code, payloads).shards()
                placement.checksums = [chunk_checksum(s) for s in shards]
                for payload in payloads:
                    if payload.size:
                        yield next(arrivals)
                        yield from coordinator.compute(
                            payload.size * self.config.size_scale
                            / coordinator.cpu_config.decode_bps
                        )
                parity = zip(placement.node_ids[code.k:], placement.parity_block_ids, shards[code.k:])
                for nid, bid, shard in parity:
                    if shard.size:
                        write(placement.stripe_id, nid, bid, shard)

        def until(event):
            yield any_of(sim, (event, abort))
            if abort.fired:
                raise abort.value

        upload = sim.process(self._upload(coordinator, sizes, arrived, abort))
        lane = sim.process(encode_lane())
        try:
            yield from until(arrived[0])
            if parse_s:
                yield from coordinator.compute(parse_s)
            for event, block in zip(arrived[1:], blocks):
                yield from until(event)
                write(*block)
            yield from until(lane)
            yield from until(all_of(sim, writes))
        except LinkDown:
            for proc in (upload, lane, *writes):
                proc.cancel()
            raise
        for sid, count in holes.items():
            if count:
                self.cluster.enqueue_read_repair(self, obj.kind, obj.name, sid)
        if deadline is not None:
            deadline.check("put writes")

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
            # Deadlines, the tenant id and the request's degraded gathers
            # ride on the metrics object, so a bare Get gets a carrier.
            # With neither a deadline nor a tenant the carrier stays
            # exempt from admission control (priority None), as a Get
            # without metrics always was.
            metrics = QueryMetrics()
            metrics.deadline = Deadline.from_config(self.sim, self.config)
            if metrics.deadline is None and tenant is None:
                metrics.priority = None
        else:
            arm_deadline(self.sim, self.config, metrics)
        if tenant is not None:
            metrics.tenant = tenant
            if self.cluster.qos is not None:
                self.cluster.qos.admit(tenant, metrics)
        try:
            data = yield from traced(
                self.sim,
                self._request_scoped(self._get_body(name, metrics, offset, size), metrics),
                "get", "store", obj=name, store=self.span_label,
            )
        except DeadlineExceeded:
            metrics.deadline_exceeded += 1
            raise
        return data

    def _get_body(self, name: str, metrics: QueryMetrics | None, offset: int, size: int | None):
        """Process: bytes ``[offset, offset + size)`` of the object, read
        by its layout (``obj.get``); ``size=None`` means to the end."""
        obj = self._lookup(name)
        total = obj.total_bytes
        if size is None:
            size = total - offset
        if offset < 0 or size < 0 or offset + size > total:
            raise ValueError(f"range [{offset}, {offset + size}) outside object of size {total}")
        if size == 0:
            return b""
        coordinator = self.cluster.coordinator_for(name)
        return (yield from obj.get(self, coordinator, offset, size, metrics))

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
        tenant's quota before any device work; an over-quota request is
        refused with a typed QuotaExceeded.
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
                self.sim, self._request_scoped(self._query_body(query, metrics), metrics),
                "query", "store", metrics=metrics, table=query.table, store=self.span_label,
            )
        except DeadlineExceeded:
            # The body records metrics only on success, so accounting the
            # failure here never double-counts the query.
            fail_query(self.cluster, metrics, deadline=True)
            raise
        except (QueueFull, LinkDown):
            # Coordinator-side admission refusal (compute/egress outside
            # any scatter-gather stage), or a result the network could
            # not deliver, killed the whole query.
            fail_query(self.cluster, metrics)
            raise
        return result

    def _query_body(self, query: Query, metrics: QueryMetrics):
        """Process: plan the query, prune row groups by footer stats, run
        the stages of the object's layout (``obj.query``), then ship the
        result to the client, stamp the end time and record the query."""
        obj = self._lookup(query.table)
        physical = make_plan(query, obj.metadata.schema)
        coordinator = self.cluster.coordinator_for(obj.name)
        metrics.start_time = self.sim.now
        row_groups = engine.prune_row_groups(physical, obj.metadata)
        result = yield from obj.query(self, physical, coordinator, row_groups, metrics)
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

    # -- Metadata replicas ------------------------------------------------------

    def _meta_snapshot(self, obj) -> MetaReplica:
        """Snapshot of the object's durable metadata for a replica node.
        It never aliases live placement state, so repair mutations do not
        bleed into already-published replicas.

        Copy-on-write: a replica is never mutated, so a stripe record
        unchanged since the object's previous snapshot shares that
        snapshot's copy, and a republish after one stripe's repair copies
        that stripe alone."""
        published = obj.published_stripes
        if published is None:
            stripes = [p.copy() for p in obj.stripes]
        else:
            stripes = list(published)
            for sid in obj.moved_stripes:
                stripes[sid] = obj.stripes[sid].copy()
        obj.moved_stripes.clear()
        obj.published_stripes = stripes
        return MetaReplica(
            object_name=obj.name,
            epoch=obj.meta_epoch,
            store_kind=obj.kind,
            payload={"object": obj.snapshot(stripes)},
        )

    def _republish_meta(self, obj) -> None:
        """Repair relocated blocks: push a fresh snapshot (bumped epoch)
        to the reachable replica holders.  Metadata-plane operation — the
        repair traffic itself was already charged.

        Quorum-guarded (:meth:`_meta_quorum`): raises
        :class:`~repro.core.wal.QuorumLost` instead of installing a
        minority-epoch snapshot.
        """
        reachable = self._meta_quorum(obj)
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

    def _meta_quorum(self, obj) -> list[int]:
        """The replica holders the object's coordinator can reach.

        With 3+ replica holders, a coordinator that can reach only a
        minority of them must not install a bumped-epoch snapshot — the
        majority side may be doing the same, and whoever bumps on fewer
        holders split-brains the object.  Raises
        :class:`~repro.core.wal.QuorumLost` instead; callers defer and
        re-attempt after the partition heals.
        """
        holders = obj.replica_nodes
        coordinator = self.cluster.coordinator_for(obj.name)
        reachable = [nid for nid in holders if self.cluster.delivers(coordinator.node_id, nid)]
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
        return reachable

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

    # -- Rebuild rounds: gather and solve many stripes at once ------------------

    def _side_by_side(self, bodies):
        """Process: run the process ``bodies`` concurrently and wait for
        them all.  Returns each one's value, or the ``QueueFull`` /
        ``LinkDown`` it raised; cancelling the caller cancels them."""

        def caught(body):
            try:
                return (yield from body)
            except (QueueFull, LinkDown) as exc:
                return exc

        if len(bodies) == 1:
            return [(yield from caught(bodies[0]))]
        procs = [self.sim.process(caught(body)) for body in bodies]
        try:
            yield all_of(self.sim, procs)
        except GeneratorExit:
            for proc in procs:
                proc.cancel()
            raise
        return [proc.value for proc in procs]

    def _gather_round(self, stripes, metrics):
        """Process: read every shard of each ``(placement, coordinator)``
        stripe that can reach its coordinator onto it.

        The shards a round reads from one node for one coordinator travel
        as one exchange (:meth:`_gather_exchange`), and the exchanges run
        side by side.  Returns each stripe's n shards, in stripe order:
        ``None`` for unreadable ones (a holder the network does not
        deliver from, a block missing, or a reply lost in flight), an
        empty array for never-written data positions.  A stripe with a
        shard in an exchange admission control refused gets that
        ``QueueFull`` instead.
        """
        k, n = self.config.code.k, self.config.code.n
        cluster = self.cluster
        out: list = []
        exchanges: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
        sources: dict[int, set[int]] = {}  # coordinator -> the nodes it hears
        for s, (placement, coordinator) in enumerate(stripes):
            dst = coordinator.node_id
            heard = sources.get(dst)
            if heard is None:
                heard = sources[dst] = {
                    nid for nid in range(cluster.num_nodes) if cluster.delivers(nid, dst)
                }
            shards: list[np.ndarray | None] = [None] * n
            for i, (nid, bid) in enumerate(zip(placement.node_ids, placement.block_ids)):
                if i < k and placement.data_sizes[i] == 0:
                    shards[i] = _EMPTY
                elif nid in heard and cluster.node(nid).has_block(bid):
                    exchanges.setdefault((nid, dst), []).append((s, i, bid))
            out.append(shards)
        pairs = list(exchanges)
        replies = yield from self._side_by_side([
            self._gather_exchange(
                cluster.node(src), cluster.node(dst), [bid for *_, bid in exchanges[src, dst]],
                metrics,
            )
            for src, dst in pairs
        ])
        refused: dict[int, QueueFull] = {}
        for pair, reply in zip(pairs, replies):
            if isinstance(reply, QueueFull):
                refused.update((s, reply) for s, _i, _bid in exchanges[pair])
            elif not isinstance(reply, LinkDown):
                for (s, i, _bid), data in zip(exchanges[pair], reply):
                    out[s][i] = data
        return [refused.get(s, shards) for s, shards in enumerate(out)]

    def _gather_exchange(self, node, coordinator, block_ids, metrics):
        """Process: one exchange of a gather round: ``block_ids`` read off
        ``node`` in one disk hold (one access latency each), then shipped
        to ``coordinator`` in one reply.  Returns their bytes."""
        blocks = yield from node.read_blocks(block_ids, self.config.size_scale, metrics)
        yield from self.cluster.network.transfer(
            node.endpoint, coordinator.endpoint,
            sum(self.config.scaled(block.size) for block in blocks), metrics,
        )
        return blocks

    def _charge_decode(self, coordinator, shards, metrics):
        """Process: the coordinator's CPU time to decode the gathered shards."""
        gathered = sum(s.size for s in shards if s is not None)
        yield from coordinator.compute(
            gathered * self.config.size_scale / coordinator.cpu_config.decode_bps, metrics
        )

    def _localised_codewords(self, stripes, metrics):
        """Process: a rebuild round's gather and solve.

        Gathers every reachable shard of each ``(placement, coordinator)``
        stripe (:meth:`_gather_round`), charges each coordinator the
        decode of what it gathered in one hold, and localises what is
        missing or silently corrupt in every stripe
        (:func:`repro.core.repair.localise_stripes`: one batched solve per
        erasure pattern).  Returns, per stripe, its bad positions and its
        n true shards, the :class:`RepairError` of a stripe damaged
        beyond the code, or the ``QueueFull`` of a refused gather or
        decode.  Every rebuild of a shard - a repair round, checksum-
        guided recovery and a migration's reconstruction - reads from
        here."""
        outcomes = yield from self._gather_round(stripes, metrics)
        charges: dict[int, tuple[object, list[int]]] = {}
        for s, (_placement, coordinator) in enumerate(stripes):
            if not isinstance(outcomes[s], Exception):
                charges.setdefault(coordinator.node_id, (coordinator, []))[1].append(s)
        refusals = yield from self._side_by_side([
            self._charge_decode(
                coordinator, [shard for s in members for shard in outcomes[s]], metrics
            )
            for coordinator, members in charges.values()
        ])
        for (_coordinator, members), refusal in zip(charges.values(), refusals):
            if refusal is not None:
                for s in members:
                    outcomes[s] = refusal
        todo = [s for s, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
        solved = localise_stripes(
            self.config.code, [(outcomes[s], stripes[s][0].data_sizes) for s in todo]
        )
        for s, outcome in zip(todo, solved):
            outcomes[s] = outcome
        return outcomes

    def _recover_shard(self, placement: StripePlacement, i: int, coordinator, metrics):
        """Process: stripe position ``i`` rebuilt at the coordinator from
        the stripe's localised codeword (a round of one stripe of
        :meth:`_localised_codewords`), so a silently corrupt survivor is
        excluded rather than decoded through.  Returns the block's bytes
        as a new array (the codeword may hold a node's stored array), or
        None when the stripe is damaged beyond what the code can
        localise; raises a refused gather's ``QueueFull``."""
        [outcome] = yield from self._localised_codewords([(placement, coordinator)], metrics)
        if isinstance(outcome, RepairError):
            return None
        if isinstance(outcome, Exception):
            raise outcome
        return outcome[1][i].copy()

    # -- Degraded reads ----------------------------------------------------------

    def _request_scoped(self, body, metrics: QueryMetrics):
        """Process: run a Get or query ``body`` with a degraded-gather
        table keyed by the request's ``metrics``, freed when the body
        ends, however it ends.  Requests run concurrently with one
        metrics object share its table, and the first to open it frees
        it."""
        key = id(metrics)
        if key in self._request_gathers:
            return (yield from body)
        self._request_gathers[key] = {}
        try:
            return (yield from body)
        finally:
            del self._request_gathers[key]

    def _degraded_block_read(
        self, obj, placement: StripePlacement, i: int, coordinator, metrics, intact
    ):
        """Reconstruct data position ``i`` of a stripe whose node is
        down, at the coordinator.

        Gathers ``k`` surviving blocks of the stripe, RS-decodes the lost
        block and returns its bytes — the expensive path that justifies
        prompt recovery.  The gather and its decode are charged once per
        (request, stripe) (:meth:`_stripe_shards`); reconstructed blocks
        are cached as real bytes only.  ``intact`` is the layout's
        end-to-end check of a reconstructed block.
        """
        return traced(
            self.sim,
            self._degraded_block_read_body(obj, placement, i, coordinator, metrics, intact),
            "degraded_read", "store", obj=obj.name, block=placement.data_block_ids[i],
        )

    def _degraded_block_read_body(self, obj, placement, i, coordinator, metrics, intact):
        shards = yield from self._stripe_shards(obj, placement, coordinator, metrics)
        k = self.config.code.k
        block_ids = placement.block_ids
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
            rebuilt = yield from self._recover_shard(placement, i, coordinator, metrics)
            if rebuilt is not None:
                cached = rebuilt
                cache[block_ids[i]] = cached
        # Anti-entropy read-repair: this foreground read had to
        # reconstruct — queue the stripe for background repair so the
        # damage heals from traffic instead of waiting for a scrub.
        self.cluster.enqueue_read_repair(self, obj.kind, obj.name, placement.stripe_id)
        return cached

    def _stripe_shards(self, obj, placement: StripePlacement, coordinator, metrics):
        """Process: the shards a degraded read of ``placement`` decodes.

        One gather and one decode charge per (request, stripe): a real
        coordinator reconstructing several lost bins of one stripe for
        one request reads the k survivors once, and one decode recovers
        every lost bin.  The first read runs the stripe's
        :meth:`_gather_ops` as a one-stripe round, published in the
        request's table (:meth:`_request_scoped`); a later read of the
        stripe takes the shards, waiting if the gather is still in
        flight, and is not counted in ``degraded_reads``.  A gather that
        fails leaves the table and wakes its waiters: they re-raise its
        typed error (``DeadlineExceeded``, ``QueueFull``,
        ``RemoteOpError``) as their own, as a read that gathered alone
        under the same load would have; if it was cancelled instead,
        they gather for themselves.  Outside a request (no table) every
        call gathers.
        """
        table = self._request_gathers.get(id(metrics))
        key = (obj.name, placement.stripe_id)
        while True:
            check_deadline(metrics, "degraded read")
            shared = table.get(key) if table is not None else None
            if shared is None:
                break
            if shared.shards is None:
                shared.waiters += 1
                yield shared.done
            if shared.shards is not None:
                return shared.shards
            if shared.error is not None:
                raise shared.error
        shared = self._open_gather(table, key, metrics)
        ops = self._gather_ops(placement, shared, coordinator, metrics)
        yield from self._gathering_round(ops, table, {key: shared}, coordinator, metrics)
        return shared.shards

    def _open_gather(self, table, key: tuple[str, int], metrics) -> _SharedGather:
        """Publish a new gather of stripe ``key`` in the request's
        ``table`` (if any), counted as one degraded read."""
        if metrics is not None:
            metrics.degraded_reads += 1
        shared = _SharedGather(self.sim.event())
        if table is not None:
            table[key] = shared
        return shared

    def _gathering_round(self, ops, table, gathers, coordinator, metrics):
        """Process: run ``ops``, which carry the shard fetches of
        ``gathers`` (stripe key -> :class:`_SharedGather`), as one
        scatter-gather round; returns their payloads.  A round that
        raises or is cancelled drops its gathers (:meth:`_drop_gather`)."""
        try:
            return (yield from execute_remote_ops(
                self.cluster, coordinator, ops, metrics, config=self.config
            ))
        except BaseException as exc:
            # Raised, or cancelled (GeneratorExit).
            for key, shared in gathers.items():
                self._drop_gather(table, key, shared, exc)
            raise

    def _drop_gather(self, table, key: tuple[str, int], shared: _SharedGather, exc) -> None:
        """A gather raised ``exc`` or was cancelled: drop its entry and
        hand the typed error on to its waiters.  They are woken from the
        heap rather than from the unwinding frame, so a waiter cancelled
        by the same scope is already gone when the wake lands.  A gather
        its completing fetch already published stays: its waiters have
        the shards."""
        if shared.shards is not None:
            return
        shared.dropped = True
        if table is not None:
            table.pop(key, None)
        if isinstance(exc, Exception):
            shared.error = exc
        if shared.waiters:
            self.sim.timeout(0).add_callback(lambda _event: shared.done.succeed())

    def _range_read_op(
        self, obj, coordinator, handle, lo: int, hi: int, check, metrics
    ) -> RemoteOp:
        """Op reading bytes ``[lo, hi)`` of the data block behind the
        layout's read ``handle``, on the node holding it.

        ``check`` is the ``(lo, hi, crc)`` span the read's end-to-end CRC
        covers (FAC: the chunk's span of its bin; fixed: the whole
        block).  A read of exactly that span is verified
        (:meth:`_verify`); a partial one is verified through
        reconstruction only when a full read flags the bytes.  The
        degraded path reconstructs the block and checks the span."""
        placement, j = obj.locate_block(handle)
        node = self.cluster.node(placement.node_ids[j])
        block_id = placement.data_block_ids[j]

        def degraded():
            block = yield from self._degraded_block_read(
                obj, placement, j, coordinator, metrics, span_intact(*check)
            )
            return block[lo:hi]

        if not self._routes_direct(obj, node, handle):
            return RemoteOp(standalone=degraded)

        def execute():
            check_deadline(metrics, "range read")
            data = yield from node.read_block_range(
                block_id, lo, hi - lo, self.config.size_scale, metrics
            )
            if (lo, hi) == check[:2]:
                self._verify(obj, block_id, check[2], data)
            return self.config.scaled(hi - lo), data

        return RemoteOp(node=node, execute=execute, fallback=degraded)

    def _get_round(self, obj, reads, coordinator, metrics):
        """Process: a Get's reads as one scatter-gather round; returns
        their payloads in read order.

        ``reads`` lists ``(handle, lo, hi, check)``: bytes ``[lo, hi)``
        of the data block behind the layout's read ``handle``, ``check``
        the ``(lo, hi, crc)`` span its end-to-end CRC covers.  Each read
        has a direct op (:meth:`_range_read_op`); a stripe is marked
        when one of its reads' direct ops is standalone, i.e. goes
        straight to reconstruction.  The round carries the direct
        ops of unmarked stripes and the shard fetches of every marked
        stripe's gather (:meth:`_shards_to_gather`), so each node
        answers in one exchange however many stripes it serves.  The
        fetch that completes a stripe's shard set charges its decode
        and publishes the gather in the request's table, while later
        transfers still stream in.

        After the round a read of a marked stripe slices its bytes out
        of the gathered shard, checked with the CRC a direct read checks
        (only a read of exactly the ``check`` span is).  A lost bin, a
        survivor the gather did not fetch, or one that fails that CRC
        goes through :meth:`_degraded_block_read`, which decodes from
        the published shards at no new charge and falls back to verified
        recovery when the decode is wrong.  A failed round drops its
        unfinished gathers (:meth:`_gathering_round`).
        """
        direct_ops = [self._range_read_op(obj, coordinator, *read, metrics) for read in reads]
        located = [obj.locate_block(read[0]) for read in reads]
        marked = {
            placement.stripe_id
            for (placement, _i), op in zip(located, direct_ops)
            if op.standalone is not None
        }
        if not marked:
            return (yield from execute_remote_ops(
                self.cluster, coordinator, direct_ops, metrics, config=self.config,
            ))
        by_stripe: dict[int, list[int]] = {}
        for r, (placement, _i) in enumerate(located):
            by_stripe.setdefault(placement.stripe_id, []).append(r)
        # The ops go in stripe order (a healthy Get keeps read order
        # above): an unmarked stripe's direct reads, a marked stripe's
        # shard fetches, unless a request sharing this table is already
        # gathering it.  Stripe order measured a lower tail than read
        # order or gathers-first on degraded_repair.
        table = self._request_gathers.get(id(metrics))
        gathers: dict[tuple[str, int], _SharedGather] = {}
        ops: list[RemoteOp] = []
        direct: list[tuple[int, int]] = []  # (read, op) index pairs
        for sid in sorted(by_stripe):
            rs = by_stripe[sid]
            key = (obj.name, sid)
            if sid not in marked:
                direct += [(r, len(ops) + n) for n, r in enumerate(rs)]
                ops += [direct_ops[r] for r in rs]
            elif table is None or key not in table:
                shared = gathers[key] = self._open_gather(table, key, metrics)
                ops += self._gather_ops(located[rs[0]][0], shared, coordinator, metrics)
        payloads = yield from self._gathering_round(ops, table, gathers, coordinator, metrics)
        out: list[object] = [None] * len(reads)
        for r, o in direct:
            out[r] = payloads[o]
        for r, ((_handle, lo, hi, check), op, (placement, i)) in enumerate(
            zip(reads, direct_ops, located)
        ):
            if placement.stripe_id not in marked:
                continue
            shared = gathers.get((obj.name, placement.stripe_id))
            if shared is not None:
                shards = shared.shards
            else:
                shards = yield from self._stripe_shards(obj, placement, coordinator, metrics)
            intact = span_intact(*check)
            block = shards[i] if op.standalone is None else None
            if block is None or ((lo, hi) == check[:2] and not intact(block)):
                block = yield from self._degraded_block_read(
                    obj, placement, i, coordinator, metrics, intact
                )
            out[r] = block[lo:hi]
        return out

    def _gather_ops(self, placement: StripePlacement, shared: _SharedGather, coordinator, metrics):
        """The shard fetches of one stripe's gather, for a Get's round
        or a degraded read's one-stripe round.  The fetch that completes
        the shard set charges the decode and publishes the shards on
        ``shared``."""
        shards, gather = self._shards_to_gather(placement, coordinator)
        if not gather:
            shared.shards = shards  # nothing to fetch, nothing to decode
            shared.done.succeed()
            return []
        waiting = {j for j, _node, _bid in gather}

        def arrived(j: int):
            def finalize(data):
                shards[j] = data
                waiting.discard(j)
                if not waiting and not shared.dropped and shared.shards is None:
                    yield from self._charge_decode(coordinator, shards, metrics)
                    shared.shards = shards
                    shared.done.succeed()
                return data

            return finalize

        return [
            self._shard_fetch_op(node, bid, metrics, finalize=arrived(j))
            for j, node, bid in gather
        ]

    def _shard_fetch_op(self, node, block_id: str, metrics, finalize) -> RemoteOp:
        """Op reading one whole shard on its node and shipping it to the
        coordinator."""

        def execute():
            data = yield from node.read_block(block_id, self.config.size_scale, metrics)
            return self.config.scaled(data.size), data

        return RemoteOp(node=node, execute=execute, finalize=finalize)

    def _shards_to_gather(self, placement: StripePlacement, coordinator):
        """The decode set of a degraded read of ``placement``.

        Returns the n shards, an empty array at never-written data
        positions and ``None`` elsewhere, and the ``(position, node,
        block_id)`` of the surviving shards to fetch: the first ``k``
        the coordinator can reach, in stripe order, healthy holders
        before greylisted ones (fail-slow: they answer, slowly) and
        suspect ones last."""
        k, n = self.config.code.k, self.config.code.n
        block_ids = placement.block_ids
        shards: list[np.ndarray | None] = [None] * n
        for j in range(k):
            if placement.data_sizes[j] == 0:
                shards[j] = _EMPTY
        pending = sum(1 for s in shards if s is not None)
        candidates: list[tuple[int, object, str]] = []
        for j in range(n):
            if shards[j] is not None:
                continue
            node = self.cluster.node(placement.node_ids[j])
            # Skip a fetch the network would refuse rather than wait out
            # its timeout.
            if self.cluster.delivers(node.node_id, coordinator.node_id) and node.has_block(
                block_ids[j]
            ):
                candidates.append((j, node, block_ids[j]))
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
        return shards, (healthy + grey + suspect)[: max(0, k - pending)]

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
        """Process: gather the object's stripes onto the coordinator in
        one round (:meth:`_gather_round`), charge the decode of their
        data shards, and check each stripe's CRCs and parity; a refused
        holder's block is missing."""
        obj = self._lookup(name)
        coordinator = self.cluster.coordinator_for(name)
        report = ScrubReport(object_name=name)
        k = self.config.code.k
        gathered = yield from self._gather_round([(p, coordinator) for p in obj.stripes], None)
        yield from self._charge_decode(
            coordinator, [shard for shards in gathered for shard in shards[:k]], None
        )
        for placement, shards in zip(obj.stripes, gathered):
            for i, (bid, payload) in enumerate(zip(placement.block_ids, shards)):
                want = placement.checksum(i)
                if payload is not None and want and chunk_checksum(payload) != want:
                    report.checksum_mismatch_blocks.append(bid)
            verdict = check_stripe(
                self.config.code, shards[:k], shards[k:], placement.data_sizes
            )
            report.stripes_checked += 1
            if verdict == "corrupt":
                report.corrupt_stripes.append(placement.stripe_id)
            elif verdict == "incomplete":
                report.incomplete_stripes.append(placement.stripe_id)
        return report

    # -- Fault tolerance ---------------------------------------------------------

    def _pick_rescue_node(self, holder_ids: set[int], lost_node_id: int, reachable_from: int):
        """A node the coordinator ``reachable_from`` delivers to, to host
        rebuilt blocks, preferring non-holders.

        With every node reachable this is the smallest non-holder id,
        else the lost node's successor; repaired data never lands on a
        dead or cut-off node.
        """
        for nid in range(self.cluster.num_nodes):
            if nid not in holder_ids and self.cluster.delivers(reachable_from, nid):
                return self.cluster.node(nid)
        for step in range(1, self.cluster.num_nodes + 1):
            nid = (lost_node_id + step) % self.cluster.num_nodes
            if self.cluster.delivers(reachable_from, nid):
                return self.cluster.node(nid)
        raise RuntimeError("no alive node available to host rebuilt blocks")

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
        at the node now holding stripe position ``i``; the object's next
        metadata snapshot copies this stripe afresh."""
        placement.node_ids[i] = node_id
        obj.block_moved(placement.block_ids[i], node_id)
        obj.moved_stripes.add(placement.stripe_id)

    def repair_stripe_process(
        self, name: str, stripe_id: int, metrics: QueryMetrics | None = None
    ):
        """Diagnose and repair one stripe: a round of one stripe
        (:meth:`repair_stripes_process`).  Returns the number of blocks
        rewritten (0 when the stripe is healthy) and raises what deferred
        it (``QueueFull``, ``LinkDown``, ``QuorumLost``)."""
        [outcome] = yield from self.repair_stripes_process([(name, stripe_id)], metrics)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def repair_stripes_process(self, targets, metrics: QueryMetrics | None = None):
        """Repair a round of ``(object, stripe)`` targets: read every
        reachable block, isolate missing/corrupt positions
        (``repro.core.repair``), reconstruct them and rewrite them -
        corrupt blocks in place on their live node, unreachable ones onto
        a rescue node the coordinator reaches, updating the placement
        (and the layout's own map) - then republish each object touched.

        Returns each target's outcome: the number of blocks rewritten, or
        the error that deferred it.  Deferral is per stripe: a refused
        gather, a refused or lost rewrite, and ``QuorumLost`` (a
        coordinator cut off from its metadata majority, found before the
        round's first write or at the republish) leave the stripe for a
        later pass.  A stripe damaged beyond the code raises
        :class:`RepairError` before the round writes anything.

        A round answers the read-repair hints of its stripes: it reads
        every reachable shard and localises, all that draining a hint
        would do.  It takes each hint before the gather (a read that
        queues the stripe during the round stays queued) and puts it back
        if the stripe is deferred or the round raises."""
        return traced(
            self.sim,
            self._repair_round(targets, metrics),
            "repair_round", "store", stripes=len(targets),
        )

    def _repair_round(self, targets, metrics):
        objs = [self._lookup(name) for name, _sid in targets]
        stripes = [(obj, obj.stripes[sid]) for obj, (_name, sid) in zip(objs, targets)]
        hints = self.cluster.read_repairs
        answered: list[tuple | None] = []
        for obj, placement in stripes:
            hint = (obj.kind, obj.name, placement.stripe_id)
            if hints.get(hint) is self:
                del hints[hint]
                answered.append(hint)
            else:
                answered.append(None)
        try:
            outcomes = yield from self._rebuild(stripes, metrics)
        except BaseException:
            for hint in answered:
                if hint is not None:
                    hints.setdefault(hint, self)
            raise
        for hint, outcome in zip(answered, outcomes):
            if hint is not None and isinstance(outcome, Exception):
                hints.setdefault(hint, self)
        return outcomes

    def _rebuild(self, stripes, metrics):
        """Process: gather, solve, write and publish one repair round of
        ``(obj, placement)`` stripes; returns their outcomes."""
        k = self.config.code.k
        cluster = self.cluster
        coordinators = [cluster.coordinator_for(obj.name) for obj, _placement in stripes]
        solved = yield from self._localised_codewords(
            [(placement, c) for (_obj, placement), c in zip(stripes, coordinators)], metrics
        )
        for outcome in solved:
            if isinstance(outcome, RepairError):
                raise outcome
        outcomes: list = [0] * len(stripes)
        # Plan every rewrite, one write exchange per (coordinator, holder).
        # An object's quorum is checked once, before the first write, so
        # a deferred object leaves its stripes as it found them and the
        # post-heal pass still has something to republish.
        quorum: dict[str, QuorumLost | None] = {}
        writes: dict[tuple[int, int], list[tuple[int, int, np.ndarray]]] = {}
        for t, ((obj, placement), coordinator, outcome) in enumerate(
            zip(stripes, coordinators, solved)
        ):
            if isinstance(outcome, Exception):
                outcomes[t] = outcome
                continue
            bad, codeword = outcome
            if not bad:
                continue
            if obj.name not in quorum:
                try:
                    self._meta_quorum(obj)
                    quorum[obj.name] = None
                except QuorumLost as exc:
                    quorum[obj.name] = exc
            if quorum[obj.name] is not None:
                outcomes[t] = quorum[obj.name]
                continue
            homes = list(placement.node_ids)
            for i in sorted(bad):
                if i < k and placement.data_sizes[i] == 0:
                    continue
                if self._rewrite_mismatch(placement, i, codeword[i]):
                    continue
                if not cluster.delivers(coordinator.node_id, homes[i]):
                    homes[i] = self._pick_rescue_node(
                        set(homes), homes[i], reachable_from=coordinator.node_id
                    ).node_id
                writes.setdefault((coordinator.node_id, homes[i]), []).append(
                    (t, i, codeword[i])
                )
        # Each block is pointed at once its bytes are on the holder, and
        # each object is republished right after its last write lands.
        objects = {obj.name: obj for obj, _placement in stripes}
        pending = dict.fromkeys(objects, 0)
        for blocks in writes.values():
            for name in {stripes[t][0].name for t, _i, _payload in blocks}:
                pending[name] += 1
        moved: set[str] = set()

        def write(src: int, dst: int, blocks):
            try:
                yield from self._write_exchange(
                    cluster.node(src), cluster.node(dst),
                    [(stripes[t][1].block_ids[i], payload) for t, i, payload in blocks],
                    metrics,
                )
            except (QueueFull, LinkDown) as exc:
                for t, _i, _payload in blocks:
                    outcomes[t] = exc
            else:
                for t, i, _payload in blocks:
                    obj, placement = stripes[t]
                    self._relocate_block(obj, placement, i, dst)
                    self._invalidate_block(obj, placement, i)
                    moved.add(obj.name)
                    if isinstance(outcomes[t], int):
                        outcomes[t] += 1
            for name in {stripes[t][0].name for t, _i, _payload in blocks}:
                pending[name] -= 1
                if pending[name] or name not in moved:
                    continue
                try:
                    self._republish_meta(objects[name])
                except QuorumLost as exc:
                    for t, (obj, _placement) in enumerate(stripes):
                        if obj.name == name and isinstance(outcomes[t], int) and outcomes[t]:
                            outcomes[t] = exc

        yield from self._side_by_side(
            [write(src, dst, blocks) for (src, dst), blocks in writes.items()]
        )
        return outcomes

    def _write_exchange(self, coordinator, holder, blocks, metrics):
        """Process: one write of a repair round: the ``(block_id, payload)``
        blocks bound for ``holder`` shipped in one transfer and written in
        one disk hold (one access latency each)."""
        nbytes = sum(self.config.scaled(payload.size) for _bid, payload in blocks)
        yield from self.cluster.network.transfer(
            coordinator.endpoint, holder.endpoint, nbytes, metrics
        )
        yield from holder.disk.write(nbytes, metrics, requests=len(blocks))
        for bid, payload in blocks:
            holder.put_block(bid, payload)

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
                self._relocate_block(obj, placement, i, dst)
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

        Reads from the source when it is up, else rebuilds the block at
        the coordinator (:meth:`_recover_shard`, the checksum-guided
        recovery of a degraded read).  Returns False when no copy could be
        made (the network refused the copy, too few shards): the caller
        drops the intent and a later run retries.
        """
        src_node = self.cluster.node(src)
        dst_node = self.cluster.node(dst)
        if src_node.alive and src_node.has_block(bid):
            sender = src_node
            payload = yield from src_node.read_block(bid, self.config.size_scale, metrics)
        else:
            sender = coordinator
            payload = yield from self._recover_shard(placement, i, coordinator, metrics)
            if payload is None:
                return False
        try:
            yield from self.cluster.network.transfer(
                sender.endpoint, dst_node.endpoint, self.config.scaled(payload.size), metrics
            )
        except LinkDown:
            return False
        yield from dst_node.disk.write(self.config.scaled(payload.size), metrics)
        dst_node.put_block(bid, payload)
        return True

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
