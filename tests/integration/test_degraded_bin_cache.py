"""One gather and one decode per degraded stripe, and the bin cache
stays wall-only.

A degraded read decodes every data bin its gathered shards do not
cover, so the kernel caches the lost siblings of the bin it was asked
for (``StoreKernel._degraded_block_read_body``).  The simulated gather
and its decode are charged once per (request, stripe)
(``StoreKernel._stripe_shards``), whatever the cache holds: a Get that
reads two lost bins of one stripe pays one gather, counted as one
degraded read.  The cache holds real bytes only, so the event stream is
pinned below, and a sibling decoded from shards that produced a wrong
target bin must never be served.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import digest
from repro.cluster import Deadline, QueryMetrics, StorageNode
from repro.core import DeadlineExceeded, RemoteOp, RemoteOpError, kernel
from repro.core.location_map import chunk_checksum
from repro.sql.local import execute_local
from tests.closed_loop import TABLE, build, encoded, recorded

#: sha256 of the Get's ``record_schedule`` stream.  First pinned with
#: the cache that kept only the requested bin of each decode; re-pinned
#: for both stores by the declared model change that charges a degraded
#: gather once per (request, stripe) instead of once per read, and again
#: by the one that reads the survivors of such a stripe only through its
#: gather instead of fetching them a second time.  Fusion's was re-pinned
#: by the declared model change that charges its Put's metadata round and
#: footer parse at real size: the Put before the Get ends sooner, so every
#: event time moved; the baseline's Put ships no metadata and held.  Both
#: were re-pinned by the declared model change that gathers every lost
#: stripe of a Get in the Get's one scatter-gather round: the same shards
#: cross the network in one exchange per node instead of one per (stripe,
#: node).  Both were re-pinned by the declared model change of the
#: data-first write: the Put before the Get spawns each stripe's data-block
#: writes before its encode charge and the parity writes after it, so the
#: Put ends sooner and every later event time moved.  Both were re-pinned
#: by the declared model change of the streamed Put: the Put before the
#: Get writes each data block as its bytes arrive from the client, so it
#: ends sooner and every later event time moved.
GOLDEN_STREAM = {
    "fusion": "bceb77e6d95aeb8c54a9c62f936ed6e233951619def2bc0d10d2fedda713926d",
    "baseline": "8a08df75248661406f6fc8202fc2d4f72321b403c947476ab9603aa0402968a6",
}


def _two_lost_bins(kind: str):
    """A loaded store whose stripe 0 has lost two written data bins."""
    system, stream = recorded(kind)
    store, cluster = system.store, system.cluster
    placement = store.objects["tbl"].stripes[0]
    lost = [i for i, size in enumerate(placement.data_sizes) if size > 0][:2]
    assert len(lost) == 2
    for i in lost:
        cluster.fail_node(placement.node_ids[i])
    return store, cluster, stream, encoded(), placement, lost


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the kernel's calls of its module-level function ``name``."""
    calls: list[int] = []
    function = getattr(kernel, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(kernel, name, counted)
    return calls


def _lost_bins(store) -> list[tuple[int, int]]:
    """(stripe, position) of every written data bin on a dead node."""
    return [
        (p.stripe_id, i)
        for p in store.objects["tbl"].stripes
        for i, size in enumerate(p.data_sizes)
        if size > 0 and not store.cluster.node(p.node_ids[i]).alive
    ]


@pytest.mark.parametrize("kind", ["fusion", "baseline"])
def test_get_decodes_each_degraded_stripe_once(kind, monkeypatch):
    store, _cluster, stream, data, _placement, _lost = _two_lost_bins(kind)
    decodes = _count_calls(monkeypatch, "decode_stripe")
    lost = _lost_bins(store)
    metrics = QueryMetrics()
    assert store._run(store.get_process("tbl", metrics)) == data
    stripes = {sid for sid, _i in lost}
    assert len(lost) > len(stripes)  # some stripe lost two bins
    assert len(decodes) == len(stripes)
    assert metrics.degraded_reads == len(stripes)
    assert digest(stream) == GOLDEN_STREAM[kind]


def test_siblings_of_a_wrong_reconstruction_are_never_served(monkeypatch):
    store, cluster, _stream, _data, placement, (a, b) = _two_lost_bins("fusion")
    # Damage every byte of a survivor the degraded read gathers, so the
    # one decode gets bin ``a`` (and its sibling ``b``) wrong.
    c = next(j for j, size in enumerate(placement.data_sizes) if size > 0 and j not in (a, b))
    cluster.node(placement.node_ids[c]).corrupt_block(
        placement.block_ids[c], offset=0, length=placement.data_sizes[c]
    )
    decodes = _count_calls(monkeypatch, "decode_stripe")
    localisations = _count_calls(monkeypatch, "localise_stripes")
    coordinator = cluster.coordinator_for("tbl")
    obj = store.objects["tbl"]

    def read(i: int, metrics: QueryMetrics) -> np.ndarray:
        return store._run(
            store._degraded_block_read(
                obj, placement, i, coordinator, metrics,
                intact=lambda block: chunk_checksum(block) == placement.checksum(i),
            )
        )

    metrics = QueryMetrics()
    got_a = read(a, metrics)
    assert metrics.checksum_failures == 1  # the decode was caught wrong
    assert chunk_checksum(got_a) == placement.checksum(a)  # and recovered
    assert placement.block_ids[b] not in store._degraded_bin_cache
    assert len(localisations) == 1
    before = len(decodes)
    metrics = QueryMetrics()
    got_b = read(b, metrics)
    # Decoded afresh (wrong again, still gathering ``c``) and then
    # recovered from the codeword with ``c`` localised.  A cached
    # sibling would have skipped the decode.
    assert len(decodes) == before + 1
    assert len(localisations) == 2
    assert metrics.checksum_failures == 1
    assert chunk_checksum(got_b) == placement.checksum(b)


TAG_SQL = "SELECT tag FROM tbl WHERE tag = 'tag-3'"


def _lost_tag_bin():
    """A loaded Fusion store whose node holding the most ``tag`` chunks
    in one bin is down, so one query reads two or more chunks of one
    lost stripe.  Returns the store, the table and that stripe's id."""
    system = build("fusion")
    store, cluster = system.store, system.cluster
    obj = store.objects["tbl"]
    tag = obj.metadata.schema.names().index("tag")
    bins: dict[str, int] = {}
    for meta in obj.metadata.all_chunks():
        if meta.key[1] == tag:
            loc = obj.location_map.lookup(meta.key)
            bins[loc.block_id] = bins.get(loc.block_id, 0) + 1
    block_id = max(bins, key=bins.get)
    assert bins[block_id] >= 2
    placement, i = obj.locate_block(block_id)
    cluster.fail_node(placement.node_ids[i])
    return store, TABLE, placement.stripe_id


def _watch_gathers(store) -> list[tuple[float, float]]:
    """Record the simulated (start, end) of every round that carries a
    gather.  A query's degraded reads run one such round per gather."""
    windows: list[tuple[float, float]] = []
    gathering_round = store._gathering_round

    def watched(*args):
        start = store.sim.now
        payloads = yield from gathering_round(*args)
        windows.append((start, store.sim.now))
        return payloads

    store._gathering_round = watched
    return windows


def _watch_stripe_reads(store) -> list[int]:
    """Record the stripe id of every degraded read, shared or not."""
    stripes: list[int] = []
    stripe_shards = store._stripe_shards

    def watched(obj, placement, *rest):
        stripes.append(placement.stripe_id)
        return stripe_shards(obj, placement, *rest)

    store._stripe_shards = watched
    return stripes


def test_query_pays_one_gather_per_lost_stripe():
    store, table, _stripe = _lost_tag_bin()
    reads = _watch_stripe_reads(store)
    windows = _watch_gathers(store)
    result, metrics = store.query(TAG_SQL)
    assert result.equals(execute_local(TAG_SQL, table))
    assert len(reads) > len(set(reads))  # two chunks of one lost stripe
    assert metrics.degraded_reads == len(windows) == len(set(reads))
    assert store._request_gathers == {}  # freed with its query


def test_deadline_mid_gather_wakes_the_waiter_and_frees_the_table():
    # Dry run on an identical store: when does the first gather run?
    store, _table, _stripe = _lost_tag_bin()
    windows = _watch_gathers(store)
    began = store.sim.now
    store.query(TAG_SQL)
    start, end = windows[0]
    assert start < end

    store, table, stripe = _lost_tag_bin()
    assert store.sim.now == began
    reads = _watch_stripe_reads(store)
    outcome = []

    def client():
        metrics = QueryMetrics()
        metrics.deadline = Deadline(store.sim, (start + end) / 2 - store.sim.now)
        try:
            yield from store.query_process(TAG_SQL, metrics)
        except DeadlineExceeded:
            outcome.append("deadline")

    store.sim.process(client())
    store.sim.run()
    assert outcome == ["deadline"]  # typed, and nobody hung
    assert reads.count(stripe) >= 2  # a second read of the stripe was in line
    assert not store.sim._heap
    assert store._request_gathers == {}

    # Nothing of the failed gather outlives its request: the next query
    # on the same stripe gathers for itself and answers.
    windows = _watch_gathers(store)
    result, metrics = store.query(TAG_SQL)
    assert result.equals(execute_local(TAG_SQL, table))
    assert windows and metrics.degraded_reads == len(windows)


def test_failed_gather_wakes_its_waiter_with_the_typed_error():
    """A gather that fails without cancelling the stage (here a typed
    RemoteOpError; under load a QueueFull) must still wake the read in
    line behind it, which re-raises the same typed error: the query
    fails typed instead of hanging on a barrier nobody will fire."""
    store, _table, stripe = _lost_tag_bin()
    reads = _watch_stripe_reads(store)
    gather_ops = store._gather_ops
    gathers: list[int] = []

    def fail():
        yield store.sim.timeout(0.001)
        raise RemoteOpError("survivor lost mid-gather")

    def fails_first(placement, *rest):
        gathers.append(placement.stripe_id)
        if placement.stripe_id == stripe:
            return [RemoteOp(standalone=fail)]
        return gather_ops(placement, *rest)

    store._gather_ops = fails_first
    outcome = []

    def client():
        try:
            yield from store.query_process(TAG_SQL, QueryMetrics())
        except RemoteOpError:
            outcome.append("failed")

    store.sim.process(client())
    store.sim.run()
    assert outcome == ["failed"]
    # Two reads of the stripe, one gather: the second read waited for
    # the first and took its error instead of gathering again.
    assert reads.count(stripe) >= 2 and gathers.count(stripe) == 1
    assert not store.sim._heap
    assert store._request_gathers == {}


def test_cancelled_gather_hands_over_to_its_waiter(monkeypatch):
    """A gatherer cancelled mid-gather has no error to share: the read
    waiting on it wakes and gathers for itself.  The cancelled gather's
    shard reads are cancelled with it, so only the waiter's own k reads
    complete after the cancel."""
    store, _table, stripe = _lost_tag_bin()
    obj = store.objects["tbl"]
    placement = obj.stripes[stripe]
    coordinator = store.cluster.coordinator_for("tbl")
    windows = _watch_gathers(store)
    metrics = QueryMetrics()
    cancelled = [False]
    late_reads: list[str] = []
    read_block = StorageNode.read_block

    def counted(node, block_id, *args):
        block = yield from read_block(node, block_id, *args)
        if cancelled[0]:
            late_reads.append(block_id)
        return block

    monkeypatch.setattr(StorageNode, "read_block", counted)

    def request():
        procs = [
            store.sim.process(store._stripe_shards(obj, placement, coordinator, metrics))
            for _ in range(2)
        ]
        yield store.sim.timeout(0)  # both reads started: one gathers, one waits
        procs[0].cancel()
        cancelled[0] = True
        yield procs[1]
        return procs[1].value

    proc = store.sim.process(store._request_scoped(request(), metrics))
    store.sim.run()
    shards = proc.value
    assert sum(s is not None for s in shards) >= store.config.code.k
    assert len(windows) == 1  # only the waiter's own gather finished
    assert len(late_reads) == store.config.code.k == 6
    assert metrics.degraded_reads == 2
    assert not store.sim._heap
    assert store._request_gathers == {}
