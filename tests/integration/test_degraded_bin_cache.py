"""One decode per degraded stripe, and the bin cache stays wall-only.

A degraded read decodes every data bin its gathered shards do not
cover, so the kernel caches the lost siblings of the bin it was asked
for (``StoreKernel._degraded_block_read_body``).  The cache holds real
bytes only: the simulated gather and decode charges are paid on every
read, so the event stream must be the one a cache holding only the
requested bin produced (digests below pinned with that cache), and a
sibling decoded from shards that produced a wrong target bin must never
be served.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator, record_schedule
from repro.core import BaselineStore, FusionStore, StoreConfig, kernel
from repro.core.location_map import chunk_checksum
from repro.format import write_table
from tests.conftest import make_small_table

#: sha256 of the Get's ``record_schedule`` stream, pinned with the cache
#: that kept only the requested bin of each decode.
GOLDEN_STREAM = {
    "fusion": "b5acc172ab8c7d8fc7d812385276c4945048b466ed00903cc1994fd5617fdd0e",
    "baseline": "80f9977444ce740fdd011c59b5e76a4723b52e4bb43b58deb076817e8edee180",
}


def _two_lost_bins(store_cls):
    """A loaded store whose stripe 0 has lost two written data bins."""
    data = write_table(make_small_table(num_rows=2500, seed=77), row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000),
    )
    store.put("tbl", data)
    placement = store.objects["tbl"].stripes[0]
    lost = [i for i, size in enumerate(placement.data_sizes) if size > 0][:2]
    assert len(lost) == 2
    for i in lost:
        cluster.fail_node(placement.node_ids[i])
    return store, cluster, stream, data, placement, lost


def _count_decodes(monkeypatch) -> list[int]:
    calls: list[int] = []
    decode = kernel.decode_stripe

    def counted(*args, **kwargs):
        calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(kernel, "decode_stripe", counted)
    return calls


def _lost_bins(store) -> list[tuple[int, int]]:
    """(stripe, position) of every written data bin on a dead node."""
    return [
        (p.stripe_id, i)
        for p in store.objects["tbl"].stripes
        for i, size in enumerate(p.data_sizes)
        if size > 0 and not store.cluster.node(p.node_ids[i]).alive
    ]


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore], ids=["fusion", "baseline"])
def test_get_decodes_each_degraded_stripe_once(store_cls, monkeypatch):
    store, _cluster, stream, data, _placement, _lost = _two_lost_bins(store_cls)
    decodes = _count_decodes(monkeypatch)
    lost = _lost_bins(store)
    assert store.get("tbl") == data
    stripes = {sid for sid, _i in lost}
    assert len(lost) > len(stripes)  # some stripe lost two bins
    assert len(decodes) == len(stripes)
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert digest == GOLDEN_STREAM[store_cls.__name__.removesuffix("Store").lower()]


def test_siblings_of_a_wrong_reconstruction_are_never_served(monkeypatch):
    store, cluster, _stream, _data, placement, (a, b) = _two_lost_bins(FusionStore)
    # Damage every byte of a survivor the degraded read gathers, so the
    # one decode gets bin ``a`` (and its sibling ``b``) wrong.
    c = next(j for j, size in enumerate(placement.data_sizes) if size > 0 and j not in (a, b))
    cluster.node(placement.node_ids[c]).corrupt_block(
        placement.block_ids[c], offset=0, length=placement.data_sizes[c]
    )
    decodes = _count_decodes(monkeypatch)
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
    before = len(decodes)
    metrics = QueryMetrics()
    got_b = read(b, metrics)
    # Decoded afresh (wrong again, still gathering ``c``) and then
    # recovered with ``c`` localised: two decodes.  A cached sibling
    # would have skipped the first.
    assert len(decodes) == before + 2
    assert metrics.checksum_failures == 1
    assert chunk_checksum(got_b) == placement.checksum(b)
