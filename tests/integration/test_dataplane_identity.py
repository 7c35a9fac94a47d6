"""The vectorized data plane must be invisible to the simulation.

A fault-free, default-knob workload run with the production (vectorized)
codecs must produce an event stream bit-identical to the same run with
every vectorized path swapped back to its retained scalar reference:
the rewrite changes wall-clock time, never simulated time, byte
accounting, or RPC counts.  This is the guard that catches a vectorized
codec leaking different compressed sizes (and hence different simulated
network costs) into the event loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator, record_schedule
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.ec import gf256
from repro.format import _reference as ref
from repro.format import compression, encoding
from repro.format import write_table
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
]
NUM_CLIENTS = 4
QUERIES_PER_CLIENT = 3


def _run(store_cls):
    """One concurrent workload; returns the full scheduled-event stream
    plus per-query metrics fingerprints and results."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    stream = record_schedule(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000
        ),
    )
    store.put("tbl", data)

    fingerprints = []
    results = []

    def client(cid: int):
        for qi in range(QUERIES_PER_CLIENT):
            qm = QueryMetrics()
            result = yield from store.query_process(
                QUERIES[(cid + qi * NUM_CLIENTS) % len(QUERIES)], qm
            )
            fingerprints.append(
                (qm.start_time, qm.end_time, qm.network_bytes, qm.rpcs_issued)
            )
            results.append(result)

    for cid in range(NUM_CLIENTS):
        sim.process(client(cid))
    sim.run()
    return stream, fingerprints, results


def _patch_scalar_data_plane(monkeypatch):
    """Swap every vectorized data-plane path for its scalar reference."""
    scalar = ref.ScalarSnappyCodec()
    monkeypatch.setattr(
        compression.SnappyLikeCodec,
        "compress",
        lambda self, data: scalar.compress(data),
    )
    monkeypatch.setattr(encoding, "rle_encode", ref.rle_encode)
    monkeypatch.setattr(encoding, "rle_decode", ref.rle_decode)
    monkeypatch.setattr(encoding, "_encode_plain_strings", ref.encode_plain_strings)
    monkeypatch.setattr(
        encoding, "_decode_plain_strings", ref.decode_plain_strings
    )

    def scalar_matmul_blocks(matrix, blocks):
        return gf256.gf_matmul(
            np.asarray(matrix, dtype=np.uint8),
            np.ascontiguousarray(blocks, dtype=np.uint8),
        )

    monkeypatch.setattr(gf256, "gf_matmul_blocks", scalar_matmul_blocks)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_vectorized_data_plane_is_event_invisible(store_cls, monkeypatch):
    vec_stream, vec_fp, vec_results = _run(store_cls)
    _patch_scalar_data_plane(monkeypatch)
    ref_stream, ref_fp, ref_results = _run(store_cls)

    assert vec_stream == ref_stream
    assert vec_fp == ref_fp
    for a, b in zip(vec_results, ref_results):
        assert a.equals(b)


def test_repeated_runs_are_deterministic():
    first = _run(FusionStore)
    second = _run(FusionStore)
    assert first[0] == second[0]
    assert first[1] == second[1]
