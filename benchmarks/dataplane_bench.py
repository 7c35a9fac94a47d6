"""Before/after benchmark for the vectorized, zero-copy data plane.

Measures the wall-clock throughput of each vectorized data-plane
component against the retained scalar references in
:mod:`repro.format._reference` (the seed implementations), then runs two
end-to-end workloads — a query workload in the style of the RPC-batching
bench and a fail-and-repair workload in the style of the fault-tolerance
bench — once with the production (vectorized) code and once with every
vectorized path patched back to its scalar reference in-process.

Simulated time, byte accounting, and query results are engine-level
quantities and do not change between modes (see
``tests/integration/test_dataplane_identity.py``); only wall-clock does.

Writes ``BENCH_dataplane.json`` and exits non-zero when any component
drops below its committed speedup floor (set ~25% under the ratios
measured at commit time, so a regression that costs more than a quarter
of a component's speedup fails CI).

Run from the repo root::

    PYTHONPATH=src python benchmarks/dataplane_bench.py [output.json]
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.bench.envelope import write_bench_report
from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import FusionStore, RepairManager, StoreConfig
from repro.ec import gf256, reed_solomon
from repro.ec.reed_solomon import CodeParams, ReedSolomon
from repro.format import ColumnType, Table, write_table
from repro.format import _reference as ref
from repro.format import compression, encoding
from repro.format.compression import get_codec

#: Committed speedup floors (ratio of scalar-reference time to vectorized
#: time).  Measured ratios at commit time were roughly 22x (snappy), 14x
#: (RLE), 1.6x (string plain), 5x/10x/4x (RS encode / 1-loss / 3-loss
#: rebuild), 2.4x (query e2e), 3x (repair e2e); floors sit ~25% or more
#: below those so normal scheduler noise passes but a real regression —
#: e.g. a vectorized path silently falling back to its scalar loop —
#: fails the job.
FLOORS = {
    "snappy_roundtrip": 5.0,
    "rle_roundtrip": 5.0,
    "string_plain_roundtrip": 1.2,
    "rs_encode": 2.0,
    "rs_rebuild_1loss": 5.0,
    "rs_rebuild_3loss": 2.0,
    "e2e_query": 2.0,
    "e2e_repair": 2.0,
}

_REPS = 3


def _best_of(fn, reps: int = _REPS) -> float:
    fn()  # warm caches, lane tables, codec state
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class _Patcher:
    """Reversible setattr, so one process can run both modes."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj: object, name: str, value: object) -> None:
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self) -> None:
        for obj, name, value in reversed(self._saved):
            setattr(obj, name, value)
        self._saved.clear()


def _patch_scalar_data_plane(p: _Patcher) -> None:
    """Swap every vectorized data-plane path for its seed-era scalar form."""
    scalar = ref.ScalarSnappyCodec()
    p.set(
        compression.SnappyLikeCodec,
        "compress",
        lambda self, data: scalar.compress(data),
    )
    p.set(
        compression.SnappyLikeCodec,
        "decompress",
        lambda self, data: scalar.decompress(data),
    )
    p.set(encoding, "rle_encode", ref.rle_encode)
    p.set(encoding, "rle_decode", ref.rle_decode)
    p.set(encoding, "_encode_plain_strings", ref.encode_plain_strings)
    p.set(encoding, "_decode_plain_strings", ref.decode_plain_strings)
    p.set(
        gf256,
        "gf_matmul_blocks",
        lambda m, b: gf256.gf_matmul(
            np.asarray(m, dtype=np.uint8), np.ascontiguousarray(b, dtype=np.uint8)
        ),
    )
    p.set(
        reed_solomon,
        "build_encoding_matrix",
        lambda n, k: ref.build_vandermonde_encoding_matrix(n, k),
    )
    reed_solomon._CODER_CACHE.clear()


def _both_modes(fn) -> dict:
    """Run ``fn`` vectorized then scalar-patched; report times and ratio."""
    vec = _best_of(fn)
    p = _Patcher()
    _patch_scalar_data_plane(p)
    try:
        scalar = _best_of(fn)
    finally:
        p.undo()
        reed_solomon._CODER_CACHE.clear()
    return {"vectorized_s": vec, "scalar_s": scalar, "speedup": scalar / vec}


# -- component microbenchmarks ------------------------------------------------


def _snappy_component() -> dict:
    """Round-trip MB/s over a mixed corpus: runs, periodic data, base64
    text, and binary noise — the page payloads an analytics file holds."""
    rng = np.random.default_rng(7)
    b64 = np.frombuffer(
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_",
        dtype=np.uint8,
    )
    corpus = [
        b"\x00" * 262_144,
        bytes(rng.integers(0, 256, 512, dtype=np.uint8)) * 512,
        b64[rng.integers(0, 64, 262_144)].tobytes(),
        bytes(rng.integers(0, 256, 262_144, dtype=np.uint8)),
    ]
    total = sum(len(c) for c in corpus)
    vec_codec = get_codec("snappy")
    scalar = ref.ScalarSnappyCodec()
    for codec in (vec_codec, scalar):
        for raw in corpus:
            assert codec.decompress(codec.compress(raw)) == raw

    def roundtrip(codec):
        for raw in corpus:
            codec.decompress(codec.compress(raw))

    t_vec = _best_of(lambda: roundtrip(vec_codec))
    t_ref = _best_of(lambda: roundtrip(scalar), reps=1)
    return {
        "bytes": total,
        "vectorized_mb_s": total / t_vec / 1e6,
        "scalar_mb_s": total / t_ref / 1e6,
        "speedup": t_ref / t_vec,
    }


def _rle_component() -> dict:
    """RLE round-trip over run-structured dictionary codes (1M values)."""
    rng = np.random.default_rng(11)
    codes = np.repeat(rng.integers(0, 40, 40_000), 25).astype(np.int64)
    nbytes = codes.nbytes

    def vec():
        encoding.rle_decode(encoding.rle_encode(codes), len(codes))

    def scalar():
        ref.rle_decode(ref.rle_encode(codes), len(codes))

    t_vec = _best_of(vec)
    t_ref = _best_of(scalar, reps=1)
    return {
        "values": len(codes),
        "vectorized_mb_s": nbytes / t_vec / 1e6,
        "scalar_mb_s": nbytes / t_ref / 1e6,
        "speedup": t_ref / t_vec,
    }


def _string_plain_component() -> dict:
    """Plain string page encode+decode over 100k short ascii strings."""
    strings = np.array(
        [f"user-{i % 977:04d}/session/{i:07d}" for i in range(100_000)], dtype=object
    )
    blob = encoding.encode_plain(ColumnType.STRING, strings)
    nbytes = len(blob)

    def vec():
        b = encoding.encode_plain(ColumnType.STRING, strings)
        encoding.decode_plain(ColumnType.STRING, b, len(strings))

    def scalar():
        b = ref.encode_plain_strings(strings)
        ref.decode_plain_strings(b, len(strings))

    t_vec = _best_of(vec)
    t_ref = _best_of(scalar)
    return {
        "bytes": nbytes,
        "vectorized_mb_s": nbytes / t_vec / 1e6,
        "scalar_mb_s": nbytes / t_ref / 1e6,
        "speedup": t_ref / t_vec,
    }


def _rs_components() -> dict:
    """Whole-stripe encode and rebuild at in-context shard sizes.

    4 MiB shards with a (9, 6) code match what a multi-megabyte column
    chunk striped across a rack looks like; the vectorized coder runs
    one lane-table matmul per stripe, the reference walks coefficients
    with per-shard table lookups.
    """
    shard = 4 * 1024 * 1024
    params = CodeParams(9, 6)
    rng = np.random.default_rng(13)
    data = [rng.integers(0, 256, shard, dtype=np.uint8) for _ in range(params.k)]
    data_bytes = shard * params.k

    vec_coder = ReedSolomon(params)
    ref_coder = ref.ScalarReedSolomon(params.n, params.k)
    out: dict = {"shard_bytes": shard, "code": f"({params.n},{params.k})"}

    for name, coder in (("vectorized", vec_coder), ("scalar", ref_coder)):
        shards = list(data) + coder.encode(list(data))
        one = list(shards)
        one[2] = None
        three = list(shards)
        for i in (0, 4, 7):
            three[i] = None
        t_enc = _best_of(lambda: coder.encode(list(data)), reps=_REPS if name == "vectorized" else 1)
        t_r1 = _best_of(lambda: coder.decode(list(one)), reps=_REPS if name == "vectorized" else 1)
        t_r3 = _best_of(lambda: coder.decode(list(three)), reps=_REPS if name == "vectorized" else 1)
        out[name] = {
            "encode_mb_s": data_bytes / t_enc / 1e6,
            "rebuild_1loss_mb_s": shard / t_r1 / 1e6,
            "rebuild_3loss_mb_s": 3 * shard / t_r3 / 1e6,
            "_times": (t_enc, t_r1, t_r3),
        }
    vec_t = out["vectorized"].pop("_times")
    ref_t = out["scalar"].pop("_times")
    out["encode_speedup"] = ref_t[0] / vec_t[0]
    out["rebuild_1loss_speedup"] = ref_t[1] / vec_t[1]
    out["rebuild_3loss_speedup"] = ref_t[2] / vec_t[2]
    return out


# -- end-to-end workloads -----------------------------------------------------


def _query_table(rows: int = 40_000) -> Table:
    """A key-sorted fact table in the shape analytics files really have:
    a sorted key, a low-cardinality measure, clustered dimension strings
    (dictionary + RLE pages), and high-entropy digest columns (plain
    pages that stress the compressor's literal path)."""
    rng = np.random.default_rng(13)
    b64 = np.array(
        list("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_")
    )
    digest = np.array(
        ["".join(row) for row in b64[rng.integers(0, 64, (rows, 43))]], dtype=object
    )
    etag = np.array(
        ["".join(row) for row in b64[rng.integers(0, 64, (rows, 22))]], dtype=object
    )
    return Table.from_dict(
        {
            "id": (ColumnType.INT64, np.arange(rows, dtype=np.int64)),
            "qty": (ColumnType.INT64, rng.integers(1, 50, rows)),
            "tag": (
                ColumnType.STRING,
                np.array([f"shard-{i // 500}" for i in range(rows)], dtype=object),
            ),
            "digest": (ColumnType.STRING, digest),
            "etag": (ColumnType.STRING, etag),
            "url": (
                ColumnType.STRING,
                np.array(
                    [
                        f"https://objstore.example.com/buckets/b{i // 500}/data.parquet"
                        for i in range(rows)
                    ],
                    dtype=object,
                ),
            ),
        }
    )


_QUERY_SQLS = [
    "SELECT count(*), sum(qty) FROM tbl WHERE qty < 25",
    "SELECT id, digest FROM tbl WHERE qty < 3",
    "SELECT etag FROM tbl WHERE id < 20000",
    "SELECT tag, sum(qty) FROM tbl GROUP BY tag",
]


def _e2e_query(table: Table) -> None:
    """Write a snappy-coded table, load it into one Fusion store, and
    run the pushdown query mix sequentially."""
    data = write_table(table, row_group_rows=4_000, codec="snappy")
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = FusionStore(
        cluster,
        StoreConfig(
            size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000
        ),
    )
    store.put("tbl", data)
    for sql in _QUERY_SQLS:
        store.query(sql)


def _repair_table(rows: int = 2_000_000) -> Table:
    rng = np.random.default_rng(3)
    return Table.from_dict(
        {"k": (ColumnType.INT64, rng.integers(0, 2**40, rows))}
    )


def _e2e_repair(table: Table) -> None:
    """The fault-tolerance bench's shape: a FAC-placed object, four node
    losses each followed by a full repair, then a query over the
    recovered data.  Repair reads run the RS rebuild matmuls over every
    surviving stripe."""
    data = write_table(table, row_group_rows=250_000, codec="none")
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = FusionStore(
        cluster,
        StoreConfig(
            size_scale=50.0, storage_overhead_threshold=0.6, block_size=500_000
        ),
    )
    store.put("tbl", data)
    assert "tbl" in store.objects, "object must take the FAC (striped) path"
    victims = list(
        dict.fromkeys(
            node
            for stripe in store.objects["tbl"].stripes
            for node in stripe.node_ids
        )
    )[:4]
    repair = RepairManager(store)
    for victim in victims:
        cluster.fail_node(victim, wipe=True)
        repair.repair_node(victim)
    store.query("SELECT count(*) FROM tbl WHERE k < 1000000")


def main(out_path: str = "BENCH_dataplane.json") -> None:
    bench_start = time.perf_counter()
    report: dict = {"components": {}, "e2e": {}}

    components = report["components"]
    components["snappy_roundtrip"] = _snappy_component()
    components["rle_roundtrip"] = _rle_component()
    components["string_plain_roundtrip"] = _string_plain_component()
    rs = _rs_components()
    report["components"]["reed_solomon"] = rs

    query_table = _query_table()
    repair_table = _repair_table()
    report["e2e"]["query_pushdown"] = {
        "rows": 40_000,
        "queries": _QUERY_SQLS,
        **_both_modes(lambda: _e2e_query(query_table)),
    }
    report["e2e"]["fail_and_repair"] = {
        "rows": 2_000_000,
        "node_losses": 4,
        **_both_modes(lambda: _e2e_repair(repair_table)),
    }

    measured = {
        "snappy_roundtrip": components["snappy_roundtrip"]["speedup"],
        "rle_roundtrip": components["rle_roundtrip"]["speedup"],
        "string_plain_roundtrip": components["string_plain_roundtrip"]["speedup"],
        "rs_encode": rs["encode_speedup"],
        "rs_rebuild_1loss": rs["rebuild_1loss_speedup"],
        "rs_rebuild_3loss": rs["rebuild_3loss_speedup"],
        "e2e_query": report["e2e"]["query_pushdown"]["speedup"],
        "e2e_repair": report["e2e"]["fail_and_repair"]["speedup"],
    }
    report["acceptance"] = {
        name: {
            "speedup": ratio,
            "floor": FLOORS[name],
            "passes": ratio >= FLOORS[name],
        }
        for name, ratio in measured.items()
    }
    ok = all(entry["passes"] for entry in report["acceptance"].values())

    for name, ratio in measured.items():
        flag = "PASS" if ratio >= FLOORS[name] else "FAIL"
        print(f"{name}: {ratio:.1f}x (floor {FLOORS[name]}x) {flag}")

    write_bench_report(
        out_path,
        benchmark="dataplane",
        wall_seconds=time.perf_counter() - bench_start,
        passed=ok,
        floors={f"{name}_speedup": FLOORS[name] for name in FLOORS},
        detail=report,
    )
    print(f"wrote {out_path}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main(*sys.argv[1:2])
