"""Microbenchmarks of the core components (real wall-clock, many rounds).

These are classic pytest-benchmark measurements of the library's hot
paths, complementing the one-shot figure reproductions: FAC layout speed
(the paper's "tens of microseconds" claim), Reed-Solomon throughput, and
chunk encode/decode.
"""

import numpy as np
import pytest

from repro.core import construct_stripes
from repro.ec import RS_9_6, encode_stripe, get_coder
from repro.format import decode_column_chunk, encode_column_chunk
from repro.format.schema import ColumnType
from repro.workloads import items_from_sizes, zipf_chunk_sizes


def test_fac_construction_speed(benchmark):
    """Paper: FAC runs in 10s-100s of microseconds for real files."""
    items = items_from_sizes(zipf_chunk_sizes(320, 0.5, seed=1))
    layout = benchmark(construct_stripes, RS_9_6, items)
    assert layout.overhead_vs_optimal < 0.02
    # Generous bound for CI noise; the paper's Go version is ~500us.
    assert benchmark.stats["mean"] < 0.05


def test_fac_scales_to_thousands_of_chunks(benchmark):
    items = items_from_sizes(zipf_chunk_sizes(2000, 0.5, seed=2))
    layout = benchmark(construct_stripes, RS_9_6, items)
    assert layout.overhead_vs_optimal < 0.01


def test_reed_solomon_encode_throughput(benchmark):
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 256, size=256 * 1024, dtype=np.uint8) for _ in range(6)]
    coder = get_coder(RS_9_6)
    parity = benchmark(coder.encode, blocks)
    assert len(parity) == 3


def _lossy_stripe(block_size: int):
    # Small blocks mirror degraded reads of per-chunk bins, where the
    # GF(2^8) matrix inversion (not the multiply) dominates decode time.
    rng = np.random.default_rng(4)
    coder = get_coder(RS_9_6)
    blocks = [rng.integers(0, 256, size=block_size, dtype=np.uint8) for _ in range(6)]
    shards = blocks + coder.encode(blocks)
    shards[0] = shards[3] = None  # a fixed two-shard loss, as in repair
    return coder, blocks, shards


def test_reed_solomon_decode_memoised_inversion(benchmark):
    """Repeated loss pattern: recovery matrix comes from the memo cache."""
    coder, blocks, shards = _lossy_stripe(1024)
    recovered = benchmark(coder.decode, shards)
    assert np.array_equal(recovered[0], blocks[0])


def test_reed_solomon_decode_cold_inversion(benchmark):
    """Same decode with the memo cleared each round: pays the inversion."""
    coder, blocks, shards = _lossy_stripe(1024)

    def cold_decode():
        coder._inversion_cache.clear()
        return coder.decode(shards)

    recovered = benchmark(cold_decode)
    assert np.array_equal(recovered[0], blocks[0])


def test_stripe_encode_variable_blocks(benchmark):
    rng = np.random.default_rng(1)
    sizes = [200_000, 150_000, 120_000, 80_000, 50_000, 10_000]
    blocks = [rng.integers(0, 256, size=s, dtype=np.uint8) for s in sizes]
    shards = benchmark(encode_stripe, RS_9_6, blocks)
    assert sum(p.size for p in shards[RS_9_6.k :]) == 3 * 200_000


def test_chunk_encode_speed(benchmark):
    rng = np.random.default_rng(2)
    values = rng.integers(0, 50, size=100_000)
    chunk = benchmark(
        encode_column_chunk, ColumnType.INT64, values, "zlib"
    )
    assert chunk.compressibility > 4


def test_chunk_encode_distinct_strings(benchmark):
    """All-distinct text: the cardinality test says plain without a dictionary."""
    values = np.array([f"comment {i:07d} carefully final deposits" for i in range(20_000)], dtype=object)
    chunk = benchmark(encode_column_chunk, ColumnType.STRING, values, "zlib")
    assert chunk.encoding == "plain"
    assert chunk.plain_size == sum(4 + len(v) for v in values)


def test_chunk_encode_repeated_strings(benchmark):
    """Low-cardinality text: dictionary codes and min/max at C speed."""
    modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"]
    values = np.array([modes[i] for i in np.random.default_rng(5).integers(0, 7, 100_000)], dtype=object)
    chunk = benchmark(encode_column_chunk, ColumnType.STRING, values, "zlib")
    assert chunk.encoding == "dictionary"
    assert (chunk.stats.min_value, chunk.stats.max_value) == ("AIR", "TRUCK")


def test_chunk_encode_distinct_doubles(benchmark):
    """All-distinct doubles: one sort decides plain; no codes are built."""
    values = np.random.default_rng(6).uniform(900, 105_000, size=100_000)
    chunk = benchmark(encode_column_chunk, ColumnType.DOUBLE, values, "zlib")
    assert chunk.encoding == "plain"
    assert chunk.plain_size == 800_000


def test_chunk_decode_speed(benchmark):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 50, size=100_000)
    chunk = encode_column_chunk(ColumnType.INT64, values, "zlib")
    out = benchmark(decode_column_chunk, chunk.data)
    assert np.array_equal(out, values)
