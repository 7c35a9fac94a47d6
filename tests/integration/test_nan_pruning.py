"""A NaN in a DOUBLE chunk must not prune the chunk.

``min``/``max`` propagate NaN, so a chunk holding one used to record
``(nan, nan)`` stats, against which every range test is false: the whole
row group (footer stats) or page (page stats) was skipped, on both
stores, and the footer carried a bare ``NaN`` token that is not JSON.
Stats are now omitted for such a chunk, which readers treat as "may
match".  Row groups here: a NaN near the start, none, a NaN in the
middle, none, all NaN.
"""

import json
import struct

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import ColumnType, PaxFile, Table, write_table
from repro.format.pages import chunk_page_index
from repro.sql import execute_local

ROWS, GROUP = 2500, 500


@pytest.fixture(scope="module")
def table():
    x = np.random.default_rng(5).uniform(0, 100, ROWS).round(1)
    x[[5, 1200]] = np.nan
    x[[7, 1300]] = 17.5  # the equality probe, next to each lone NaN
    x[2000:] = np.nan
    return Table.from_dict(
        {"k": (ColumnType.INT64, np.arange(ROWS)), "x": (ColumnType.DOUBLE, x)}
    )


@pytest.fixture(scope="module")
def data(table):
    return write_table(table, row_group_rows=GROUP)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
@pytest.mark.parametrize(
    "where", ["x < 50", "x > 50", "x = 17.5", "x != 17.5", "x BETWEEN 20 AND 60"]
)
def test_both_stores_match_the_local_oracle(table, data, store_cls, where):
    store = store_cls(
        Cluster(Simulator(), ClusterConfig(num_nodes=9)),
        StoreConfig(size_scale=100.0, storage_overhead_threshold=0.1, block_size=500_000),
    )
    store.put("t", data)
    sql = f"SELECT k FROM t WHERE {where}"
    expected = execute_local(sql, table)
    assert expected.rows.num_rows > 0
    assert store.query(sql)[0].equals(expected)


def test_nan_chunks_carry_no_stats_and_the_footer_is_json(table, data):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    (footer_len,) = struct.unpack("<I", data[-8:-4])
    json.loads(data[-8 - footer_len : -8], parse_constant=refuse)

    file = PaxFile(data)
    for meta, has_nan in zip(file.metadata.chunks_for_column("x"), (True, False, True, False, True)):
        pages = chunk_page_index(data[meta.offset : meta.end_offset])
        for lo, hi in [(meta.stats.min_value, meta.stats.max_value)] + [
            (p.min_value, p.max_value) for p in pages
        ]:
            assert (lo is None and hi is None) if has_nan else (0 <= lo <= hi <= 100)
    assert file.read_table().equals(table)
