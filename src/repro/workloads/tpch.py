"""TPC-H ``lineitem`` generator (dbgen-like, scaled down).

Reproduces the 16-column lineitem schema with the value distributions that
give the paper's Parquet file its characteristic bimodal chunk sizes
(Figure 4c) and compression-ratio spread (Figure 6): tiny, highly
repetitive chunks (``l_linenumber``, ``l_returnflag``) next to huge,
barely-compressible ones (``l_comment``, ``l_extendedprice``).

Column ids match the paper's Figures 6/12/13 (column 0..15 in schema
order); e.g. *column 5* is ``l_extendedprice`` and *column 9* is
``l_linestatus``.
"""

from __future__ import annotations

import numpy as np

from repro.format.compression import DEFAULT_CODEC
from repro.format.schema import ColumnType
from repro.format.table import Table
from repro.format.writer import write_table
from repro.sql.dates import date_to_days
from repro.workloads.text import pick, random_sentences

#: Paper row counts: 10 row groups of 30M rows at the 10GB scale.  The
#: default scaled-down shape keeps 10 row groups.
DEFAULT_ROWS = 40_000
DEFAULT_ROW_GROUP_ROWS = 4_000

#: Schema order matches TPC-H; index in this list == paper column id.
COLUMN_NAMES = [
    "l_orderkey",  # 0
    "l_partkey",  # 1
    "l_suppkey",  # 2
    "l_linenumber",  # 3
    "l_quantity",  # 4
    "l_extendedprice",  # 5
    "l_discount",  # 6
    "l_tax",  # 7
    "l_returnflag",  # 8
    "l_linestatus",  # 9
    "l_shipdate",  # 10
    "l_commitdate",  # 11
    "l_receiptdate",  # 12
    "l_shipinstruct",  # 13
    "l_shipmode",  # 14
    "l_comment",  # 15
]

_SHIPINSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_SHIPMODE = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]


def lineitem_table(num_rows: int = DEFAULT_ROWS, seed: int = 42) -> Table:
    """Generate a lineitem table with TPC-H-like value distributions."""
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    rng = np.random.default_rng(seed)

    # Orders have 1-7 lineitems; orderkey is sorted (as dbgen emits).
    orderkey = np.sort(rng.integers(1, max(2, num_rows // 4), size=num_rows))
    linenumber = _linenumbers(orderkey)

    quantity = rng.integers(1, 51, size=num_rows)
    partkey = rng.integers(1, 200_000, size=num_rows)
    suppkey = rng.integers(1, 10_000, size=num_rows)
    # extendedprice = quantity * part price; prices are diverse doubles.
    part_price = rng.uniform(900.0, 2100.0, size=num_rows).round(2)
    extendedprice = (quantity * part_price).round(2)
    discount = rng.integers(0, 11, size=num_rows) / 100.0
    tax = rng.integers(0, 9, size=num_rows) / 100.0

    # Ship dates are loosely time-correlated with file position (orders are
    # ingested in time order), so row-group min/max stats can prune most
    # row groups for date-range filters — the reason the paper's date
    # columns (10-12) see only modest pushdown gains.
    ship_base = date_to_days("1992-01-01")
    ship_span = date_to_days("1998-12-01") - ship_base
    drift = (np.arange(num_rows) / num_rows * ship_span).astype(np.int64)
    shipdate = ship_base + drift + rng.integers(-60, 61, size=num_rows)
    commitdate = shipdate + rng.integers(-30, 31, size=num_rows)
    receiptdate = shipdate + rng.integers(1, 31, size=num_rows)

    returnflag = pick(rng, num_rows, ["R", "A", "N"], p=[0.25, 0.25, 0.5])
    linestatus = pick(rng, num_rows, ["O", "F"])
    shipinstruct = pick(rng, num_rows, _SHIPINSTRUCT)
    shipmode = pick(rng, num_rows, _SHIPMODE)
    comment = random_sentences(rng, num_rows, min_words=5, max_words=14)

    return Table.from_dict(
        {
            "l_orderkey": (ColumnType.INT64, orderkey),
            "l_partkey": (ColumnType.INT64, partkey),
            "l_suppkey": (ColumnType.INT64, suppkey),
            "l_linenumber": (ColumnType.INT64, linenumber),
            "l_quantity": (ColumnType.INT64, quantity),
            "l_extendedprice": (ColumnType.DOUBLE, extendedprice),
            "l_discount": (ColumnType.DOUBLE, discount),
            "l_tax": (ColumnType.DOUBLE, tax),
            "l_returnflag": (ColumnType.STRING, returnflag),
            "l_linestatus": (ColumnType.STRING, linestatus),
            "l_shipdate": (ColumnType.DATE, shipdate),
            "l_commitdate": (ColumnType.DATE, commitdate),
            "l_receiptdate": (ColumnType.DATE, receiptdate),
            "l_shipinstruct": (ColumnType.STRING, shipinstruct),
            "l_shipmode": (ColumnType.STRING, shipmode),
            "l_comment": (ColumnType.STRING, comment),
        }
    )


def _linenumbers(orderkey: np.ndarray) -> np.ndarray:
    """1, 2, ... within each run of equal order keys."""
    run_start = np.zeros(len(orderkey), dtype=np.int64)
    starts = np.flatnonzero(np.diff(orderkey)) + 1
    run_start[starts] = starts
    return np.arange(1, len(orderkey) + 1) - np.maximum.accumulate(run_start)


def lineitem_file(
    num_rows: int = DEFAULT_ROWS,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    codec: str = DEFAULT_CODEC,
    page_values: int = 500,
    seed: int = 42,
) -> tuple[bytes, Table]:
    """Generate the lineitem table and serialise it to PAX bytes."""
    table = lineitem_table(num_rows, seed)
    return (
        write_table(
            table, row_group_rows=row_group_rows, codec=codec, page_values=page_values
        ),
        table,
    )


def column_name(column_id: int) -> str:
    """Map a paper column id (0..15) to the lineitem column name."""
    return COLUMN_NAMES[column_id]
