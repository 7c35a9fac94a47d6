"""UK property-prices dataset generator (HM Land Registry price-paid data).

A 16-column mixed table: a few diverse string columns (addresses) among
many low-cardinality categoricals — the fourth chunk-size profile in the
paper's Figure 4c.
"""

from __future__ import annotations

import numpy as np

from repro.format.compression import DEFAULT_CODEC
from repro.format.schema import ColumnType
from repro.format.table import Table
from repro.format.writer import write_table
from repro.sql.dates import date_to_days
from repro.workloads.text import pick, random_codes

DEFAULT_ROWS = 20_000
DEFAULT_ROW_GROUP_ROWS = 1_334  # paper: 15 row groups x 16 columns = 240 chunks

_TOWNS = [f"TOWN-{i:03d}" for i in range(400)]
_DISTRICTS = [f"DISTRICT-{i:03d}" for i in range(120)]
_COUNTIES = [f"COUNTY-{i:02d}" for i in range(45)]
_STREET_SUFFIX = ["ROAD", "STREET", "LANE", "AVENUE", "CLOSE", "DRIVE", "WAY"]


def ukpp_table(num_rows: int = DEFAULT_ROWS, seed: int = 13) -> Table:
    """Generate the 16-column price-paid table."""
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    rng = np.random.default_rng(seed)

    price = np.round(np.exp(rng.normal(12.3, 0.6, size=num_rows))).astype(np.int64)
    day_lo = date_to_days("1995-01-01")
    day_hi = date_to_days("2023-01-01")
    date = rng.integers(day_lo, day_hi, size=num_rows)

    return Table.from_dict(
        {
            "transaction_id": (ColumnType.STRING, random_codes(rng, num_rows, "TX", 10**9)),
            "price": (ColumnType.INT64, price),
            "date": (ColumnType.DATE, date),
            "postcode": (ColumnType.STRING, _postcodes(rng, num_rows)),
            "property_type": (ColumnType.STRING, pick(rng, num_rows, ["D", "S", "T", "F", "O"])),
            "old_new": (ColumnType.STRING, pick(rng, num_rows, ["Y", "N"], p=[0.1, 0.9])),
            "duration": (ColumnType.STRING, pick(rng, num_rows, ["F", "L"], p=[0.75, 0.25])),
            "paon": (ColumnType.INT64, rng.integers(1, 300, size=num_rows)),
            "saon": (ColumnType.STRING, pick(rng, num_rows, ["", "FLAT 1", "FLAT 2", "FLAT 3"], p=[0.8, 0.08, 0.07, 0.05])),
            "street": (ColumnType.STRING, _streets(rng, num_rows)),
            "locality": (ColumnType.STRING, pick(rng, num_rows, _TOWNS[:150])),
            "town": (ColumnType.STRING, pick(rng, num_rows, _TOWNS)),
            "district": (ColumnType.STRING, pick(rng, num_rows, _DISTRICTS)),
            "county": (ColumnType.STRING, pick(rng, num_rows, _COUNTIES)),
            "ppd_category": (ColumnType.STRING, pick(rng, num_rows, ["A", "B"], p=[0.9, 0.1])),
            "record_status": (ColumnType.STRING, pick(rng, num_rows, ["A"])),
        }
    )


def _postcodes(rng: np.random.Generator, count: int) -> np.ndarray:
    letters = np.array(list("ABCDEFGHJKLMNPRSTUWYZ"), dtype=object)
    a = letters[rng.integers(0, len(letters), size=count)]
    b = letters[rng.integers(0, len(letters), size=count)]
    n1 = rng.integers(1, 30, size=count).astype(str).astype(object)
    n2 = rng.integers(0, 10, size=count).astype(str).astype(object)
    c = letters[rng.integers(0, len(letters), size=count)]
    d = letters[rng.integers(0, len(letters), size=count)]
    return a + b + n1 + " " + n2 + c + d


def _streets(rng: np.random.Generator, count: int) -> np.ndarray:
    names = random_codes(rng, count, "ST", 40_000)
    return names + " " + pick(rng, count, _STREET_SUFFIX)


def ukpp_file(
    num_rows: int = DEFAULT_ROWS,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    codec: str = DEFAULT_CODEC,
    page_values: int = 500,
    seed: int = 13,
) -> tuple[bytes, Table]:
    """Generate the price-paid table and serialise it to PAX bytes."""
    table = ukpp_table(num_rows, seed)
    return (
        write_table(
            table, row_group_rows=row_group_rows, codec=codec, page_values=page_values
        ),
        table,
    )
