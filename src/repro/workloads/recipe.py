"""recipeNLG-like dataset generator.

A text-heavy 7-column table (recipes with long directions/ingredients
strings).  Its Parquet profile — a handful of very large, hard-to-compress
text chunks — is the case where the Padding strategy's overhead explodes
(83.8% in the paper's Figure 16b).
"""

from __future__ import annotations

import numpy as np

from repro.format.compression import DEFAULT_CODEC
from repro.format.schema import ColumnType
from repro.format.table import Table
from repro.format.writer import write_table
from repro.workloads.text import pick, random_sentences

DEFAULT_ROWS = 6_000
DEFAULT_ROW_GROUP_ROWS = 500  # paper: 12 row groups x 7 columns = 84 chunks

_SOURCES = ["Gathered", "Recipes1M", "CookPad", "AllRecipes"]


def recipe_table(num_rows: int = DEFAULT_ROWS, seed: int = 11) -> Table:
    """Generate the 7-column recipes table."""
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "id": (ColumnType.INT64, np.arange(num_rows)),
            "title": (ColumnType.STRING, random_sentences(rng, num_rows, 2, 6)),
            "ingredients": (ColumnType.STRING, random_sentences(rng, num_rows, 20, 60)),
            "directions": (ColumnType.STRING, random_sentences(rng, num_rows, 60, 160)),
            "link": (
                ColumnType.STRING,
                _links(rng, num_rows),
            ),
            "source": (ColumnType.STRING, pick(rng, num_rows, _SOURCES)),
            "ner": (ColumnType.STRING, random_sentences(rng, num_rows, 5, 15)),
        }
    )


def _links(rng: np.random.Generator, count: int) -> np.ndarray:
    ids = rng.integers(0, 10**9, size=count).tolist()
    return np.array([f"www.recipes.example/{v:09x}" for v in ids], dtype=object)


def recipe_file(
    num_rows: int = DEFAULT_ROWS,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    codec: str = DEFAULT_CODEC,
    page_values: int = 500,
    seed: int = 11,
) -> tuple[bytes, Table]:
    """Generate the recipes table and serialise it to PAX bytes."""
    table = recipe_table(num_rows, seed)
    return (
        write_table(
            table, row_group_rows=row_group_rows, codec=codec, page_values=page_values
        ),
        table,
    )
