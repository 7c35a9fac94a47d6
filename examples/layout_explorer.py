"""Layout explorer: compare stripe-construction strategies on real files.

For each generated dataset, runs three placement strategies — FAC
(Algorithm 1), the Padding approach (Adams et al.), and conventional
fixed-block striping — and prints their storage overhead, runtime, and
how many chunks the fixed layout splits.  The exact ILP oracle does not
finish at these chunk counts; the overhead is measured against
``data x n/k``, a bound that the optimum cannot beat either.

Run with::

    python examples/layout_explorer.py
"""

from repro.bench.report import print_table
from repro.core import (
    ChunkItem,
    build_fixed_layout,
    construct_padding_layout,
    construct_stripes,
    fraction_of_chunks_split,
)
from repro.ec import RS_9_6
from repro.format import PaxFile
from repro.workloads import lineitem_file, recipe_file, taxi_file, ukpp_file

DATASETS = {
    "tpc-h lineitem": lineitem_file,
    "taxi": taxi_file,
    "recipeNLG": recipe_file,
    "uk pp": ukpp_file,
}

#: Block size for the block-aligned strategies, as a fraction of the file.
BLOCK_FRACTION = 0.01

rows = []
for name, generator in DATASETS.items():
    data, _table = generator()
    meta = PaxFile(data).metadata
    chunks = meta.all_chunks()
    items = [ChunkItem(key=c.key, size=c.size) for c in chunks]
    block_size = max(1, int(len(data) * BLOCK_FRACTION))

    fac = construct_stripes(RS_9_6, items)
    padding = construct_padding_layout(RS_9_6, items, block_size)

    fixed = build_fixed_layout(RS_9_6, len(data), block_size)
    split_pct = (
        fraction_of_chunks_split(fixed, [(c.offset, c.size) for c in chunks]) * 100
    )

    for label, layout in (("fac", fac), ("padding", padding)):
        rows.append(
            [
                name,
                label,
                len(chunks),
                f"{layout.overhead_vs_optimal * 100:.2f}%",
                f"{layout.build_seconds * 1000:.2f} ms",
                "0% (never splits)",
            ]
        )
    fixed_overhead = (fixed.stored_bytes - len(data) * 1.5) / (len(data) * 1.5)
    rows.append(
        [
            name,
            "fixed blocks",
            len(chunks),
            f"{fixed_overhead * 100:.2f}%",
            "-",
            f"{split_pct:.0f}% of chunks split",
        ]
    )

print_table(
    "Stripe construction strategies under RS(9,6)",
    ["dataset", "strategy", "chunks", "overhead vs optimal", "layout runtime", "chunk splits"],
    rows,
)
print(
    "FAC keeps chunks whole at near-optimal storage cost; padding pays tens of\n"
    "percent extra storage; fixed blocks are storage-optimal but split chunks\n"
    "across nodes, defeating pushdown."
)
