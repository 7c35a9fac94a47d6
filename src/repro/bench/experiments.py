"""One function per paper table/figure.

Every experiment returns an :class:`ExperimentResult` whose rows mirror
the series the paper plots.  Absolute latencies come from the simulated
cluster, so the *shape* (who wins, by what factor, where crossovers fall)
is the reproduction target, not the paper's absolute numbers — see
EXPERIMENTS.md for the side-by-side.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import (
    PAPER_DATASET_BYTES,
    Comparison,
    build_pair,
    build_system,
    run_workload,
)
from repro.bench.report import format_table
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.cluster.metrics import QueryMetrics, percentile
from repro.cluster.network import NetworkConfig
from repro.cluster.simcore import Simulator
from repro.core.baseline_store import BaselineStore
from repro.core.config import StoreConfig
from repro.core.repair import RepairManager
from repro.core.store import FusionStore
from repro.core.wal import (
    DELETE_CRASH_POINTS,
    PUT_CRASH_POINTS,
    CoordinatorCrash,
)
from repro.core.cost_model import PushdownMode
from repro.core.fac import construct_stripes
from repro.core.fixed import build_fixed_layout, fraction_of_chunks_split
from repro.core.oracle import construct_oracle_layout
from repro.core.padding import construct_padding_layout
from repro.ec.reed_solomon import RS_9_6, RS_14_10
from repro.format.reader import PaxFile
from repro.sql.local import execute_local
from repro.workloads import (
    LINEITEM_CHUNK_MB,
    MB,
    TAXI_CHUNK_MB,
    column_name,
    items_from_sizes,
    lineitem_file,
    microbenchmark_query,
    paper_scale_chunk_ranges,
    real_world_queries,
    recipe_file,
    taxi_file,
    ukpp_file,
    zipf_chunk_sizes,
)


@dataclass
class ExperimentResult:
    """Printable rows for one reproduced table/figure."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    raw: dict = field(default_factory=dict)

    def render(self) -> str:
        text = format_table(f"[{self.experiment}] {self.title}", self.headers, self.rows)
        if self.notes:
            text += f"\nnote: {self.notes}"
        return text

    def show(self) -> None:
        print(self.render())
        print()

    def to_dict(self) -> dict:
        """JSON-safe form (headers/rows/notes; raw objects are dropped)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    def save_json(self, path: str) -> None:
        """Write the result rows as JSON (for downstream plotting)."""
        import json

        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, default=str)


# ---------------------------------------------------------------------------
# Shared dataset plumbing
# ---------------------------------------------------------------------------

DATASET_GENERATORS = {
    "lineitem": lineitem_file,
    "taxi": taxi_file,
    "recipe": recipe_file,
    "ukpp": ukpp_file,
}


@functools.lru_cache(maxsize=None)
def dataset(name: str):
    """Generate (and cache) one dataset: ``(file_bytes, table)``."""
    return DATASET_GENERATORS[name]()


def dataset_scale(name: str) -> float:
    """Simulation scale mapping the generated file to its paper size."""
    data, _table = dataset(name)
    return PAPER_DATASET_BYTES[name] / len(data)


def store_config(name: str, **overrides) -> StoreConfig:
    """Paper-default store config with the dataset's scale factor."""
    return StoreConfig(size_scale=dataset_scale(name), **overrides)


@functools.lru_cache(maxsize=None)
def _lineitem_pair(mode: str = "adaptive"):
    data, _table = dataset("lineitem")
    cfg = store_config("lineitem", pushdown_mode=PushdownMode(mode))
    return build_pair({"lineitem": data}, store_config=cfg)


def _realworld_system(kind: str, **overrides):
    """A fresh system holding lineitem and taxi.  One shared scale: the
    paper stores both datasets in the same cluster."""
    ldata, _lt = dataset("lineitem")
    tdata, _tt = dataset("taxi")
    cfg = StoreConfig(size_scale=dataset_scale("lineitem"), **overrides)
    return build_system(kind, {"lineitem": ldata, "taxi": tdata}, store_config=cfg)


@functools.lru_cache(maxsize=None)
def _realworld_pair():
    return _realworld_system("fusion"), _realworld_system("baseline")


def _realworld_sqls(*names: str) -> list[str]:
    """The SQL of the named real-world queries (Q1-Q4), in order."""
    _ldata, ltable = dataset("lineitem")
    _tdata, ttable = dataset("taxi")
    queries = {q.name: q for q in real_world_queries(ltable, ttable)}
    return [queries[name].sql for name in names]


def _micro_sql(column_id: int, selectivity: float = 0.01) -> str:
    _data, table = dataset("lineitem")
    return microbenchmark_query(table, column_name(column_id), selectivity)


# ---------------------------------------------------------------------------
# Tables 3 and 4
# ---------------------------------------------------------------------------


def table3_datasets() -> ExperimentResult:
    """Table 3: dataset descriptions."""
    rows = []
    for name in DATASET_GENERATORS:
        data, table = dataset(name)
        meta = PaxFile(data).metadata
        rows.append(
            [
                name,
                len(meta.schema),
                len(meta.all_chunks()),
                round(len(data) / MB, 2),
                round(PAPER_DATASET_BYTES[name] / 1e9, 2),
            ]
        )
    return ExperimentResult(
        experiment="table3",
        title="Datasets (generated, scaled to paper sizes in simulation)",
        headers=["dataset", "columns", "chunks", "generated MB", "simulated GB"],
        rows=rows,
        notes="paper: lineitem 16/160/10GB, taxi 20/320/8.4GB, "
        "recipeNLG 7/84/0.98GB, uk pp 16/240/1.5GB",
    )


def table4_queries() -> ExperimentResult:
    """Table 4: real-world query descriptors with measured selectivity."""
    _l, ltable = dataset("lineitem")
    _t, ttable = dataset("taxi")
    rows = []
    for q in real_world_queries(ltable, ttable):
        table = ltable if q.dataset == "tpch" else ttable
        sel = execute_local(q.sql, table).selectivity
        rows.append(
            [
                q.name,
                q.dataset,
                q.num_filters,
                q.num_projections,
                f"{q.target_selectivity * 100:.1f}%",
                f"{sel * 100:.1f}%",
            ]
        )
    return ExperimentResult(
        experiment="table4",
        title="Real-world SQL queries",
        headers=["query", "dataset", "filters", "projections", "paper sel", "measured sel"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 4: motivation
# ---------------------------------------------------------------------------


def fig4a_chunk_splits(
    block_sizes_mb: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0),
) -> ExperimentResult:
    """Fig 4a: % of column chunks split vs erasure-code block size."""
    profiles = {
        "tpc-h lineitem": paper_scale_chunk_ranges(LINEITEM_CHUNK_MB, num_row_groups=10),
        "taxi": paper_scale_chunk_ranges(TAXI_CHUNK_MB, num_row_groups=16),
    }
    rows = []
    raw: dict = {}
    for label, ranges in profiles.items():
        total = ranges[-1][0] + ranges[-1][1]
        series = []
        for mb in block_sizes_mb:
            layout = build_fixed_layout(RS_9_6, total, int(mb * MB))
            pct = fraction_of_chunks_split(layout, ranges) * 100
            series.append(pct)
            rows.append([label, f"{mb}MB", round(pct, 1)])
        raw[label] = dict(zip(block_sizes_mb, series))
    return ExperimentResult(
        experiment="fig4a",
        title="% of column chunks split under fixed-block RS(9,6)",
        headers=["dataset", "block size", "chunks split (%)"],
        rows=rows,
        notes="paper reports up to 40% (lineitem) / 24% (taxi) at 100MB blocks",
        raw=raw,
    )


def fig4b_baseline_breakdown(num_queries: int = 30) -> ExperimentResult:
    """Fig 4b: latency breakdown of the baseline on the microbenchmark."""
    data, _table = dataset("lineitem")
    baseline = build_system("baseline", {"lineitem": data}, store_config=store_config("lineitem"))
    stats = run_workload(baseline, [_micro_sql(5)], num_clients=10, num_queries=num_queries)
    frac = stats.mean_breakdown()
    rows = [[cat, round(share * 100, 1)] for cat, share in frac.items()]
    return ExperimentResult(
        experiment="fig4b",
        title="Baseline latency breakdown, 1%-selectivity query on lineitem",
        headers=["component", "share of accounted time (%)"],
        rows=rows,
        notes="paper: ~50% of time in network reassembly, small disk share",
        raw={"fractions": frac, "p50": stats.p50()},
    )


def fig4c_chunk_cdf(points: tuple[int, ...] = (10, 25, 50, 75, 90, 99)) -> ExperimentResult:
    """Fig 4c: CDF of normalised column chunk sizes per dataset."""
    rows = []
    raw: dict = {}
    for name in DATASET_GENERATORS:
        data, _table = dataset(name)
        sizes = np.array([c.size for c in PaxFile(data).metadata.all_chunks()], dtype=float)
        norm = sizes / sizes.max() * 100  # % of the largest chunk
        percentiles = {p: float(np.percentile(norm, p)) for p in points}
        raw[name] = percentiles
        rows.append([name] + [round(percentiles[p], 1) for p in points])
    return ExperimentResult(
        experiment="fig4c",
        title="Normalised chunk size (% of max) at each percentile",
        headers=["dataset"] + [f"p{p}" for p in points],
        rows=rows,
        notes="lineitem is bimodal (tiny + huge chunks); taxi is more uniform",
        raw=raw,
    )


def fig4d_padding_overhead() -> ExperimentResult:
    """Fig 4d: storage overhead of the Padding strategy vs optimal."""
    rows = []
    raw: dict = {}
    for name in DATASET_GENERATORS:
        data, _table = dataset(name)
        meta = PaxFile(data).metadata
        items = [
            _layout_item(c) for c in meta.all_chunks()
        ]
        scale = dataset_scale(name)
        block = max(1, int(round(100 * MB / scale)))
        for params in (RS_9_6, RS_14_10):
            layout = construct_padding_layout(params, items, block)
            pct = layout.overhead_vs_optimal * 100
            rows.append([name, str(params), round(pct, 1)])
            raw[(name, str(params))] = pct
    return ExperimentResult(
        experiment="fig4d",
        title="Padding strategy storage overhead w.r.t. optimal (%)",
        headers=["dataset", "code", "overhead (%)"],
        rows=rows,
        notes="paper reports up to >100% for some datasets",
        raw=raw,
    )


def _layout_item(chunk_meta):
    from repro.core.layout import ChunkItem

    return ChunkItem(key=chunk_meta.key, size=chunk_meta.size)


# ---------------------------------------------------------------------------
# Figure 6: compression ratios
# ---------------------------------------------------------------------------


def fig6_compression() -> ExperimentResult:
    """Fig 6: average compression ratio per lineitem column."""
    data, _table = dataset("lineitem")
    meta = PaxFile(data).metadata
    rows = []
    ratios = []
    for cid in range(16):
        chunks = meta.chunks_for_column(column_name(cid))
        ratio = sum(c.compressibility for c in chunks) / len(chunks)
        ratios.append(ratio)
        rows.append([cid, column_name(cid), round(ratio, 1)])
    med = float(np.median(ratios))
    return ExperimentResult(
        experiment="fig6",
        title="Average compression ratio per lineitem column",
        headers=["column id", "column", "compression ratio"],
        rows=rows,
        notes=f"median {med:.1f}, max {max(ratios):.1f} (paper: 9.3 / 63.5)",
        raw={"ratios": ratios},
    )


# ---------------------------------------------------------------------------
# Figure 10: oracle runtime and pushdown trade-off
# ---------------------------------------------------------------------------


def fig10a_oracle_runtime(chunk_counts: tuple[int, ...] = (6, 10, 14, 18)) -> ExperimentResult:
    """Fig 10a: ILP solve time explodes with chunk count.

    Every solve runs to a proved optimum.  FAC runs on the same chunks
    beside it, so each row also reads FAC's objective gap to the optimum.
    """
    rows = []
    raw: dict = {}
    for n in chunk_counts:
        items = items_from_sizes(zipf_chunk_sizes(n, 0.0, seed=n))
        oracle = construct_oracle_layout(RS_9_6, items)
        fac = construct_stripes(RS_9_6, items)
        gap_pct = (fac.objective / oracle.objective - 1) * 100
        raw[n] = {
            "oracle_s": oracle.build_seconds,
            "oracle_objective": oracle.objective,
            "fac_s": fac.build_seconds,
            "fac_objective": fac.objective,
        }
        rows.append(
            [
                n,
                round(oracle.build_seconds, 3),
                round(fac.build_seconds * 1e6),
                round(oracle.objective / MB, 1),
                round(fac.objective / MB, 1),
                round(gap_pct, 1),
            ]
        )
    return ExperimentResult(
        experiment="fig10a",
        title="Oracle (ILP) runtime vs number of chunks, FAC beside it",
        headers=[
            "chunks",
            "ILP solve (s)",
            "FAC build (us)",
            "ILP objective (MB)",
            "FAC objective (MB)",
            "FAC gap to optimum (%)",
        ],
        rows=rows,
        notes="objective = sum over stripes of the largest bin (Equation 1); "
        "paper: >3 hours at 35 chunks with Gurobi; growth is the point",
        raw=raw,
    )


def fig10b_tradeoff(
    column_ids: tuple[int, ...] = (5, 0, 4, 7),
    selectivities: tuple[float, ...] = (0.01, 0.1, 0.25, 0.5, 0.75, 1.0),
    num_queries: int = 20,
) -> ExperimentResult:
    """Fig 10b: p50 improvement of always-pushdown Fusion vs baseline.

    Cells go negative where selectivity x compressibility > 1 — the region
    the adaptive cost model avoids.
    """
    fusion, baseline = _lineitem_pair("always")
    rows = []
    raw: dict = {}
    for cid in column_ids:
        row = [f"c{cid} ({column_name(cid)})"]
        for sel in selectivities:
            sql = _micro_sql(cid, sel)
            f = run_workload(fusion, [sql], num_clients=10, num_queries=num_queries)
            b = run_workload(baseline, [sql], num_clients=10, num_queries=num_queries)
            comp = Comparison(label=f"c{cid}@{sel}", fusion=f, baseline=b)
            row.append(round(comp.p50_reduction, 1))
            raw[(cid, sel)] = comp.p50_reduction
        rows.append(row)
    return ExperimentResult(
        experiment="fig10b",
        title="p50 latency improvement (%) with pushdown ALWAYS on",
        headers=["column"] + [f"sel={s:g}" for s in selectivities],
        rows=rows,
        notes="negative cells = pushdown hurts (high selectivity x compressibility)",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Figure 12: chunk spread in the baseline
# ---------------------------------------------------------------------------


def fig12_nodes_per_chunk() -> ExperimentResult:
    """Fig 12: average number of nodes a chunk spans in the baseline."""
    data, _table = dataset("lineitem")
    baseline = build_system("baseline", {"lineitem": data}, store_config=store_config("lineitem"))
    obj = baseline.store.objects["lineitem"]
    scale = dataset_scale("lineitem")
    rows = []
    raw: dict = {}
    for cid in range(16):
        name = column_name(cid)
        node_counts = []
        sizes = []
        for chunk in obj.metadata.chunks_for_column(name):
            fragments = obj.layout.locate(chunk.offset, chunk.size)
            nodes = {obj.data_block_nodes[f.block_index] for f in fragments}
            node_counts.append(len(nodes))
            sizes.append(chunk.size * scale / MB)
        avg_nodes = sum(node_counts) / len(node_counts)
        avg_mb = sum(sizes) / len(sizes)
        raw[cid] = (avg_nodes, avg_mb)
        rows.append([cid, name, round(avg_nodes, 2), round(avg_mb, 1)])
    return ExperimentResult(
        experiment="fig12",
        title="Baseline: avg nodes per column chunk (and avg chunk size)",
        headers=["column id", "column", "avg nodes", "avg chunk MB (simulated)"],
        rows=rows,
        notes="large chunks span many nodes; Fusion always stores chunks on one node",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Figure 13: column sweep and breakdowns
# ---------------------------------------------------------------------------


def fig13ab_column_sweep(num_queries: int = 60) -> ExperimentResult:
    """Fig 13a/b: p50 and p99 latency reduction per lineitem column."""
    fusion, baseline = _lineitem_pair()
    rows = []
    raw: dict = {}
    for cid in range(16):
        sql = _micro_sql(cid)
        f = run_workload(fusion, [sql], num_clients=10, num_queries=num_queries)
        b = run_workload(baseline, [sql], num_clients=10, num_queries=num_queries)
        comp = Comparison(label=f"c{cid}", fusion=f, baseline=b)
        raw[cid] = comp
        rows.append(
            [
                cid,
                column_name(cid),
                round(comp.p50_reduction, 1),
                round(comp.p99_reduction, 1),
            ]
        )
    return ExperimentResult(
        experiment="fig13ab",
        title="Latency reduction per column, 1%-selectivity microbenchmark",
        headers=["column id", "column", "p50 reduction (%)", "p99 reduction (%)"],
        rows=rows,
        notes="paper: up to 65%/81% on big split-prone columns (0,1,2,5,15); "
        "modest on small compressed columns (3,4,9,10,11)",
        raw=raw,
    )


def fig13cd_breakdown(
    column_ids: tuple[int, ...] = (5, 9), num_queries: int = 30
) -> ExperimentResult:
    """Fig 13c/d: latency breakdown of Fusion vs baseline per column."""
    fusion, baseline = _lineitem_pair()
    rows = []
    raw: dict = {}
    for cid in column_ids:
        sql = _micro_sql(cid)
        for system in (baseline, fusion):
            stats = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
            frac = stats.mean_breakdown()
            raw[(cid, system.name)] = frac
            rows.append(
                [
                    f"c{cid}",
                    system.name,
                    round(frac["disk"] * 100, 1),
                    round(frac["processing"] * 100, 1),
                    round(frac["network"] * 100, 1),
                ]
            )
    return ExperimentResult(
        experiment="fig13cd",
        title="Latency breakdown (% of accounted time)",
        headers=["column", "system", "disk", "processing", "network"],
        rows=rows,
        notes="paper: baseline spends ~57% on network for column 5; "
        "both systems <3% network for column 9",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Figure 14: selectivity, bandwidth, CPU
# ---------------------------------------------------------------------------


def fig14ab_selectivity_sweep(
    column_ids: tuple[int, ...] = (5, 9),
    selectivities: tuple[float, ...] = (0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.75, 1.0),
    num_queries: int = 30,
) -> ExperimentResult:
    """Fig 14a/b: latency reduction vs query selectivity."""
    fusion, baseline = _lineitem_pair()
    rows = []
    raw: dict = {}
    for cid in column_ids:
        for sel in selectivities:
            sql = _micro_sql(cid, sel)
            f = run_workload(fusion, [sql], num_clients=10, num_queries=num_queries)
            b = run_workload(baseline, [sql], num_clients=10, num_queries=num_queries)
            comp = Comparison(label=f"c{cid}@{sel}", fusion=f, baseline=b)
            raw[(cid, sel)] = comp
            rows.append(
                [
                    f"c{cid}",
                    f"{sel * 100:g}%",
                    round(comp.p50_reduction, 1),
                    round(comp.p99_reduction, 1),
                ]
            )
    return ExperimentResult(
        experiment="fig14ab",
        title="Latency reduction vs query selectivity",
        headers=["column", "selectivity", "p50 reduction (%)", "p99 reduction (%)"],
        rows=rows,
        notes="gains shrink as selectivity grows; at >=75% Fusion falls back to "
        "fetching compressed chunks but keeps filter pushdown",
        raw=raw,
    )


def fig14c_bandwidth_sweep(
    gbps_values: tuple[float, ...] = (10, 25, 50, 100),
    column_id: int = 5,
    num_queries: int = 30,
) -> ExperimentResult:
    """Fig 14c: latency reduction vs network bandwidth."""
    data, _table = dataset("lineitem")
    rows = []
    raw: dict = {}
    sql = _micro_sql(column_id)
    for gbps in gbps_values:
        cluster_cfg = ClusterConfig(network=NetworkConfig(bandwidth_bps=gbps * 1e9 / 8))
        cfg = store_config("lineitem")
        fusion, baseline = build_pair({"lineitem": data}, cluster_cfg, cfg)
        f = run_workload(fusion, [sql], num_clients=10, num_queries=num_queries)
        b = run_workload(baseline, [sql], num_clients=10, num_queries=num_queries)
        comp = Comparison(label=f"{gbps}Gbps", fusion=f, baseline=b)
        raw[gbps] = comp
        rows.append(
            [f"{gbps:g} Gbps", round(comp.p50_reduction, 1), round(comp.p99_reduction, 1)]
        )
    return ExperimentResult(
        experiment="fig14c",
        title=f"Latency reduction vs network bandwidth (column {column_id})",
        headers=["bandwidth", "p50 reduction (%)", "p99 reduction (%)"],
        rows=rows,
        notes="slower networks amplify Fusion's advantage",
        raw=raw,
    )


def fig14d_cpu_utilization(
    column_ids: tuple[int, ...] = (0, 5, 9, 15),
    num_queries: int = 40,
) -> ExperimentResult:
    """Fig 14d: CPU cost at a fixed delivered load.

    Reported as busy CPU core-seconds per query — the load-normalised
    form of the paper's utilisation-at-10qps plot (per-query cost times
    query rate gives utilisation, and per-query cost is what the two
    systems actually differ in).
    """
    data, _table = dataset("lineitem")
    rows = []
    raw: dict = {}
    for cid in column_ids:
        sql = _micro_sql(cid)
        cfg = store_config("lineitem")
        fusion, baseline = build_pair({"lineitem": data}, store_config=cfg)
        f = run_workload(fusion, [sql], num_clients=10, num_queries=num_queries)
        b = run_workload(baseline, [sql], num_clients=10, num_queries=num_queries)
        raw[cid] = (f.cpu_seconds_per_query, b.cpu_seconds_per_query)
        rows.append(
            [
                f"c{cid}",
                round(f.cpu_seconds_per_query, 3),
                round(b.cpu_seconds_per_query, 3),
            ]
        )
    return ExperimentResult(
        experiment="fig14d",
        title="CPU core-seconds per query (fixed delivered load)",
        headers=["column", "fusion", "baseline"],
        rows=rows,
        notes="same computation, but Fusion moves less data so burns less CPU "
        "on network processing",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Figure 15: real-world queries
# ---------------------------------------------------------------------------


def fig15a_realworld(num_queries: int = 40) -> ExperimentResult:
    """Fig 15a: latency reduction on Q1-Q4."""
    fusion, baseline = _realworld_pair()
    _l, ltable = dataset("lineitem")
    _t, ttable = dataset("taxi")
    rows = []
    raw: dict = {}
    for q in real_world_queries(ltable, ttable):
        f = run_workload(fusion, [q.sql], num_clients=10, num_queries=num_queries)
        b = run_workload(baseline, [q.sql], num_clients=10, num_queries=num_queries)
        comp = Comparison(label=q.name, fusion=f, baseline=b)
        raw[q.name] = comp
        rows.append([q.name, round(comp.p50_reduction, 1), round(comp.p99_reduction, 1)])
    return ExperimentResult(
        experiment="fig15a",
        title="Real-world queries: latency reduction (%)",
        headers=["query", "p50 reduction (%)", "p99 reduction (%)"],
        rows=rows,
        notes="paper: up to 48% median / 40% tail on TPC-H; up to 32%/48% on taxi",
        raw=raw,
    )


def fig15b_traffic(num_queries: int = 40) -> ExperimentResult:
    """Fig 15b: total network traffic, baseline / Fusion."""
    fusion, baseline = _realworld_pair()
    _l, ltable = dataset("lineitem")
    _t, ttable = dataset("taxi")
    rows = []
    raw: dict = {}
    for q in real_world_queries(ltable, ttable):
        f = run_workload(fusion, [q.sql], num_clients=10, num_queries=num_queries)
        b = run_workload(baseline, [q.sql], num_clients=10, num_queries=num_queries)
        comp = Comparison(label=q.name, fusion=f, baseline=b)
        raw[q.name] = comp
        rows.append(
            [
                q.name,
                round(f.network_bytes / 1e9, 2),
                round(b.network_bytes / 1e9, 2),
                round(comp.traffic_ratio, 1),
            ]
        )
    return ExperimentResult(
        experiment="fig15b",
        title="Network traffic per workload (simulated GB)",
        headers=["query", "fusion GB", "baseline GB", "baseline/fusion"],
        rows=rows,
        notes="paper: Fusion generates up to 8.9x lower traffic",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Figure 16: FAC overheads
# ---------------------------------------------------------------------------


def fig16a_fac_overhead(
    chunk_counts: tuple[int, ...] = (50, 100, 200, 500, 1000),
    skews: tuple[float, ...] = (0.0, 0.5, 0.99),
    runs: int = 20,
) -> ExperimentResult:
    """Fig 16a: FAC storage overhead vs chunk count, by size skew."""
    rows = []
    raw: dict = {}
    for skew in skews:
        for n in chunk_counts:
            overheads = []
            for r in range(runs):
                sizes = zipf_chunk_sizes(n, skew, seed=1000 * r + n)
                layout = construct_stripes(RS_9_6, items_from_sizes(sizes))
                overheads.append(layout.overhead_vs_optimal * 100)
            avg = sum(overheads) / len(overheads)
            raw[(skew, n)] = avg
            rows.append([f"zipf {skew:g}", n, round(avg, 2)])
    return ExperimentResult(
        experiment="fig16a",
        title=f"FAC storage overhead w.r.t. optimal (%), avg of {runs} runs",
        headers=["distribution", "chunks", "overhead (%)"],
        rows=rows,
        notes="paper: ~3% at 100 chunks, 0.8% at 500, ->0 beyond; skew barely matters",
        raw=raw,
    )


def fig16bc_strategy_compare() -> ExperimentResult:
    """Fig 16b/c: storage and runtime overhead of padding vs FAC.

    The ILP does not run here: at 84-320 chunks it does not finish (Fig
    10a).  The overhead column is measured against ``data x n/k``, a bound
    that no layout, the optimum included, can beat, so it needs no solver.
    """
    rows = []
    raw: dict = {}
    for name in DATASET_GENERATORS:
        data, _table = dataset(name)
        meta = PaxFile(data).metadata
        items = [_layout_item(c) for c in meta.all_chunks()]
        scale = dataset_scale(name)
        block = max(1, int(round(100 * MB / scale)))

        # Simulated put time for the runtime-overhead denominator.
        put_seconds = _simulated_put_seconds(name, data)

        fac = construct_stripes(RS_9_6, items)
        pad = construct_padding_layout(RS_9_6, items, block)
        for label, layout in (("fac", fac), ("padding", pad)):
            overhead_pct = layout.overhead_vs_optimal * 100
            runtime_pct = layout.build_seconds / put_seconds * 100
            raw[(name, label)] = (overhead_pct, layout.build_seconds, runtime_pct)
            rows.append(
                [
                    name,
                    label,
                    round(overhead_pct, 2),
                    round(layout.build_seconds, 4),
                    f"{runtime_pct:.4f}",
                ]
            )
    return ExperimentResult(
        experiment="fig16bc",
        title="Stripe-construction strategies: storage overhead and runtime",
        headers=["dataset", "strategy", "overhead vs optimal (%)", "runtime (s)", "runtime / put (%)"],
        rows=rows,
        notes="overhead is stored bytes against data x n/k, a bound the optimum "
        "cannot beat, so no ILP runs (Fig 10a runs it where it finishes). paper: FAC "
        "<= 1.24% overhead and <= 0.0027% runtime; padding up to 83.8% overhead; "
        "oracle optimal but up to 3.91x the put latency",
        raw=raw,
    )


def _simulated_put_seconds(name: str, data: bytes) -> float:
    """Put latency of the object on an idle baseline cluster (the paper's
    runtime-overhead denominator: FAC runtime vs total put time)."""
    system = build_system("baseline", {}, store_config=store_config(name))
    report = system.store.put(name, data)
    return report.simulated_put_seconds


# ---------------------------------------------------------------------------
# Ablations and extensions (beyond the paper's figures)
# ---------------------------------------------------------------------------


def ablation_cost_model(num_queries: int = 30) -> ExperimentResult:
    """Adaptive vs always-push vs never-push on a favourable and an
    unfavourable column (design-choice ablation from DESIGN.md)."""
    data, _table = dataset("lineitem")
    rows = []
    raw: dict = {}
    for cid, sel in ((5, 0.01), (4, 0.75)):
        sql = _micro_sql(cid, sel)
        for mode in ("adaptive", "always", "never"):
            cfg = store_config("lineitem", pushdown_mode=PushdownMode(mode))
            system = build_system("fusion", {"lineitem": data}, store_config=cfg)
            stats = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
            raw[(cid, sel, mode)] = stats.p50()
            rows.append([f"c{cid}@{sel:g}", mode, round(stats.p50() * 1000, 2)])
    return ExperimentResult(
        experiment="ablation-cost-model",
        title="Pushdown policy ablation (p50 latency, ms)",
        headers=["workload", "policy", "p50 (ms)"],
        rows=rows,
        notes="adaptive should track the better of always/never in both regimes",
        raw=raw,
    )


def ablation_contention(num_queries: int = 40) -> ExperimentResult:
    """1 vs 10 concurrent clients: queueing produces the p99 tail."""
    data, _table = dataset("lineitem")
    sql = _micro_sql(5)
    rows = []
    raw: dict = {}
    for clients in (1, 10):
        cfg = store_config("lineitem")
        fusion, baseline = build_pair({"lineitem": data}, store_config=cfg)
        f = run_workload(fusion, [sql], num_clients=clients, num_queries=num_queries)
        b = run_workload(baseline, [sql], num_clients=clients, num_queries=num_queries)
        raw[clients] = (f, b)
        rows.append(
            [
                clients,
                round(f.p50() * 1000, 2),
                round(f.p99() * 1000, 2),
                round(b.p50() * 1000, 2),
                round(b.p99() * 1000, 2),
            ]
        )
    return ExperimentResult(
        experiment="ablation-contention",
        title="Client concurrency vs latency (ms)",
        headers=["clients", "fusion p50", "fusion p99", "baseline p50", "baseline p99"],
        rows=rows,
        notes="tail inflation under 10 clients comes from FIFO resource queueing",
        raw=raw,
    )


def ablation_fac_policy(runs: int = 20) -> ExperimentResult:
    """Least-occupied vs first-fit bin choice in Algorithm 1."""
    from repro.core.fac import construct_stripes_first_fit

    rows = []
    raw: dict = {}
    for n in (100, 500):
        for skew in (0.0, 0.99):
            lo, ff = [], []
            for r in range(runs):
                sizes = zipf_chunk_sizes(n, skew, seed=77 * r + n)
                items = items_from_sizes(sizes)
                lo.append(construct_stripes(RS_9_6, items).overhead_vs_optimal * 100)
                ff.append(construct_stripes_first_fit(RS_9_6, items).overhead_vs_optimal * 100)
            raw[(n, skew)] = (sum(lo) / runs, sum(ff) / runs)
            rows.append(
                [n, f"zipf {skew:g}", round(sum(lo) / runs, 3), round(sum(ff) / runs, 3)]
            )
    return ExperimentResult(
        experiment="ablation-fac-policy",
        title="FAC bin-choice policy: storage overhead (%)",
        headers=["chunks", "distribution", "least-occupied", "first-fit"],
        rows=rows,
        raw=raw,
    )


def ext_aggregate_pushdown(num_queries: int = 30) -> ExperimentResult:
    """Extension bench: aggregate pushdown (the paper's future work)."""
    _t, ttable = dataset("taxi")
    tdata, _tt = dataset("taxi")
    sql = "SELECT count(date), avg(fare) FROM taxi WHERE date < '2015-12-31'"
    rows = []
    raw: dict = {}
    for label, enabled in (("coordinator aggregates", False), ("aggregate pushdown", True)):
        cfg = store_config("taxi", enable_aggregate_pushdown=enabled)
        system = build_system("fusion", {"taxi": tdata}, store_config=cfg)
        stats = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
        raw[label] = stats
        rows.append(
            [
                label,
                round(stats.p50() * 1000, 2),
                round(stats.p99() * 1000, 2),
                round(stats.network_bytes / 1e9, 3),
            ]
        )
    return ExperimentResult(
        experiment="ext-aggregate-pushdown",
        title="Aggregate pushdown extension (taxi count/avg query)",
        headers=["mode", "p50 (ms)", "p99 (ms)", "network GB"],
        rows=rows,
        notes="implements the paper's stated future work behind a config flag",
        raw=raw,
    )


def ext_degraded_reads(num_queries: int = 30) -> ExperimentResult:
    """Extension bench: query latency healthy vs degraded vs recovered.

    Fails one storage node and keeps querying: chunks on the dead node are
    reconstructed on the fly from k surviving stripe blocks (expensive),
    until the repair pass (``RepairManager.repair_node``) rebuilds them
    elsewhere.
    """
    data, _table = dataset("lineitem")
    sql = _micro_sql(5)
    system = build_system("fusion", {"lineitem": data}, store_config=store_config("lineitem"))
    rows = []
    raw: dict = {}

    healthy = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
    raw["healthy"] = healthy
    rows.append(["healthy", round(healthy.p50() * 1000, 1), round(healthy.p99() * 1000, 1)])

    # Fail a node that actually holds chunks of the queried column.
    obj = system.store.objects["lineitem"]
    col = column_name(5)
    victim = next(
        obj.location_map.lookup(meta.key).node_id
        for meta in obj.metadata.all_chunks()
        if meta.column == col
    )
    system.cluster.fail_node(victim)
    degraded = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
    raw["degraded"] = degraded
    rows.append(
        ["degraded (1 node down)", round(degraded.p50() * 1000, 1), round(degraded.p99() * 1000, 1)]
    )

    RepairManager(system.store).repair_node(victim)
    recovered = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
    raw["recovered"] = recovered
    rows.append(
        ["after recovery", round(recovered.p50() * 1000, 1), round(recovered.p99() * 1000, 1)]
    )
    return ExperimentResult(
        experiment="ext-degraded-reads",
        title="Degraded reads: latency under node failure (column 5, ms)",
        headers=["state", "p50 (ms)", "p99 (ms)"],
        rows=rows,
        notes="degraded reads reconstruct chunks from k stripe blocks on the fly",
        raw=raw,
    )


def ext_grouped_query(num_queries: int = 30) -> ExperimentResult:
    """Extension bench: the paper's Q4 exactly as written (GROUP BY date)."""
    from repro.workloads.queries import q4_grouped_sql

    tdata, ttable = dataset("taxi")
    cfg = store_config("taxi")
    fusion, baseline = build_pair({"taxi": tdata}, store_config=cfg)
    sql = q4_grouped_sql()
    expected = execute_local(sql, ttable)  # FROM name is not schema-checked locally
    f = run_workload(fusion, [sql], num_clients=10, num_queries=num_queries)
    b = run_workload(baseline, [sql], num_clients=10, num_queries=num_queries)
    comp = Comparison(label="Q4-grouped", fusion=f, baseline=b)
    rows = [
        ["fusion", round(f.p50() * 1000, 1), round(f.p99() * 1000, 1)],
        ["baseline", round(b.p50() * 1000, 1), round(b.p99() * 1000, 1)],
        ["reduction (%)", round(comp.p50_reduction, 1), round(comp.p99_reduction, 1)],
    ]
    return ExperimentResult(
        experiment="ext-grouped-query",
        title="Q4 with GROUP BY date (average fare per day)",
        headers=["system", "p50 (ms)", "p99 (ms)"],
        rows=rows,
        notes=f"groups returned: {expected.rows.num_rows}",
        raw={"comparison": comp, "groups": expected.rows.num_rows},
    )



def ablation_page_skipping(num_queries: int = 30) -> ExperimentResult:
    """Node-local page skipping on vs off, on a page-prunable filter.

    ``l_orderkey`` is sorted, so within a chunk most pages cannot match a
    narrow range filter; page stats let the node decode only the
    candidate pages.
    """
    data, _table = dataset("lineitem")
    sql = _micro_sql(0, 0.05)
    rows = []
    raw: dict = {}
    for label, enabled in (("page skipping on", True), ("page skipping off", False)):
        cfg = store_config("lineitem", enable_page_skipping=enabled)
        system = build_system("fusion", {"lineitem": data}, store_config=cfg)
        stats = run_workload(system, [sql], num_clients=10, num_queries=num_queries)
        raw[enabled] = stats
        rows.append([label, round(stats.p50() * 1000, 1), round(stats.p99() * 1000, 1)])
    return ExperimentResult(
        experiment="ablation-page-skipping",
        title="Node-local page skipping (sorted-column range filter, ms)",
        headers=["mode", "p50 (ms)", "p99 (ms)"],
        rows=rows,
        notes="stats are conservative: results identical, decode cost drops",
        raw=raw,
    )


def put_latency(datasets_to_run: tuple[str, ...] = ("lineitem", "taxi")) -> ExperimentResult:
    """Put latency: Fusion (FAC) vs baseline (fixed blocks).

    The paper reports ~34 s to upload an 11 GB file; the claim to preserve
    is that FAC adds negligible Put cost over fixed-block striping.
    """
    rows = []
    raw: dict = {}
    for name in datasets_to_run:
        data, _table = dataset(name)
        cfg = store_config(name)
        fusion = build_system("fusion", {}, store_config=cfg)
        baseline = build_system("baseline", {}, store_config=cfg)
        f_report = fusion.store.put(name, data)
        b_report = baseline.store.put(name, data)
        raw[name] = (f_report, b_report)
        rows.append(
            [
                name,
                round(f_report.simulated_put_seconds, 2),
                round(b_report.simulated_put_seconds, 2),
                f"{f_report.layout_build_seconds * 1e6:.0f} us",
                f_report.strategy,
            ]
        )
    return ExperimentResult(
        experiment="put-latency",
        title="Put latency (simulated seconds)",
        headers=["dataset", "fusion put (s)", "baseline put (s)", "FAC runtime", "strategy"],
        rows=rows,
        notes="paper: 34 s for an 11 GB upload; FAC itself costs microseconds",
        raw=raw,
    )


def recovery_time() -> ExperimentResult:
    """Node-recovery duration: Fusion vs baseline (same RS repair math)."""
    rows = []
    raw: dict = {}
    data, _table = dataset("lineitem")
    for kind in ("fusion", "baseline"):
        system = build_system(kind, {"lineitem": data}, store_config=store_config("lineitem"))
        victim = next(n.node_id for n in system.cluster.nodes if n.stored_bytes)
        for bid in list(system.cluster.node(victim)._blocks):
            system.cluster.node(victim).drop_block(bid)
        start = system.sim.now
        rebuilt = RepairManager(system.store).repair_node(victim).blocks_repaired
        elapsed = system.sim.now - start
        raw[kind] = (rebuilt, elapsed)
        rows.append([kind, rebuilt, round(elapsed, 2)])
    return ExperimentResult(
        experiment="recovery-time",
        title="Single-node recovery (simulated seconds)",
        headers=["system", "blocks rebuilt", "recovery time (s)"],
        rows=rows,
        notes="Fusion uses conventional RS repair (paper Section 5): the "
        "repair pass rebuilds in rounds, one gather exchange per node and "
        "one decode charge per coordinator",
        raw=raw,
    )


def mixed_workload(num_queries: int = 60) -> ExperimentResult:
    """All four real-world queries interleaved over two objects at once.

    Stresses what the per-query figures cannot: coordinator spread across
    objects and cross-query resource contention.
    """
    fusion, baseline = _realworld_pair()
    _l, ltable = dataset("lineitem")
    _t, ttable = dataset("taxi")
    sqls = [q.sql for q in real_world_queries(ltable, ttable)]
    f = run_workload(fusion, sqls, num_clients=10, num_queries=num_queries)
    b = run_workload(baseline, sqls, num_clients=10, num_queries=num_queries)
    comp = Comparison(label="mixed", fusion=f, baseline=b)
    rows = [
        ["fusion", round(f.p50() * 1000, 1), round(f.p99() * 1000, 1), round(f.network_bytes / 1e9, 1)],
        ["baseline", round(b.p50() * 1000, 1), round(b.p99() * 1000, 1), round(b.network_bytes / 1e9, 1)],
        ["reduction / ratio", round(comp.p50_reduction, 1), round(comp.p99_reduction, 1), round(comp.traffic_ratio, 1)],
    ]
    return ExperimentResult(
        experiment="mixed-workload",
        title="Interleaved Q1-Q4 over lineitem + taxi (10 clients)",
        headers=["system", "p50 (ms)", "p99 (ms)", "network GB"],
        rows=rows,
        raw={"comparison": comp},
    )


#: The fault-tolerance plane crashes its victim this far into the
#: fault-free run's simulated time.
CRASH_FRACTION = 0.3


def _workload_summary(stats) -> dict:
    """The per-run numbers a chaos plane reports."""
    return {
        "mean_latency_s": stats.mean_latency(),
        "p50_latency_s": stats.p50(),
        "p99_latency_s": stats.p99(),
        "network_bytes": stats.network_bytes,
        "num_queries": len(stats.metrics),
        "retries": sum(qm.retries for qm in stats.metrics),
        "timeouts": sum(qm.timeouts for qm in stats.metrics),
        "degraded_reads": sum(qm.degraded_reads for qm in stats.metrics),
    }


def _same_results(a, b) -> bool:
    """Two runs answered every query identically, in the same order."""
    return len(a.results) == len(b.results) and all(
        x.equals(y) for x, y in zip(a.results, b.results)
    )


def _placements_all_in(store, alive: set[int]) -> bool:
    """Every stored block and every location-map entry is on a live node.

    A fixed stripe's never-written trailing blocks have no home (None);
    a location map that agrees with its stripe records (no dangling
    entry) points only where the blocks are.
    """
    return all(
        all(nid is None or nid in alive for p in obj.stripes for nid in p.node_ids)
        and not obj.dangling_locations()
        for obj in store.objects.values()
    )


def _repair_and_verify(system, victim: int, sqls: list[str]) -> dict:
    """Repair the crashed node's blocks, then prove the damage is gone:
    clean scrub, live placements, and post-repair answers equal to the
    local SQL oracle without a degraded read."""
    store = system.store
    report = RepairManager(store).repair_node(victim)
    scrub_clean = all(
        store.verify_object(name).clean for name in ("lineitem", "taxi")
    )
    placements_alive = _placements_all_in(store, set(system.cluster.alive_nodes()))
    degraded_after = 0
    match = True
    for sql, name in zip(sqls, ("lineitem", "taxi")):
        qm = QueryMetrics()
        proc = system.sim.process(store.query_process(sql, qm))
        system.sim.run()
        degraded_after += qm.degraded_reads
        match = match and proc.value.equals(execute_local(sql, dataset(name)[1]))
    return {
        "repair_bytes": report.repair_bytes,
        "blocks_repaired": report.blocks_repaired,
        "stripes_repaired": report.stripes_repaired,
        "time_to_repair_s": report.time_to_repair,
        "cluster_repair_bytes": system.cluster.metrics.repair_bytes,
        "scrub_clean_after_repair": scrub_clean,
        "placements_all_on_live_nodes": placements_alive,
        "post_repair_degraded_reads": degraded_after,
        "post_repair_results_match_oracle": match,
    }


def chaos_fault_tolerance(num_queries: int = 40, seed: int = 7) -> ExperimentResult:
    """Mid-workload flaky link and node crash, degraded service, repair.

    For each store: run the interleaved Q1+Q3 workload (10 clients)
    fault-free to calibrate, then re-run it on a fresh system whose
    :class:`FaultInjector` drops 25% of a data-holding node's messages
    from 6% to 24% of the calibrated run (timeouts and retries) and
    crashes the node at 30% (degraded reads).  Every query must still
    complete.  Completion order under 10 clients differs between runs,
    so bit-identity is checked on a sequential pair (1 client, 8
    queries) with the crash scaled to its run.  Afterwards the
    :class:`RepairManager` rebuilds the dead node's blocks onto live
    nodes; see :func:`_repair_and_verify` for what must then hold.
    """
    sqls = _realworld_sqls("Q1", "Q3")

    def run(kind: str, crash_after_s: float | None, clients: int, queries: int):
        system = _realworld_system(kind)
        victim = None
        if crash_after_s is not None:
            victim = next(n.node_id for n in system.cluster.nodes if n.stored_bytes)
            now = system.sim.now
            schedule = [
                FaultEvent(
                    at=now + 0.2 * crash_after_s,
                    kind="drop",
                    node_id=victim,
                    duration=0.6 * crash_after_s,
                    rate=0.25,
                ),
                FaultEvent(at=now + crash_after_s, kind="crash", node_id=victim),
            ]
            FaultInjector(system.cluster, schedule, seed=seed).install()
        stats = run_workload(system, sqls, num_clients=clients, num_queries=queries)
        return stats, system, victim

    rows = []
    raw: dict = {}
    for kind in ("fusion", "baseline"):
        nofault, _system, _victim = run(kind, None, 10, num_queries)
        crash_after = CRASH_FRACTION * nofault.wall_seconds
        faulted, system, victim = run(kind, crash_after, 10, num_queries)
        seq_ref, _system, _victim = run(kind, None, 1, 8)
        seq_fault, _system, _victim = run(
            kind, CRASH_FRACTION * seq_ref.wall_seconds, 1, 8
        )
        repair = _repair_and_verify(system, victim, sqls)
        raw[kind] = {
            "no_fault": _workload_summary(nofault),
            "faulted": _workload_summary(faulted),
            "availability": len(faulted.metrics) / num_queries,
            "crash_node": victim,
            "crash_after_s": crash_after,
            "results_identical_to_no_fault": _same_results(seq_ref, seq_fault),
            "p99_penalty_pct": reduction_pct_neg(nofault.p99(), faulted.p99()),
            "repair": repair,
        }
        faulted_summary = raw[kind]["faulted"]
        rows.append(
            [
                kind,
                f"{len(faulted.metrics)}/{num_queries}",
                round(raw[kind]["p99_penalty_pct"], 1),
                faulted_summary["degraded_reads"],
                faulted_summary["retries"],
                faulted_summary["timeouts"],
                repair["blocks_repaired"],
                round(repair["time_to_repair_s"], 2),
                "yes" if repair["scrub_clean_after_repair"] else "NO",
            ]
        )
    return ExperimentResult(
        experiment="chaos",
        title="Mid-workload drop window + node crash, then repair (Q1+Q3, 10 clients)",
        headers=[
            "system",
            "completed",
            "p99 penalty (%)",
            "degraded reads",
            "retries",
            "timeouts",
            "blocks repaired",
            "repair time (s)",
            "scrub clean",
        ],
        rows=rows,
        notes="availability must stay 1.0: every query answered via retry or "
        "degraded read; repair traffic is accounted outside query totals",
        raw=raw,
    )


def metadata_chaos(rounds: int = 10, seed: int = 11) -> ExperimentResult:
    """Seeded random Put/Delete interleavings with WAL crash points.

    Each round builds a fresh cluster, runs a seeded random sequence of
    Puts and Deletes, and kills the coordinator at a randomly chosen WAL
    crash point partway through.  Recovery then replays the log, fsck
    must come back clean, and every surviving object must Get
    byte-identical data.  Reported per store: crash/recovery counts,
    mean recovery wall time, orphan blocks/bytes garbage-collected, and
    whether every round ended consistent.
    """
    import random as _random

    data, _table = lineitem_file(num_rows=600, row_group_rows=150)

    def build(kind):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=9))
        FaultInjector(cluster, [], seed=seed).install()
        cls = FusionStore if kind == "fusion" else BaselineStore
        cfg = StoreConfig(
            size_scale=100.0, storage_overhead_threshold=0.1, block_size=500_000
        )
        return cls(cluster, cfg)

    rows = []
    raw: dict = {}
    for kind in ("fusion", "baseline"):
        crashes = 0
        clean_rounds = 0
        gets_ok = True
        lost = 0
        recovery_s: list[float] = []
        gc_blocks = 0
        gc_bytes = 0
        for r in range(rounds):
            rng = _random.Random(seed * 1000 + r)
            store = build(kind)
            cluster = store.cluster
            live: dict[str, bytes] = {}
            n_ops = rng.randint(3, 6)
            crash_op = rng.randrange(n_ops)
            counter = 0
            for op_idx in range(n_ops):
                do_delete = bool(live) and rng.random() < 0.4
                if op_idx == crash_op:
                    points = DELETE_CRASH_POINTS if do_delete else PUT_CRASH_POINTS
                    cluster.faults.arm_crash_point(rng.choice(points))
                try:
                    if do_delete:
                        name = rng.choice(sorted(live))
                        store.delete(name)
                        del live[name]
                    else:
                        name = f"obj-{r}-{counter}"
                        counter += 1
                        store.put(name, data)
                        live[name] = data
                except CoordinatorCrash:
                    crashes += 1
                    if do_delete:
                        live.pop(name, None)  # a logged delete is durable
                    break
            recovery = store.recover()
            report = store.fsck()
            recovery_s.append(recovery.wall_seconds)
            gc_blocks += recovery.orphan_blocks_gcd
            gc_bytes += recovery.orphan_bytes_gcd
            lost += len(recovery.lost_objects)
            live.update({n: data for n in recovery.rolled_forward})
            for n in recovery.rolled_back:
                live.pop(n, None)
            if report.clean:
                clean_rounds += 1
            for name, expect in live.items():
                if bytes(store.get(name)) != expect:
                    gets_ok = False
        mean_recovery_ms = (
            sum(recovery_s) / len(recovery_s) * 1000.0 if recovery_s else 0.0
        )
        raw[kind] = {
            "rounds": rounds,
            "crashes": crashes,
            "clean_rounds": clean_rounds,
            "gets_identical": gets_ok,
            "lost_objects": lost,
            "mean_recovery_ms": mean_recovery_ms,
            "orphan_blocks_gcd": gc_blocks,
            "orphan_bytes_gcd": gc_bytes,
        }
        rows.append(
            [
                kind,
                f"{crashes}/{rounds}",
                f"{clean_rounds}/{rounds}",
                "yes" if gets_ok else "NO",
                lost,
                round(mean_recovery_ms, 2),
                gc_blocks,
                gc_bytes,
            ]
        )
    return ExperimentResult(
        experiment="metadata-chaos",
        title="Random Put/Delete with coordinator crashes at WAL points",
        headers=[
            "system",
            "crashed rounds",
            "fsck clean",
            "gets identical",
            "lost objects",
            "mean recovery (ms)",
            "orphan blocks GC'd",
            "orphan bytes GC'd",
        ],
        rows=rows,
        notes="every round must end fsck-clean with zero lost objects; "
        "recovery rolls committed puts forward and uncommitted work back",
        raw=raw,
    )


#: Convergence is dominated by the bytes moved, so the membership
#: plane's ceiling is this multiple of the serial single-link transfer
#: time of the migrated volume, plus one churn-free workload for
#: scheduling slack.
CONVERGENCE_BOUND = 5.0


def membership_chaos(num_queries: int = 40, seed: int = 13) -> ExperimentResult:
    """Mid-workload node join + drain with background rebalance.

    For each store (membership on): calibrate the interleaved Q1+Q3
    workload (10 clients) churn-free, then re-run it on a fresh system
    whose :class:`FaultInjector` joins a new node ~25% in and drains a
    data-holding node ~45% in, while a background driver runs
    :class:`~repro.core.rebalance.Rebalancer` passes until placement
    converges.  Every query must complete, with answers bit-identical to
    a churn-free run (checked on a sequential 1-client, 8-query pair
    with the churn scaled to its run); placement must converge to the
    ring within :data:`CONVERGENCE_BOUND`, the drained node must end
    empty (then removable), fsck must come back clean, and rebalance
    traffic must be accounted apart from query and repair traffic.
    """
    from repro.core.fsck import fsck as run_fsck
    from repro.core.rebalance import Rebalancer

    sqls = _realworld_sqls("Q1", "Q3")
    join_fraction, drain_fraction = 0.25, 0.45

    def run(kind: str, churn_after_s: float | None, clients: int, queries: int):
        system = _realworld_system(kind, membership_enabled=True)
        rb = Rebalancer(system.store)
        victim = drain_at = None
        if churn_after_s is not None:
            cluster = system.cluster
            victim = next(n.node_id for n in cluster.nodes if n.stored_bytes)
            now = system.sim.now
            join_at = now + join_fraction / drain_fraction * churn_after_s
            drain_at = now + churn_after_s
            FaultInjector(
                cluster,
                [
                    FaultEvent(at=join_at, kind="join", node_id=-1),
                    FaultEvent(at=drain_at, kind="drain", node_id=victim),
                ],
                seed=seed,
            ).install()
            churn_end = drain_at + 0.1 * churn_after_s
            interval = max(churn_after_s / 10.0, 1e-3)

            def driver():
                # Ride along with the workload, sweeping after each epoch
                # bump; then finish the convergence after churn has ended.
                while system.sim.now < churn_end:
                    yield system.sim.timeout(interval)
                    if rb.misplaced() or cluster.migrations:
                        yield from rb.rebalance_process()
                for _ in range(50):  # bounded: one pass normally suffices
                    if rb.converged():
                        break
                    yield from rb.rebalance_process()
                    yield system.sim.timeout(interval)

            system.sim.process(driver())
        stats = run_workload(system, sqls, num_clients=clients, num_queries=queries)
        return stats, system, rb, victim, drain_at

    rows = []
    raw: dict = {}
    for kind in ("fusion", "baseline"):
        churn_free, *_ = run(kind, None, 10, num_queries)
        churn_after = drain_fraction * churn_free.wall_seconds
        churned, system, rb, victim, drain_at = run(kind, churn_after, 10, num_queries)
        convergence_s = max(0.0, system.sim.now - drain_at)
        seq_ref, *_ = run(kind, None, 1, 8)
        seq_churn, *_ = run(kind, drain_fraction * seq_ref.wall_seconds, 1, 8)

        cluster = system.cluster
        metrics = cluster.metrics
        converged = rb.converged()
        drained_empty = not any(cluster.node(victim).block_ids())
        if converged and drained_empty:
            cluster.remove_node(victim)
        fsck_report = run_fsck(system.store)
        transfer_floor = metrics.rebalance_bytes / cluster.config.network.bandwidth_bps
        bound_s = CONVERGENCE_BOUND * transfer_floor + churn_free.wall_seconds
        raw[kind] = {
            "churn_free": _workload_summary(churn_free),
            "churned": _workload_summary(churned),
            "availability": len(churned.metrics) / num_queries,
            "drained_node": victim,
            "drain_after_s": churn_after,
            "results_identical_to_churn_free": _same_results(seq_ref, seq_churn),
            "p99_penalty_pct": reduction_pct_neg(churn_free.p99(), churned.p99()),
            "rebalance": {
                "rebalance_bytes": metrics.rebalance_bytes,
                "blocks_migrated": metrics.blocks_migrated,
                "repair_bytes": metrics.repair_bytes,
                "convergence_s": convergence_s,
                "convergence_bound_s": bound_s,
                "convergence_bounded": convergence_s <= bound_s,
                "ring_converged": converged,
                "drained_node_empty": drained_empty,
                "fsck_clean_after_remove": fsck_report.clean,
                "pending_migrations": len(fsck_report.pending_migrations),
            },
        }
        rows.append(
            [
                kind,
                f"{len(churned.metrics)}/{num_queries}",
                round(raw[kind]["p99_penalty_pct"], 1),
                metrics.blocks_migrated,
                metrics.rebalance_bytes,
                metrics.repair_bytes,
                round(convergence_s, 2),
                "yes" if converged else "NO",
                "clean" if fsck_report.clean else fsck_report.summary(),
            ]
        )
    return ExperimentResult(
        experiment="membership-chaos",
        title="Mid-workload join + drain with background rebalance (Q1+Q3, 10 clients)",
        headers=[
            "system",
            "completed",
            "p99 penalty (%)",
            "blocks migrated",
            "rebalance bytes",
            "repair bytes",
            "convergence (s)",
            "ring-converged",
            "fsck",
        ],
        rows=rows,
        notes="every query must complete; placement must converge to the ring "
        "with the drained node emptied and removed; rebalance traffic is "
        "accounted separately from query and repair traffic",
        raw=raw,
    )


def reduction_pct_neg(before: float, after: float) -> float:
    """Latency *increase* of ``after`` over ``before`` (%): the penalty."""
    if before == 0:
        return 0.0
    return (after - before) / before * 100.0


def _max_queue_depth(cluster) -> int:
    """Deepest admission queue across every node service loop right now."""
    depth = 0
    for node in cluster.nodes:
        for resource in (
            node.cpu,
            node.disk.device,
            node.endpoint.egress,
            node.endpoint.ingress,
        ):
            depth = max(depth, resource.queue_length)
    return depth


def _overload_storm(system, sqls, rate_qps: float, duration_s: float) -> dict:
    """Open-loop arrivals at ``rate_qps`` for ``duration_s``, each query
    catching the typed protection failures (anything else would escape
    ``sim.run`` — an *uncontrolled* failure that aborts the experiment).

    Returns arrival records ``(arrival_time, latency, outcome)`` with
    outcome in {"ok", "partial", "controlled"}, plus sampled queue
    depths over the arrival window.
    """
    from repro.cluster.overload import DeadlineExceeded, PartialResult
    from repro.cluster.simcore import QueueFull
    from repro.core.scatter_gather import RemoteOpError

    sim = system.sim
    store = system.store
    start = sim.now
    records: list[tuple[float, float, str]] = []
    depth_samples: list[tuple[float, int]] = []

    def one_query(sql: str, arrival: float):
        qm = QueryMetrics()
        try:
            result = yield from store.query_process(sql, qm)
        except (DeadlineExceeded, QueueFull, RemoteOpError):
            records.append((arrival, sim.now - arrival, "controlled"))
        else:
            outcome = "partial" if isinstance(result, PartialResult) else "ok"
            records.append((arrival, sim.now - arrival, outcome))

    def arrival_generator():
        interval = 1.0 / rate_qps
        for i in range(int(rate_qps * duration_s)):
            sim.process(one_query(sqls[i % len(sqls)], sim.now))
            yield sim.timeout(interval)

    def monitor():
        step = duration_s / 50.0
        while sim.now - start < duration_s:
            depth_samples.append((sim.now - start, _max_queue_depth(system.cluster)))
            yield sim.timeout(step)

    sim.process(arrival_generator())
    sim.process(monitor())
    sim.run()

    quarters: list[list[float]] = [[], [], [], []]
    for arrival, latency, _outcome in records:
        q = min(3, int(4 * (arrival - start) / duration_s))
        quarters[q].append(latency)
    counts = {
        key: sum(1 for r in records if r[2] == key)
        for key in ("ok", "partial", "controlled")
    }
    return {
        "records": records,
        "counts": counts,
        "quarter_p99": [percentile(q, 99) if q else 0.0 for q in quarters],
        "depth_samples": depth_samples,
        "max_depth": max((d for _t, d in depth_samples), default=0),
        "duration_s": duration_s,
        "drained_s": sim.now - start,
    }


def overload_protection(
    calibration_queries: int = 40,
    overload_factor: float = 2.5,
    arrivals: int = 120,
) -> ExperimentResult:
    """Closed-loop capacity calibration, then a sustained open-loop storm
    at ``overload_factor`` x capacity — protection off vs on.

    Off (the seed behaviour): nothing fails, but queues and p99 grow
    without bound for as long as the storm lasts.  On (deadline 10x the
    uncontended p99, bounded admission queues, breakers, partial
    results, retry jitter): every refusal is a *typed* failure, queue
    depth stays bounded by the admission knob, successes stay within the
    deadline, and goodput holds at >= 70% of the calibrated capacity.
    """
    sqls = _realworld_sqls("Q1", "Q3")

    rows = []
    raw: dict = {}
    for kind in ("fusion", "baseline"):
        calibrate = run_workload(
            _realworld_system(kind), sqls, num_clients=10, num_queries=calibration_queries
        )
        capacity_qps = len(calibrate.metrics) / calibrate.wall_seconds
        uncontended_p99 = calibrate.p99()
        rate = overload_factor * capacity_qps
        duration = arrivals / rate
        deadline = 10.0 * uncontended_p99

        off = _overload_storm(_realworld_system(kind), sqls, rate, duration)
        protected = _realworld_system(
            kind,
            admission_queue_depth=16,
            breaker_failure_threshold=50,
            breaker_window_s=deadline,
            breaker_reset_s=deadline / 2.0,
            allow_partial_results=True,
            rpc_retry_jitter=0.5,
        )
        # Arm the query deadline only after the (much longer) data load.
        protected.store.config.default_deadline_s = deadline
        on = _overload_storm(protected, sqls, rate, duration)

        answered = on["counts"]["ok"] + on["counts"]["partial"]
        goodput_frac = (answered / duration) / capacity_qps
        on_p99 = percentile(
            [lat for _a, lat, out in on["records"] if out != "controlled"], 99
        )
        raw[kind] = {
            "arrivals": arrivals,
            "capacity_qps": capacity_qps,
            "uncontended_p99": uncontended_p99,
            "deadline_s": deadline,
            "rate_qps": rate,
            "off": off,
            "on": on,
            "goodput_frac": goodput_frac,
            "on_p99": on_p99,
        }
        for mode, run in (("off", off), ("on", on)):
            c = run["counts"]
            rows.append(
                [
                    kind,
                    mode,
                    c["ok"],
                    c["partial"],
                    c["controlled"],
                    round((c["ok"] + c["partial"]) / duration / capacity_qps, 2),
                    [round(p * 1e3, 1) for p in run["quarter_p99"]],
                    run["max_depth"],
                ]
            )
    return ExperimentResult(
        experiment="overload",
        title=f"Open-loop storm at {overload_factor}x capacity: protection off vs on",
        headers=[
            "system",
            "protection",
            "ok",
            "partial",
            "typed failures",
            "goodput/capacity",
            "p99 by quarter (ms)",
            "max queue depth",
        ],
        rows=rows,
        notes="off: p99 grows quarter over quarter and queues are unbounded; "
        "on: failures are typed only, depth <= admission knob, successes "
        "within the deadline, goodput >= 0.7x capacity",
        raw=raw,
    )


def fig16a_wide_code(
    chunk_counts: tuple[int, ...] = (50, 100, 500, 1000),
    runs: int = 15,
) -> ExperimentResult:
    """The RS(14,10) variant of Fig 16a the paper omits for space."""
    rows = []
    raw: dict = {}
    for params in (RS_9_6, RS_14_10):
        for n in chunk_counts:
            overheads = []
            for r in range(runs):
                sizes = zipf_chunk_sizes(n, 0.5, seed=500 * r + n)
                layout = construct_stripes(params, items_from_sizes(sizes))
                overheads.append(layout.overhead_vs_optimal * 100)
            avg = sum(overheads) / len(overheads)
            raw[(str(params), n)] = avg
            rows.append([str(params), n, round(avg, 2)])
    return ExperimentResult(
        experiment="fig16a-wide",
        title="FAC storage overhead, RS(9,6) vs RS(14,10) (zipf 0.5, %)",
        headers=["code", "chunks", "overhead (%)"],
        rows=rows,
        notes="paper: RS(14,10) exhibits a similar pattern (omitted there)",
        raw=raw,
    )


def _qos_storm(
    system,
    sqls,
    duration_s: float,
    open_loop: dict[str, float] | None = None,
    closed_loop: dict[str, int] | None = None,
) -> dict:
    """Drive a multi-tenant mixed workload for ``duration_s``.

    ``open_loop`` maps tenant -> arrival rate (qps): queries arrive on a
    fixed clock regardless of completions (the storm shape).
    ``closed_loop`` maps tenant -> client count: each client issues its
    next query only after the previous one finishes (a well-behaved
    tenant staying within its share).

    Every refusal must be one of the typed protection failures
    (``QuotaExceeded``, ``DeadlineExceeded``, ``QueueFull``,
    ``RemoteOpError``) — anything else escapes ``sim.run`` and aborts
    the experiment as an *uncontrolled* failure.  Returns per-tenant
    issued/ok/controlled counts, goodput, and p99 over successes.
    """
    from repro.cluster.overload import DeadlineExceeded, PartialResult
    from repro.cluster.qos import QuotaExceeded
    from repro.cluster.simcore import QueueFull
    from repro.core.scatter_gather import RemoteOpError

    open_loop = open_loop or {}
    closed_loop = closed_loop or {}
    sim = system.sim
    store = system.store
    start = sim.now
    records: dict[str, list[tuple[float, float, str]]] = {
        tenant: [] for tenant in (*open_loop, *closed_loop)
    }

    def one_query(sql: str, tenant: str, arrival: float):
        qm = QueryMetrics()
        try:
            result = yield from store.query_process(sql, qm, tenant=tenant)
        except (QuotaExceeded, DeadlineExceeded, QueueFull, RemoteOpError):
            records[tenant].append((arrival, sim.now - arrival, "controlled"))
        else:
            outcome = "partial" if isinstance(result, PartialResult) else "ok"
            records[tenant].append((arrival, sim.now - arrival, outcome))

    def storm_arrivals(tenant: str, rate_qps: float):
        interval = 1.0 / rate_qps
        for i in range(int(rate_qps * duration_s)):
            sim.process(one_query(sqls[i % len(sqls)], tenant, sim.now))
            yield sim.timeout(interval)

    def paced_client(tenant: str, cid: int):
        qi = 0
        while sim.now - start < duration_s:
            yield from one_query(sqls[(cid + qi) % len(sqls)], tenant, sim.now)
            qi += 1

    for tenant, rate in open_loop.items():
        sim.process(storm_arrivals(tenant, rate))
    for tenant, clients in closed_loop.items():
        for cid in range(clients):
            sim.process(paced_client(tenant, cid))
    sim.run()

    out: dict = {"duration_s": duration_s, "drained_s": sim.now - start}
    for tenant, recs in records.items():
        oks = [lat for _a, lat, outcome in recs if outcome != "controlled"]
        out[tenant] = {
            "issued": len(recs),
            "ok": len(oks),
            "controlled": len(recs) - len(oks),
            "p99": percentile(oks, 99) if oks else 0.0,
            "goodput_qps": len(oks) / duration_s,
        }
    return out


def tenant_qos(
    calibration_queries: int = 40,
    storm_factor: float = 2.5,
    arrivals: int = 100,
    victim_clients: int = 4,
) -> ExperimentResult:
    """Noisy-neighbour isolation under the per-tenant QoS layer.

    Calibrates closed-loop capacity per system, then runs three
    QoS-enabled scenarios: tenant B alone (the isolated yardstick),
    tenant A storming open-loop at ``storm_factor`` x capacity while B
    stays closed-loop within its share, and a symmetric pair of
    equal-weight closed-loop tenants.

    Acceptance (checked by ``python -m repro.bench bench qos``): in the storm,
    B's p99 stays under the deadline and its goodput holds at >= 80% of
    the isolated run while A absorbs *all* typed refusals; the symmetric
    tenants' goodputs agree within 10%.
    """
    sqls = _realworld_sqls("Q1", "Q3")

    rows = []
    raw: dict = {}
    for kind in ("fusion", "baseline"):
        calibrate = run_workload(
            _realworld_system(kind), sqls, num_clients=10, num_queries=calibration_queries
        )
        capacity_qps = len(calibrate.metrics) / calibrate.wall_seconds
        uncontended_p99 = calibrate.p99()
        deadline = 10.0 * uncontended_p99
        storm_rate = storm_factor * capacity_qps
        duration = arrivals / storm_rate

        def qos_build(**extra):
            base = dict(
                tenant_weights={"A": 1.0, "B": 1.0},
                admission_queue_depth=16,
                rpc_retry_jitter=0.5,
            )
            base.update(extra)
            system = _realworld_system(kind, **base)
            # Arm the query deadline only after the (much longer) data load.
            system.store.config.default_deadline_s = deadline
            return system

        # The operator's policy for the storm scenarios: A is a bulk
        # tenant capped by quota at 20% of calibrated capacity (the
        # 2.5x storm is mostly refused at the door — cheaply, before it
        # can occupy queue slots B needs) and B carries 4x A's DRR
        # weight, so B's isolated-run goodput survives the storm.
        policy = dict(
            tenant_requests_per_s={"A": 0.2 * capacity_qps},
            tenant_weights={"A": 1.0, "B": 4.0},
        )
        isolated = _qos_storm(
            qos_build(**policy),
            sqls,
            duration,
            closed_loop={"B": victim_clients},
        )
        storm_sys = qos_build(**policy)
        storm = _qos_storm(
            storm_sys,
            sqls,
            duration,
            open_loop={"A": storm_rate},
            closed_loop={"B": victim_clients},
        )
        symmetric = _qos_storm(
            qos_build(),
            sqls,
            duration,
            closed_loop={"A": victim_clients, "B": victim_clients},
        )
        sym_a = symmetric["A"]["goodput_qps"]
        sym_b = symmetric["B"]["goodput_qps"]
        sym_ratio = min(sym_a, sym_b) / max(sym_a, sym_b) if max(sym_a, sym_b) else 0.0

        raw[kind] = {
            "arrivals": arrivals,
            "capacity_qps": capacity_qps,
            "uncontended_p99": uncontended_p99,
            "deadline_s": deadline,
            "storm_rate_qps": storm_rate,
            "isolated": isolated,
            "storm": storm,
            "symmetric": symmetric,
            "symmetric_ratio": sym_ratio,
            "tenants": storm_sys.cluster.metrics.tenants and {
                t: {k: v for k, v in d.items() if k != "latencies"}
                for t, d in storm_sys.cluster.metrics.tenants.items()
            },
            "qos_stats": storm_sys.cluster.qos.stats,
        }
        for scenario, run in (("isolated", isolated), ("storm", storm), ("symmetric", symmetric)):
            for tenant in ("A", "B"):
                if tenant not in run:
                    continue
                t = run[tenant]
                rows.append(
                    [
                        kind,
                        scenario,
                        tenant,
                        t["issued"],
                        t["ok"],
                        t["controlled"],
                        round(t["goodput_qps"], 1),
                        round(t["p99"] * 1e3, 1),
                    ]
                )
    return ExperimentResult(
        experiment="qos",
        title=f"Two-tenant QoS: open-loop storm at {storm_factor}x capacity vs a paced tenant",
        headers=[
            "system",
            "scenario",
            "tenant",
            "issued",
            "ok",
            "typed refusals",
            "goodput (qps)",
            "p99 (ms)",
        ],
        rows=rows,
        notes="storm: B's p99 stays under the deadline and its goodput holds "
        "at >= 0.8x its isolated run; A absorbs every typed refusal; "
        "equal-weight symmetric tenants agree within 10%",
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Acceptance-only scenarios (``python -m repro.bench bench <plane>``)
# ---------------------------------------------------------------------------


def _max_holder_epoch(cluster, name: str, holders) -> int:
    epochs = [
        replica.epoch
        for nid in holders
        if (replica := cluster.node(nid).get_meta(name)) is not None
    ]
    return max(epochs, default=-1)


def partition_tolerance(
    gray_factor: float = 400.0,
    greylist_factor: float = 3.0,
    seed: int = 7,
    num_objects: int = 8,
) -> ExperimentResult:
    """Gray failure, then a majority/minority partition, against Fusion.

    *Gray tail*: the Q1+Q3 workload (16 warm-up queries feed the latency
    EWMAs, then 40 measured) with one fail-slow node at ``gray_factor``
    x disk and NIC service time that never times out, greylist
    detection on vs off, plus sequential 1-client pairs for result
    identity.  *Partition*: 9 nodes, RS(5,3), 3 metadata replicas, one
    object's coordinator stranded in a 2-node minority and a fail-slow
    node on the majority side.  Majority-side Gets, one republish per
    object (quorum or the typed ``QuorumLost``), then heal: ``recover()``,
    read-repair and fsck.
    """
    from repro.core.wal import QuorumLost
    from repro.ec.reed_solomon import CodeParams

    sqls = _realworld_sqls("Q1", "Q3")

    def gray_run(factor: float, fail_slow: bool, clients=10, queries=40, warmup=16):
        # op_timeout_s is raised so the fail-slow node *answers* every op:
        # a gray failure never trips the timeout-based failure detector,
        # which isolates what latency detection buys.
        system = _realworld_system(
            "fusion", op_timeout_s=10.0, greylist_latency_factor=factor
        )
        victim = None
        if fail_slow:
            # Persistent: applied directly (a timer-healed fault would be
            # undone by run-to-quiescence between phases).
            victim = next(n.node_id for n in system.cluster.nodes if n.stored_bytes)
            node = system.cluster.node(victim)
            node.disk.gray_factor = gray_factor
            node.endpoint.gray_factor = gray_factor
        if warmup:
            run_workload(system, sqls, num_clients=clients, num_queries=warmup)
        stats = run_workload(system, sqls, num_clients=clients, num_queries=queries)
        return stats, system, victim

    healthy, _system, _victim = gray_run(greylist_factor, fail_slow=False)
    detected, sys_on, victim = gray_run(greylist_factor, fail_slow=True)
    undetected, _system, _victim = gray_run(0.0, fail_slow=True)
    seq = [
        gray_run(factor, fail_slow, clients=1, queries=8, warmup=0)[0]
        for factor, fail_slow in (
            (greylist_factor, False),
            (greylist_factor, True),
            (0.0, True),
        )
    ]
    health = sys_on.cluster.health
    gray = {
        "victim": victim,
        "victim_greylisted": health.is_greylisted(victim),
        "greylist_events": sum(
            1 for nid in range(sys_on.cluster.num_nodes) if health.is_greylisted(nid)
        ),
        "healthy_p99_s": healthy.p99(),
        "detection_on_p99_s": detected.p99(),
        "detection_off_p99_s": undetected.p99(),
        "p99_ratio_detection_on": detected.p99() / healthy.p99(),
        "p99_ratio_detection_off": undetected.p99() / healthy.p99(),
        "detection_on_degraded_reads": sum(qm.degraded_reads for qm in detected.metrics),
        "wrong_reads": sum(
            0 if a.equals(b) else 1
            for run in seq[1:]
            for a, b in zip(seq[0].results, run.results)
        ),
        "gray_factor": gray_factor,
    }

    num_nodes = 9
    data, _table = dataset("ukpp")
    names = [f"obj{i:02d}" for i in range(num_objects)]
    system = build_system(
        "fusion",
        {name: data for name in names},
        cluster_config=ClusterConfig(num_nodes=num_nodes),
        store_config=StoreConfig(
            size_scale=dataset_scale("ukpp"),
            code=CodeParams(n=5, k=3),
            metadata_replicas=3,
            op_timeout_s=0.2,
            greylist_latency_factor=greylist_factor,
        ),
    )
    store, cluster, sim = system.store, system.cluster, system.sim

    # Deterministic minority: obj00's coordinator plus one node holding
    # none of its metadata replicas, so at most one of that object's
    # three holders is reachable from its coordinator and at least one
    # republish is bound to lose quorum.
    c0 = cluster.coordinator_for(names[0]).node_id
    holders0 = set(store.objects[names[0]].replica_nodes)
    partner = next(
        nid for nid in range(num_nodes) if nid != c0 and nid not in holders0
    )
    minority = sorted({c0, partner})
    majority = [nid for nid in range(num_nodes) if nid not in minority]
    fail_slow_node = majority[0]
    # duration=0: no auto-heal timer, so run-to-quiescence between the
    # Gets below cannot repair the network mid-phase.
    FaultInjector(
        cluster,
        [
            FaultEvent(
                at=sim.now + 1e-6,
                kind="partition",
                node_id=minority[0],
                nodes=tuple(minority),
                duration=0.0,
            )
        ],
        seed=seed,
    ).install()
    sim.run()
    slow = cluster.node(fail_slow_node)
    slow.disk.gray_factor = gray_factor
    slow.endpoint.gray_factor = gray_factor

    # Gets from majority-side coordinators only: a minority-side one
    # cannot reach k shard holders, so its Get fails by construction and
    # would only park half-failed processes; those are counted instead.
    majority_total = majority_ok = minority_skipped = wrong_reads = 0
    for _round in range(2):
        for name in names:
            if cluster.coordinator_for(name).node_id in minority:
                minority_skipped += 1
                continue
            try:
                got = store.get(name)
            except Exception:
                got = None
            ok = got is not None
            if ok and got != data:
                wrong_reads += 1
                ok = False
            majority_total += 1
            majority_ok += ok

    republish_ok = republish_lost = 0
    for name in names:
        try:
            store._republish_meta(store.objects[name])
            republish_ok += 1
        except QuorumLost:
            republish_lost += 1
    split_brain = sum(
        1
        for name in names
        if _max_holder_epoch(cluster, name, store.objects[name].replica_nodes)
        > store.objects[name].meta_epoch
    )
    read_repairs_queued = len(cluster.read_repairs)

    # Heal, converge, drain the anti-entropy queue, and verify.
    cluster.network.links.clear()
    for node in cluster.nodes:
        node.disk.gray_factor = 1.0
        node.endpoint.gray_factor = 1.0
    recovery = store.recover()
    repair = RepairManager(store).repair_read_reported()
    fsck_clean = store.fsck().clean
    post_heal_wrong = sum(1 for name in names if store.get(name) != data)
    converged = all(
        _max_holder_epoch(cluster, name, store.objects[name].replica_nodes)
        == store.objects[name].meta_epoch
        for name in names
    )
    partition = {
        "num_nodes": num_nodes,
        "code": "RS(5,3)",
        "metadata_replicas": 3,
        "minority": minority,
        "fail_slow_node": fail_slow_node,
        "majority_gets": majority_total,
        "majority_get_successes": majority_ok,
        "majority_availability": majority_ok / majority_total,
        "minority_gets_skipped_expected_unavailable": minority_skipped,
        "wrong_reads": wrong_reads + post_heal_wrong,
        "objects": num_objects,
        "republish_succeeded": republish_ok,
        "republish_quorum_lost": republish_lost,
        "quorum_lost_total": cluster.metrics.quorum_lost_total,
        "split_brain_epoch_installs": split_brain,
        "read_repairs_queued_during_partition": read_repairs_queued,
        "read_repair_bytes": cluster.metrics.read_repair_bytes,
        "blocks_read_repaired": cluster.metrics.blocks_read_repaired,
        "read_repair_stripes_repaired": repair.stripes_repaired,
        "meta_replicas_synced_on_recover": recovery.meta_replicas_synced,
        "post_heal_fsck_clean": fsck_clean,
        "post_heal_epochs_converged": converged,
    }
    return ExperimentResult(
        experiment="partition",
        title="Gray failure and a majority/minority partition (Fusion)",
        headers=["measure", "value"],
        rows=[
            ["healthy p99 (ms)", round(gray["healthy_p99_s"] * 1e3, 1)],
            ["p99 / healthy, detection on", round(gray["p99_ratio_detection_on"], 2)],
            ["p99 / healthy, detection off", round(gray["p99_ratio_detection_off"], 2)],
            ["majority Get availability", round(partition["majority_availability"], 2)],
            ["republish ok / QuorumLost", f"{republish_ok} / {republish_lost}"],
            ["split-brain epoch installs", split_brain],
            ["read-repair bytes", partition["read_repair_bytes"]],
            ["wrong reads", gray["wrong_reads"] + partition["wrong_reads"]],
        ],
        notes="detection keeps the gray tail near healthy; every republish "
        "reaches quorum or raises QuorumLost; heal converges and fsck is clean",
        raw={"fusion": {"gray_tail": gray, "partition": partition}},
    )


#: The obs plane's scrape interval; its burn-rate alert must fire within
#: ALERT_WITHIN_INTERVALS of them after the first bad completion.
SCRAPE_INTERVAL_S = 0.25
ALERT_WITHIN_INTERVALS = 2


def obs_chaos(
    queries: int = 60,
    node: int = 0,
    after_put_s: float = 1.0,
    duration_s: float = 6.0,
    slow_factor: float = 4.0,
    storm_rate: float = 3000.0,
    affected_margin: float = 1.25,
    patient_timeout_s: float = 60.0,
) -> ExperimentResult:
    """Full telemetry on a node slowed and stormed mid-workload (Fusion).

    The taxi Q3+Q4 workload (10 clients) with tracing, registry, audit,
    scraper, SLOs and exemplars on.  A calm run calibrates the healthy
    p50 / p99; the chaos run slows node ``node`` by ``slow_factor`` and
    storms it with ``storm_rate`` background reads/s for ``duration_s``,
    starting ``after_put_s`` after the load.  Ops are "patient"
    (``patient_timeout_s``) so they wait out the storm in the queue
    instead of timing out into degraded reads, which keeps the added
    latency where it accrues.  Reports when a "p99 above
    ``affected_margin`` x healthy" burn-rate alert fired relative to the
    first over-threshold completion, the critical-path share of the
    affected queries' added latency spent queueing on the stormed node,
    and whether the p99 exemplar resolves to an exported query span.
    """
    from repro.obs.critpath import CriticalPathAnalyzer
    from repro.obs.slo import SLOEngine, SLObjective

    sqls = _realworld_sqls("Q3", "Q4")
    data, _table = dataset("taxi")

    def build():
        config = store_config(
            "taxi",
            op_timeout_s=patient_timeout_s,
            tracing_enabled=True,
            metrics_registry_enabled=True,
            pushdown_audit_enabled=True,
            scrape_interval_s=SCRAPE_INTERVAL_S,
            slo_enabled=True,
            exemplars_enabled=True,
        )
        return build_system("fusion", {"taxi": data}, store_config=config)

    calm = run_workload(build(), sqls, num_clients=10, num_queries=queries)
    healthy_p50 = calm.p50()
    healthy_p99 = calm.p99()

    system = build()
    sim, cluster = system.sim, system.cluster
    threshold = affected_margin * healthy_p99
    # The acceptance objective, beside the stock ones the store wired up.
    watchdog = SLOEngine(
        cluster.scraper,
        [
            SLObjective(
                name="p99_vs_healthy",
                kind="latency_p99",
                target=0.99,
                threshold=threshold,
                series="repro_query_latency_seconds",
            )
        ],
        registry=cluster.metrics.registry,
        tracer=sim.tracer,
    )
    chaos_at = sim.now + after_put_s
    FaultInjector(
        cluster,
        [
            FaultEvent(
                at=chaos_at, kind="slow", node_id=node,
                duration=duration_s, factor=slow_factor,
            ),
            FaultEvent(
                at=chaos_at, kind="overload", node_id=node,
                duration=duration_s, rate=storm_rate,
            ),
        ],
    ).install()
    chaos = run_workload(system, sqls, num_clients=10, num_queries=queries)

    # Alert latency: from the first over-threshold completion (the
    # earliest instant the engine could know) to the firing.
    bad_ends = sorted(
        qm.end_time
        for qm in chaos.metrics
        if qm.latency > threshold and qm.end_time >= chaos_at
    )
    first_bad = bad_ends[0] if bad_ends else None
    alert = next((a for a in watchdog.alerts if a.slo == "p99_vs_healthy"), None)
    alert_delay = (alert.time - first_bad) if alert and first_bad is not None else None

    affected = [
        s
        for s in sim.tracer.find("query")
        if s.end is not None and s.end >= chaos_at and (s.end - s.start) > threshold
    ]
    agg = CriticalPathAnalyzer(sim.tracer).aggregate(affected)
    added = agg["total_seconds"] - len(affected) * healthy_p50
    storm_wait = agg["queue_wait_by_node"].get(str(node), 0.0)

    exemplar = cluster.metrics.registry.histogram(
        "repro_query_latency_seconds", "End-to-end query latency"
    ).exemplar_for_quantile(0.99)
    exemplar_detail: dict = {}
    if exemplar is not None:
        value, trace_id = exemplar
        span = next((s for s in sim.tracer.spans if s.span_id == trace_id), None)
        exemplar_detail = {
            "value": value,
            "trace_id": trace_id,
            "span_name": span.name if span is not None else None,
            "in_exported_trace": any(
                ev.get("ph") == "B" and ev.get("args", {}).get("span_id") == trace_id
                for ev in sim.tracer.chrome_trace()["traceEvents"]
            ),
        }
    raw = {
        "node": node,
        "slow_factor": slow_factor,
        "storm_rate_rps": storm_rate,
        "healthy_p50_s": healthy_p50,
        "healthy_p99_s": healthy_p99,
        "affected_threshold_s": threshold,
        "chaos_at_s": chaos_at,
        "affected_queries": len(affected),
        "first_bad_completion_s": first_bad,
        "alert_time_s": alert.time if alert else None,
        "alert_delay_s": alert_delay,
        "alert_bound_s": ALERT_WITHIN_INTERVALS * SCRAPE_INTERVAL_S,
        "added_latency_s": added,
        "queue_wait_stormed_node_s": storm_wait,
        "queue_wait_share_of_added": storm_wait / added if added > 0 else 0.0,
        "attribution": {
            "by_category": agg["by_category"],
            "queue_wait_by_node": agg["queue_wait_by_node"],
        },
        "exemplar": exemplar_detail,
        "stock_alerts": [a.to_dict() for a in cluster.slo.alerts],
    }
    return ExperimentResult(
        experiment="obs-chaos",
        title=f"Slow + stormed node {node} under full telemetry (taxi Q3+Q4, Fusion)",
        headers=["measure", "value"],
        rows=[
            ["healthy p99 (ms)", round(healthy_p99 * 1e3, 1)],
            ["affected queries", len(affected)],
            ["alert delay (s)", None if alert_delay is None else round(alert_delay, 3)],
            ["alert bound (s)", raw["alert_bound_s"]],
            ["queue-wait share of added latency", round(raw["queue_wait_share_of_added"], 3)],
            ["p99 exemplar span", exemplar_detail.get("span_name")],
        ],
        notes="the alert fires within two scrape intervals of the first bad "
        "completion; queue-wait on the stormed node explains the added latency",
        raw={"fusion": raw},
    )


def _best_of(fn, reps: int = 3) -> float:
    """Best host wall time of ``reps`` calls, after one warm-up call."""
    fn()  # warm caches, lane tables, codec state
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _speed(nbytes: int, fast, slow, slow_reps: int = 1) -> dict:
    """Host MB/s of a vectorised call and its scalar reference."""
    t_vec = _best_of(fast)
    t_ref = _best_of(slow, reps=slow_reps)
    return {
        "vectorized_mb_s": nbytes / t_vec / 1e6,
        "scalar_mb_s": nbytes / t_ref / 1e6,
        "speedup": t_ref / t_vec,
    }


def dataplane_components() -> ExperimentResult:
    """Host wall time of the vectorised data plane vs its scalar seeds.

    Snappy round-trips over a mixed corpus (runs, periodic data, base64
    text, noise), RLE over run-structured dictionary codes, plain
    strings, and a (9, 6) Reed-Solomon encode plus 1- and 3-loss rebuild
    at 4 MiB shards, each against :mod:`repro.format._reference`.
    Simulated quantities do not depend on which implementation runs
    (``tests/integration/test_dataplane_identity.py``); only host time
    does.
    """
    from repro.ec.reed_solomon import CodeParams, ReedSolomon
    from repro.format import ColumnType, encoding, get_codec
    from repro.format import _reference as ref

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
    vec_codec, scalar_codec = get_codec("snappy"), ref.ScalarSnappyCodec()
    for codec in (vec_codec, scalar_codec):
        for raw_bytes in corpus:
            assert codec.decompress(codec.compress(raw_bytes)) == raw_bytes

    def roundtrip(codec):
        return lambda: [codec.decompress(codec.compress(c)) for c in corpus]

    total = sum(len(c) for c in corpus)
    components: dict = {
        "snappy_roundtrip": {
            "bytes": total,
            **_speed(total, roundtrip(vec_codec), roundtrip(scalar_codec)),
        }
    }

    codes = np.repeat(np.random.default_rng(11).integers(0, 40, 40_000), 25).astype(
        np.int64
    )
    components["rle_roundtrip"] = {
        "values": len(codes),
        **_speed(
            codes.nbytes,
            lambda: encoding.rle_decode(encoding.rle_encode(codes), len(codes)),
            lambda: ref.rle_decode(ref.rle_encode(codes), len(codes)),
        ),
    }

    strings = np.array(
        [f"user-{i % 977:04d}/session/{i:07d}" for i in range(100_000)], dtype=object
    )
    nbytes = len(encoding.encode_plain(ColumnType.STRING, strings))
    components["string_plain_roundtrip"] = {
        "bytes": nbytes,
        **_speed(
            nbytes,
            lambda: encoding.decode_plain(
                ColumnType.STRING,
                encoding.encode_plain(ColumnType.STRING, strings),
                len(strings),
            ),
            lambda: ref.decode_plain_strings(
                ref.encode_plain_strings(strings), len(strings)
            ),
            slow_reps=3,
        ),
    }

    # 4 MiB shards with a (9, 6) code: a multi-megabyte column chunk
    # striped across a rack.  The vectorised coder runs one lane-table
    # matmul per stripe; the reference walks coefficients shard by shard.
    shard = 4 * 1024 * 1024
    params = CodeParams(9, 6)
    rs_rng = np.random.default_rng(13)
    data = [rs_rng.integers(0, 256, shard, dtype=np.uint8) for _ in range(params.k)]
    rs: dict = {"shard_bytes": shard, "code": f"({params.n},{params.k})"}
    times = {}
    for name, coder, reps in (
        ("vectorized", ReedSolomon(params), 3),
        ("scalar", ref.ScalarReedSolomon(params.n, params.k), 1),
    ):
        shards = list(data) + coder.encode(list(data))
        one = [None if i == 2 else s for i, s in enumerate(shards)]
        three = [None if i in (0, 4, 7) else s for i, s in enumerate(shards)]
        times[name] = (
            _best_of(lambda: coder.encode(list(data)), reps=reps),
            _best_of(lambda: coder.decode(list(one)), reps=reps),
            _best_of(lambda: coder.decode(list(three)), reps=reps),
        )
        t_enc, t_r1, t_r3 = times[name]
        rs[name] = {
            "encode_mb_s": shard * params.k / t_enc / 1e6,
            "rebuild_1loss_mb_s": shard / t_r1 / 1e6,
            "rebuild_3loss_mb_s": 3 * shard / t_r3 / 1e6,
        }
    for i, op in enumerate(("encode", "rebuild_1loss", "rebuild_3loss")):
        rs[f"{op}_speedup"] = times["scalar"][i] / times["vectorized"][i]
    components["reed_solomon"] = rs

    rows = [
        [name, round(c["vectorized_mb_s"], 1), round(c["scalar_mb_s"], 1), round(c["speedup"], 1)]
        for name, c in components.items()
        if name != "reed_solomon"
    ] + [
        [
            f"rs_{op}",
            round(rs["vectorized"][f"{op}_mb_s"], 1),
            round(rs["scalar"][f"{op}_mb_s"], 1),
            round(rs[f"{op}_speedup"], 1),
        ]
        for op in ("encode", "rebuild_1loss", "rebuild_3loss")
    ]
    return ExperimentResult(
        experiment="dataplane",
        title="Vectorised data plane vs scalar references (host MB/s)",
        headers=["component", "vectorized MB/s", "scalar MB/s", "speedup"],
        rows=rows,
        notes="host-clock only: simulated results are identical either way",
        raw={"components": components},
    )


#: Registry used by the CLI and the benchmark suite.
ALL_EXPERIMENTS = {
    "table3": table3_datasets,
    "table4": table4_queries,
    "fig4a": fig4a_chunk_splits,
    "fig4b": fig4b_baseline_breakdown,
    "fig4c": fig4c_chunk_cdf,
    "fig4d": fig4d_padding_overhead,
    "fig6": fig6_compression,
    "fig10a": fig10a_oracle_runtime,
    "fig10b": fig10b_tradeoff,
    "fig12": fig12_nodes_per_chunk,
    "fig13ab": fig13ab_column_sweep,
    "fig13cd": fig13cd_breakdown,
    "fig14ab": fig14ab_selectivity_sweep,
    "fig14c": fig14c_bandwidth_sweep,
    "fig14d": fig14d_cpu_utilization,
    "fig15a": fig15a_realworld,
    "fig15b": fig15b_traffic,
    "fig16a": fig16a_fac_overhead,
    "fig16bc": fig16bc_strategy_compare,
    "ablation-cost-model": ablation_cost_model,
    "ablation-contention": ablation_contention,
    "ablation-fac-policy": ablation_fac_policy,
    "ext-aggregate-pushdown": ext_aggregate_pushdown,
    "ext-degraded-reads": ext_degraded_reads,
    "ext-grouped-query": ext_grouped_query,
    "ablation-page-skipping": ablation_page_skipping,
    "put-latency": put_latency,
    "recovery-time": recovery_time,
    "mixed-workload": mixed_workload,
    "fig16a-wide": fig16a_wide_code,
    "chaos": chaos_fault_tolerance,
    "metadata-chaos": metadata_chaos,
    "membership-chaos": membership_chaos,
    "overload": overload_protection,
    "qos": tenant_qos,
}
