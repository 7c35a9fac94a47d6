"""The closed-loop scenario the identity, determinism and golden tests share.

A 2,500-row table (seed 77, 500-row groups) is stored as ``tbl`` with
``size_scale=50``, a 0.1 FAC budget and 500 kB blocks, on 12 nodes
unless a test says otherwise.  Four closed-loop clients query it
round-robin over ``SQLS`` through the bench harness's runner.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import SystemUnderTest, WorkloadStats, build_system, run_workload
from repro.check import fingerprint
from repro.cluster import ClusterConfig, Simulator, record_schedule
from repro.core import StoreConfig
from repro.format import write_table
from tests.conftest import make_small_table

SQLS = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
    "SELECT id FROM tbl WHERE note LIKE '%77%'",
]
NUM_CLIENTS = 4
NUM_QUERIES = 12
TABLE = make_small_table(num_rows=2500, seed=77)

#: Parametrize a test over both stores (ids are the store class names).
each_store = pytest.mark.parametrize(
    "kind", ["fusion", "baseline"], ids=["FusionStore", "BaselineStore"]
)


def encoded() -> bytes:
    """``TABLE``'s file bytes, encoded afresh: a test that patches the
    codecs puts bytes its patch wrote."""
    return write_table(TABLE, row_group_rows=500)


def build(
    kind: str, sim: Simulator | None = None, num_nodes: int = 12, **knobs
) -> SystemUnderTest:
    """The scenario's store of ``kind`` with ``tbl`` put; ``knobs`` are
    ``StoreConfig`` fields on top of the scenario's."""
    config = StoreConfig(
        size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000, **knobs
    )
    return build_system(kind, {"tbl": encoded()}, ClusterConfig(num_nodes=num_nodes), config, sim)


def run(
    system: SystemUnderTest, num_queries: int = NUM_QUERIES, num_clients: int = NUM_CLIENTS
) -> WorkloadStats:
    return run_workload(system, SQLS, num_clients, num_queries)


def recorded(kind: str, **knobs) -> tuple[SystemUnderTest, list]:
    """:func:`build` on a simulator whose schedule is recorded from
    before the Put; returns the system and the live ``(at, seq)`` list."""
    sim = Simulator()
    stream = record_schedule(sim)
    return build(kind, sim, **knobs), stream


def fingerprinted(kind: str, **knobs) -> tuple[SystemUnderTest, WorkloadStats, dict]:
    """Build, run :data:`NUM_QUERIES` queries, fingerprint the run."""
    system, stream = recorded(kind, **knobs)
    stats = run(system)
    return system, stats, fingerprint(stream, system.store, stats.metrics)


def same_answers(a: WorkloadStats, b: WorkloadStats) -> bool:
    return len(a.results) == len(b.results) and all(
        x.equals(y) for x, y in zip(a.results, b.results)
    )
