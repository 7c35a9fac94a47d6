"""Randomised fault injection: any sequence of node kills and recoveries
that never exceeds the code's tolerance must preserve every byte and every
query answer."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import FusionStore, RepairManager, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

NUM_NODES = 12


def _fresh_system():
    table = make_small_table(num_rows=1600, seed=88)
    data = write_table(table, row_group_rows=400)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=NUM_NODES))
    store = FusionStore(
        cluster,
        StoreConfig(size_scale=20.0, storage_overhead_threshold=0.1),
    )
    store.put("tbl", data)
    return store, cluster, table, data


# Each step: (node_to_kill, recover_immediately?).  Keeping at most
# parity-many unrecovered failures alive preserves recoverability.
steps = st.lists(
    st.tuples(st.integers(0, NUM_NODES - 1), st.booleans()),
    min_size=1,
    max_size=5,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=steps)
def test_data_survives_any_tolerable_failure_sequence(plan):
    store, cluster, table, data = _fresh_system()
    sql = "SELECT id, price FROM tbl WHERE qty < 6"
    expected = execute_local(sql, table)

    dead: set[int] = set()
    for node_id, recover in plan:
        if node_id in dead:
            continue
        # Never exceed tolerance: with parity 3 we allow at most 2
        # concurrently-degraded nodes so every stripe keeps k readable.
        if len(dead) >= 2 and not recover:
            continue
        for bid in list(cluster.node(node_id)._blocks):
            cluster.node(node_id).drop_block(bid)
        cluster.fail_node(node_id)
        if recover:
            RepairManager(store).repair_node(node_id)
            cluster.restore_node(node_id)
        else:
            dead.add(node_id)

        # Queries stay correct at every intermediate state.
        result, _ = store.query(sql)
        assert result.equals(expected)

    # Recover the remaining dead nodes and verify byte-level integrity.
    for node_id in dead:
        RepairManager(store).repair_node(node_id)
        cluster.restore_node(node_id)
    assert store.get("tbl") == data
    report = store.verify_object("tbl")
    assert not report.corrupt_stripes
