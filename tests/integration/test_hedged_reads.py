"""Hedged reads: when a remote op has not resolved ``hedge_after_s``
seconds after it was issued, the op's degraded-read fallback launches in
parallel and whichever path finishes first supplies the value.

Off by default (``hedge_after_s = 0.0``): no hedge processes are ever
scheduled, keeping fault-free runs event-identical to the seed."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.core import FusionStore, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM tbl WHERE qty < 5"


def _run(hedge_after_s: float, slow_factor: float = 200.0, slow_endpoint: bool = True):
    """One query against a cluster whose first data-holding node is slow:
    its disk always, its network endpoint too when ``slow_endpoint``."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = FusionStore(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            hedge_after_s=hedge_after_s,
            op_timeout_s=5.0,  # huge: only hedging can sidestep the slow node
        ),
    )
    store.put("tbl", data)
    victim = next(n for n in cluster.nodes if n.stored_bytes)
    victim.disk.slow_factor = slow_factor
    if slow_endpoint:
        victim.endpoint.slow_factor = slow_factor
    qm = QueryMetrics()
    proc = sim.process(store.query_process(SQL, qm))
    sim.run()
    expected = execute_local(SQL, table)
    return proc.value, qm, cluster, expected


def test_hedge_fires_against_slow_node_and_result_is_correct():
    result, qm, cluster, expected = _run(hedge_after_s=0.01)
    assert qm.hedges > 0
    # Every hedge launched the degraded fallback; the race winner
    # supplied correct bytes either way.
    assert qm.degraded_reads >= qm.hedges
    assert result.equals(expected)
    # Cluster totals aggregate the per-query hedge count.
    assert cluster.metrics.hedges == qm.hedges


def test_hedging_disabled_by_default():
    result, qm, _cluster, expected = _run(hedge_after_s=0.0)
    assert qm.hedges == 0
    assert qm.degraded_reads == 0
    assert result.equals(expected)


def test_hedge_not_launched_when_primary_is_fast():
    # Healthy cluster: every op resolves long before the hedge delay.
    result, qm, _cluster, expected = _run(hedge_after_s=10.0, slow_factor=1.0)
    assert qm.hedges == 0
    assert result.equals(expected)


def test_hedging_works_in_batched_mode():
    # Remote ops travel as one exchange per node; a hedge launched for an
    # op inside such an exchange still races it and wins correctly.
    result, qm, _cluster, expected = _run(hedge_after_s=0.01)
    assert qm.hedges > 0
    assert qm.rpcs_saved > 0
    assert result.equals(expected)


@pytest.mark.parametrize("slow_endpoint", [False, True])
def test_hedged_run_is_deterministic(slow_endpoint):
    result_a, qm_a, _ca, _e = _run(hedge_after_s=0.01, slow_endpoint=slow_endpoint)
    result_b, qm_b, _cb, _e = _run(hedge_after_s=0.01, slow_endpoint=slow_endpoint)
    assert qm_a.hedges > 0
    assert result_a.equals(result_b)
    assert qm_a.hedges == qm_b.hedges
    assert (qm_a.start_time, qm_a.end_time) == (qm_b.start_time, qm_b.end_time)
    assert qm_a.network_bytes == qm_b.network_bytes
