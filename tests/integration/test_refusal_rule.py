"""One back-pressure rule for an op that admission control refuses.

Where its stage may shed (a scan under ``allow_partial_results``), the
refused op is shed.  Where it may not (aggregates, GROUP BY), the stage
raises a typed :class:`QueueFull` at once: the op is never retried into
the node that refused it, and never reconstructed from k other nodes,
which under a storm are just as saturated and turned one refusal into a
``RemoteOpError`` (ROADMAP, "Green CI: explain the overload regression").
Timeouts, ``LinkDown`` and corruption keep their retries and fallback.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.core import (
    BaselineStore,
    DeadlineExceeded,
    FusionStore,
    PartialResult,
    QueueFull,
    RemoteOpError,
    StoreConfig,
)
from repro.core.location_map import ChecksumError
from repro.core.scatter_gather import SHED, RemoteOp, execute_remote_ops
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table


def _stage(allow_shed: bool, refuse: bool = True):
    """One stage of one op on node 1 whose every attempt is refused (or,
    ``refuse=False``, fails with a node-side error); returns the stage's
    outcome, the metrics and how often each path ran."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=4))
    runs = {"execute": 0, "fallback": 0}

    def execute():
        runs["execute"] += 1
        yield sim.timeout(0.001)
        raise QueueFull("node 1 cpu") if refuse else KeyError("block gone")

    def fallback():
        runs["fallback"] += 1
        yield sim.timeout(0.001)
        return "reconstructed"

    op = RemoteOp(node=cluster.node(1), request_bytes=64, execute=execute, fallback=fallback)
    metrics = QueryMetrics()
    outcome = {}

    def stage():
        try:
            outcome["value"] = yield from execute_remote_ops(
                cluster, cluster.node(0), [op], metrics,
                config=StoreConfig(), allow_shed=allow_shed,
            )
        except QueueFull as exc:
            outcome["error"] = exc

    sim.process(stage())
    sim.run()
    return outcome, metrics, runs


def test_a_refused_op_in_a_stage_that_may_not_shed_raises_queue_full_at_once():
    outcome, metrics, runs = _stage(allow_shed=False)
    assert isinstance(outcome.get("error"), QueueFull)
    assert "node(s) [1]" in str(outcome["error"])
    assert runs == {"execute": 1, "fallback": 0}
    assert metrics.retries == 0
    assert metrics.requests_rejected == 1


def test_a_refused_op_in_a_stage_that_may_shed_is_shed():
    outcome, metrics, runs = _stage(allow_shed=True)
    assert outcome["value"] == [SHED]
    assert runs == {"execute": 1, "fallback": 0}
    assert metrics.retries == 0


def test_a_refused_degraded_fallback_in_a_stage_that_may_not_shed_raises_queue_full():
    """Corrupt bytes send the op straight to its degraded fallback; when
    admission control refuses the fallback's own reads, the refusal
    surfaces as ``QueueFull`` (which ``query_process`` accounts as a
    failed query), not as a ``RemoteOpError``."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=4))
    runs = {"execute": 0, "fallback": 0}

    def execute():
        runs["execute"] += 1
        yield sim.timeout(0.001)
        raise ChecksumError("rotten chunk")

    def fallback():
        runs["fallback"] += 1
        yield sim.timeout(0.001)
        raise QueueFull("node 2 cpu")

    op = RemoteOp(node=cluster.node(1), request_bytes=64, execute=execute, fallback=fallback)
    metrics = QueryMetrics()
    outcome = {}

    def stage():
        try:
            outcome["value"] = yield from execute_remote_ops(
                cluster, cluster.node(0), [op], metrics, config=StoreConfig(),
            )
        except (QueueFull, RemoteOpError) as exc:
            outcome["error"] = exc

    sim.process(stage())
    sim.run()
    assert type(outcome.get("error")) is QueueFull, outcome
    assert runs == {"execute": 1, "fallback": 1}
    assert metrics.retries == 0
    assert metrics.requests_rejected == 1


def test_a_failed_op_keeps_its_retries_and_fallback():
    outcome, metrics, runs = _stage(allow_shed=False, refuse=False)
    assert outcome["value"] == ["reconstructed"]
    assert runs == {"execute": 3, "fallback": 1}
    assert metrics.retries == 2


#: Aggregates: their stages may not shed.
AGGREGATES = [
    "SELECT count(id) FROM tbl WHERE qty < 5",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
]


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_aggregates_under_a_storm_fail_typed_as_refused_never_as_remote_op_errors(store_cls):
    """A storm on every node: each aggregate is answered correctly or
    fails with the refusal itself (or the deadline), never with a
    ``RemoteOpError`` from a degraded fallback that was refused too."""
    table = make_small_table(num_rows=2500, seed=77)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            admission_queue_depth=1,
            allow_partial_results=True,
        ),
    )
    store.put("tbl", write_table(table, row_group_rows=500))
    FaultInjector(
        cluster,
        [
            FaultEvent(at=0.0, kind="overload", node_id=n, duration=0.5,
                       rate=5000.0, nbytes=8_000_000)
            for n in range(12)
        ],
        seed=21,
    ).install()
    outcomes = {"ok": 0, "refused": 0, "other": []}

    def client(cid):
        for qi in range(6):
            sql = AGGREGATES[(cid + qi) % len(AGGREGATES)]
            try:
                result = yield from store.query_process(sql, QueryMetrics())
            except (QueueFull, DeadlineExceeded):
                outcomes["refused"] += 1
            except RemoteOpError as exc:
                outcomes["other"].append(repr(exc))
            else:
                assert not isinstance(result, PartialResult)
                assert result.equals(execute_local(sql, table)), sql
                outcomes["ok"] += 1

    def start_clients():
        yield sim.timeout(0.01)  # the storm fills the queues first
        for cid in range(6):
            sim.process(client(cid))

    sim.process(start_clients())
    sim.run()
    assert not sim._heap
    assert outcomes["other"] == []
    assert outcomes["refused"] > 0
    assert outcomes["ok"] + outcomes["refused"] == 36
