"""What telemetry costs to keep on: nothing per unit of history.

A scrape plus its SLO evaluation executes the same lines at sample 2,000
as at sample 20; recorded spans leave nothing behind for the garbage
collector to walk; and a collector that appears mid-run (a registry family,
a breaker board, a tenant) has its series from the next sample on.
"""

import gc
import sys

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.cluster.overload import CircuitBreakerBoard
from repro.cluster.qos import TenantQos
from repro.core import StoreConfig
from repro.obs import MetricsRegistry, Scraper, SLOEngine, Span, default_objectives
from tests.closed_loop import SQLS, build, run
from tests.integration.test_golden_identity import TELEMETRY


def _lines_executed(call) -> int:
    """How many Python lines ``call()`` executes, in every frame under it.
    The collector is held off meanwhile: a collection that starts inside
    the call runs the ``finally`` blocks of whatever suspended generators
    earlier tests left in cyclic garbage, and those are lines too."""
    count = 0

    def tracer(_frame, event, _arg):
        nonlocal count
        count += event == "line"
        return tracer

    gc.collect()
    gc.disable()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
        gc.enable()
    return count


def test_a_scrape_and_its_slo_evaluation_cost_the_same_at_any_history():
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=9))
    registry = cluster.metrics.registry = MetricsRegistry()
    latency = registry.histogram("repro_query_latency_seconds", "End-to-end query latency")
    queries = registry.counter("repro_queries_total", "Queries completed")
    scraper = Scraper(cluster, 0.25)
    engine = SLOEngine(scraper, default_objectives(StoreConfig()), registry=registry)
    lines = {}
    for k in range(1, 2001):
        latency.observe(0.01)
        queries.inc()
        cluster.metrics.queries.append(None)  # what the availability objective counts
        if k in (20, 2000):
            lines[k] = _lines_executed(lambda: scraper._on_clock(k * 0.25))
        else:
            scraper._on_clock(k * 0.25)
    assert len(scraper.times) == 2000 and not engine.alerts
    assert scraper.delta("repro_cluster_requests_total", window_s=1.0) == 4.0
    assert lines[20] == lines[2000] > 0


@pytest.mark.parametrize("kind", ["fusion", "baseline"])
def test_recorded_spans_leave_nothing_for_the_collector(kind):
    # Full telemetry minus the pushdown audit log: its per-chunk records are
    # (tracked) objects of their own and not the tracer's storage.
    system = build(kind, num_nodes=9, **{**TELEMETRY, "pushdown_audit_enabled": False})
    sim, cluster = system.sim, system.cluster
    # Caches, registry families and series exist from here on.
    run(system, len(SQLS), num_clients=1)
    gc.collect()
    tracked_before, spans_before = len(gc.get_objects()), len(sim.tracer.spans)
    run(system, 50, num_clients=1)
    gc.collect()
    tracked = gc.get_objects()
    spans = len(sim.tracer.spans) - spans_before
    assert spans > 50 * 20 and len(cluster.scraper.times) > 20
    assert not any(isinstance(obj, Span) for obj in tracked)
    assert (len(tracked) - tracked_before) / spans < 0.1


def test_collectors_born_between_two_samples_have_series_from_the_next():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=3))
    registry = cluster.metrics.registry = MetricsRegistry()
    registry.counter("early_total", "there from the start").inc()
    scraper = Scraper(cluster, 1.0)
    scraper._on_clock(1.0)

    registry.counter("late_total", "a new family").inc(2)
    registry.counter("early_total", "a new label set of an old family", shard="b").inc(3)
    cluster.breakers = CircuitBreakerBoard(sim, cluster.num_nodes, 3, 1.0, 1.0)
    cluster.qos = TenantQos(sim)
    cluster.qos.admit("acme")
    cluster.add_node()
    scraper._on_clock(3.0)

    doc = scraper.to_dict()
    assert doc["times"] == [1.0, 2.0, 3.0]

    def points(name, **labels):
        (series,) = [s for s in doc["series"][name] if s["labels"] == labels]
        return series["points"]

    assert points("early_total") == [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
    assert points("repro_node_up", node="0") == [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
    assert points("late_total") == [[2.0, 2.0], [3.0, 2.0]]
    assert points("early_total", shard="b") == [[2.0, 3.0], [3.0, 3.0]]
    assert points("repro_tenant_queue_depth", tenant="acme") == [[2.0, 0.0], [3.0, 0.0]]
    assert points("repro_tenant_deficit", tenant="acme") == [[2.0, 0.0], [3.0, 0.0]]
    for node in "0123":
        assert points("repro_node_breaker_state", node=node) == [[2.0, 0.0], [3.0, 0.0]]
    assert points("repro_node_up", node="3") == [[2.0, 1.0], [3.0, 1.0]]
    assert points("repro_node_inflight", node="3", resource="disk") == [[2.0, 0.0], [3.0, 0.0]]
