"""What telemetry costs to keep on: nothing per unit of history, little
per call.

A scrape plus its SLO evaluation executes the same lines at sample 2,000
as at sample 20; recorded spans leave nothing behind for the garbage
collector to walk; and a collector that appears mid-run (a registry family,
a breaker board, a tenant) has its series from the next sample on.  Per
call: opening and closing a span builds no :class:`Span` handle, a
registry series is resolved on its first use only, and the scraper is
called at its scrape boundaries, not at every clock advance.
"""

import gc
import sys

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.cluster.overload import CircuitBreakerBoard
from repro.cluster.qos import TenantQos
from repro.core import StoreConfig
from repro.cluster.metrics import QueryMetrics
from repro.obs import MetricsRegistry, Scraper, SLOEngine, Span, default_objectives
from tests.closed_loop import SQLS, build, each_store, run
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


def _counting(monkeypatch, cls, name: str) -> list:
    """Count the calls of ``cls.name`` (one list entry per call)."""
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@each_store
def test_a_traced_run_builds_no_span_handle(kind, monkeypatch):
    system = build(kind, num_nodes=9, **TELEMETRY)
    handles = _counting(monkeypatch, Span, "__init__")
    spans_before = len(system.sim.tracer.spans)
    run(system, 50, num_clients=1)
    assert len(system.sim.tracer.spans) - spans_before > 50 * 20
    assert handles == []


def test_a_registry_series_is_resolved_on_its_first_use_only(monkeypatch):
    registry = MetricsRegistry(exemplars_enabled=True)
    qm = QueryMetrics(tenant="acme")
    qm.start_time, qm.end_time, qm.trace_id = 0.0, 0.25, 7
    qm.add("network", 0.1)
    registry.record_query(qm)
    before = registry.export()
    lookups = _counting(monkeypatch, MetricsRegistry, "_family")
    registry.record_query(qm)
    assert lookups == []
    # Every series the first call made moved; none was added.
    assert registry.export() != before
    assert registry.export().count("\n") == before.count("\n")


@each_store
def test_the_scraper_is_called_at_its_boundaries_not_at_every_advance(kind, monkeypatch):
    calls = _counting(monkeypatch, Scraper, "_on_clock")
    system = build(kind, num_nodes=9, **TELEMETRY)
    sim, scraper = system.sim, system.cluster.scraper
    advances = []
    sim.add_clock_listener(advances.append)  # returns None: every advance
    samples = len(scraper.times)
    del calls[:]
    run(system, 50, num_clients=2)
    for step in (0.001, 0.5, 3.0, 0.25):
        sim.run(until=sim.now + step * scraper.interval_s)
    # The scraper's boundary arithmetic, replayed over every advance: one
    # call per advance that crosses a boundary, the ``run(until)`` ones too.
    crossing = 0
    next_t = (samples + 1) * scraper.interval_s
    for to in advances:
        crossing += next_t <= to
        while next_t <= to:
            samples += 1
            next_t = (samples + 1) * scraper.interval_s
    assert len(calls) == crossing and samples == len(scraper.times)
    assert 10 < len(calls) < len(advances) / 4


def test_a_listener_registered_mid_run_is_called_from_the_next_advance():
    sim = Simulator()
    far, seen = [], []

    def far_listener(to):
        far.append(to)
        return 100.0  # nothing to do before t=100

    sim.add_clock_listener(far_listener)
    for at in (1.0, 2.0, 3.0, 4.0):
        sim.timeout(at)
    late = sim.timeout(2.0)
    late.add_callback(lambda _event: sim.add_clock_listener(seen.append))
    sim.run()
    sim.run(until=10.0)
    assert far == [1.0] and seen == [3.0, 4.0, 10.0]
    sim.run(until=100.0)
    assert far == [1.0, 100.0] and seen == [3.0, 4.0, 10.0, 100.0]
