"""SLO engine semantics: burn-rate math per objective kind, multi-window
gating, rising-edge alert lifecycle, and the alert side channels
(counter, tracer instant, subscription hook, export)."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import StoreConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_BURN_THRESHOLD,
    Alert,
    SLObjective,
    SLOEngine,
    default_objectives,
)
from repro.obs.timeseries import Scraper
from repro.obs.tracer import Tracer
from repro.obs.validate import validate_alerts


def _rig(objectives, interval=1.0, num_nodes=2):
    sim = Simulator()
    sim.tracer = Tracer(sim)
    cluster = Cluster(sim, ClusterConfig(num_nodes=num_nodes))
    cluster.metrics.registry = MetricsRegistry()
    scraper = Scraper(cluster, interval)
    scraper.install()
    engine = SLOEngine(
        scraper, objectives, registry=cluster.metrics.registry, tracer=sim.tracer
    )
    return sim, cluster, scraper, engine


def _run_plan(sim, cluster, plan):
    """plan: list of (good requests, bad requests) per simulated second."""

    def work():
        for good, bad in plan:
            for _ in range(good):
                cluster.metrics.queries.append(object())
            cluster.metrics.requests_rejected += bad
            yield sim.timeout(1.0)

    sim.process(work())
    sim.run()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        SLObjective(name="x", kind="latency_p50")


def test_availability_burn_rate_math():
    obj = SLObjective(name="avail", kind="availability", target=0.99)
    sim, cluster, scraper, engine = _rig([obj])
    # Sheds equal to 20% of completions at a 1% budget: burn 20, well
    # past the default page threshold of 10.
    _run_plan(sim, cluster, [(10, 2)] * 4)
    assert engine.burn_rate(obj, 4.0, 4.0) == pytest.approx(20.0)
    assert engine.burn_rate(obj, 1.0, 1.0) == pytest.approx(20.0)
    (alert,) = engine.alerts
    assert alert.slo == "avail"
    assert engine.firing == ["avail"]


def test_alert_needs_both_windows_burning():
    # One bad burst inside an otherwise-clean run: the short window burns
    # immediately, but the 4-interval long window stays under threshold,
    # so nothing pages.
    obj = SLObjective(name="avail", kind="availability", target=0.9)
    sim, cluster, scraper, engine = _rig([obj])
    _run_plan(sim, cluster, [(10, 0), (10, 0), (10, 0), (10, 3)])
    assert engine.burn_rate(obj, 1.0, 4.0) == pytest.approx(3.0)
    assert engine.burn_rate(obj, 4.0, 4.0) < 1.0
    assert engine.alerts == []
    assert engine.firing == []


def test_alert_rising_edge_and_resolution():
    obj = SLObjective(
        name="hot", kind="gauge_above", threshold=0.5,
        series="repro_node_disk_slow_factor", labels={"node": "0"},
    )
    sim, cluster, scraper, engine = _rig([obj])

    def work():
        cluster.nodes[0].disk.slow_factor = 2.0
        yield sim.timeout(6.0)
        cluster.nodes[0].disk.slow_factor = 0.0
        yield sim.timeout(6.0)

    sim.process(work())
    sim.run()
    # Exactly one alert despite six consecutive burning samples; resolved
    # once the long window fully drains of hot samples.
    (alert,) = engine.alerts
    assert alert.time == 1.0
    assert alert.severity == "page"
    assert alert.resolved_time is not None
    assert engine.firing == []
    # Side channels: counter, instants, both edges.
    counter = cluster.metrics.registry.counter(
        "repro_alerts_total", "SLO burn-rate alerts fired",
        slo="hot", severity="page",
    )
    assert counter.value == 1
    names = [name for _t, name, _c, _p, _a in sim.tracer.instants]
    assert names.count("slo.alert") == 1
    assert names.count("slo.resolve") == 1


def test_latency_p99_burn_from_histogram():
    obj = SLObjective(
        name="p99", kind="latency_p99", target=0.9, threshold=1.0,
        series="lat_seconds",
    )
    sim, cluster, scraper, engine = _rig([obj])
    hist = cluster.metrics.registry.histogram(
        "lat_seconds", "latency", buckets=(0.1, 1.0, 10.0)
    )

    def work():
        for _ in range(4):
            hist.observe(5.0)  # every observation blows the threshold
            yield sim.timeout(1.0)

    sim.process(work())
    sim.run()
    # 100% above threshold at a 10% budget: burn 10.
    assert engine.burn_rate(obj, 4.0, 4.0) == pytest.approx(10.0)
    (alert,) = engine.alerts
    assert alert.burn_short == pytest.approx(10.0)


def test_window_overrides_and_custom_burn_threshold():
    obj = SLObjective(
        name="slow-burn", kind="availability", target=0.99,
        short_window_s=2.0, long_window_s=8.0, burn_threshold=2.0,
    )
    sim, cluster, scraper, engine = _rig([obj])
    assert engine._windows(obj) == (2.0, 8.0)
    # Long window can never undercut the short one.
    tight = SLObjective(
        name="tight", kind="availability", short_window_s=5.0, long_window_s=1.0
    )
    assert engine._windows(tight) == (5.0, 5.0)
    # 2% bad at 1% budget = burn 2: fires at the custom threshold where
    # the default (10) would stay quiet.
    _run_plan(sim, cluster, [(98, 2)] * 8)
    assert any(a.slo == "slow-burn" for a in engine.alerts)


def test_subscribe_hook_sees_each_firing():
    obj = SLObjective(
        name="hot", kind="gauge_above", threshold=0.5,
        series="repro_node_disk_slow_factor", labels={"node": "0"},
    )
    sim, cluster, scraper, engine = _rig([obj])
    seen: list[Alert] = []
    engine.subscribe(seen.append)

    def work():
        cluster.nodes[0].disk.slow_factor = 2.0
        yield sim.timeout(3.0)

    sim.process(work())
    sim.run()
    assert [a.slo for a in seen] == ["hot"]
    assert seen[0] is engine.alerts[0]


def test_default_objectives_track_the_deadline():
    objs = {o.name: o for o in default_objectives(StoreConfig())}
    assert set(objs) == {"availability", "latency_p99", "repair_freshness"}
    assert objs["latency_p99"].threshold == 1.0  # no deadline set
    assert objs["repair_freshness"].severity == "ticket"
    with_deadline = {
        o.name: o
        for o in default_objectives(StoreConfig(default_deadline_s=0.25))
    }
    assert with_deadline["latency_p99"].threshold == 0.25
    for obj in objs.values():
        assert DEFAULT_BURN_THRESHOLD[obj.kind] > 0


def test_export_shape_validates():
    obj = SLObjective(
        name="hot", kind="gauge_above", threshold=0.5,
        series="repro_node_disk_slow_factor", labels={"node": "0"},
    )
    sim, cluster, scraper, engine = _rig([obj])

    def work():
        cluster.nodes[0].disk.slow_factor = 2.0
        yield sim.timeout(3.0)

    sim.process(work())
    sim.run()
    doc = engine.to_dict()
    assert validate_alerts(doc) == []
    assert doc["firing"] == ["hot"]
    (exported,) = doc["alerts"]
    assert exported["resolved_time"] is None
    assert "burn" in exported["message"]
