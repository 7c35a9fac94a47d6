"""Scraper semantics: simulated-clock sampling cadence, delta / rate /
windowed-quantile derivation, deterministic export, and the
install_telemetry knob wiring."""

import json
import math

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator, record_schedule
from repro.cluster.qos import TenantQos
from repro.obs import validate
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import Scraper, install_telemetry
from repro.obs.validate import validate_timeseries


def _cluster(num_nodes=4, registry=True):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=num_nodes))
    if registry:
        cluster.metrics.registry = MetricsRegistry()
    return sim, cluster


def _idle(sim, until):
    def wait():
        yield sim.timeout(until)

    sim.process(wait())
    sim.run()


def test_samples_land_on_interval_boundaries():
    sim, cluster = _cluster()
    scraper = Scraper(cluster, 0.5)
    scraper.install()
    _idle(sim, 2.2)
    assert scraper.times == [0.5, 1.0, 1.5, 2.0]
    # Node gauges exist for every node at every sample.
    node_up = scraper.to_dict()["series"]["repro_node_up"]
    assert [s["labels"] for s in node_up] == [{"node": str(nid)} for nid in range(4)]
    for series in node_up:
        assert series["points"] == [[t, 1.0] for t in scraper.times]


def test_one_clock_advance_crossing_many_boundaries_samples_each():
    sim, cluster = _cluster()
    scraper = Scraper(cluster, 0.25)
    scraper.install()
    _idle(sim, 3.0)  # a single big timeout crosses 12 boundaries
    assert len(scraper.times) == 12
    assert scraper.times[0] == 0.25
    assert scraper.times[-1] == 3.0


def test_interval_must_be_positive():
    _sim, cluster = _cluster(registry=False)
    with pytest.raises(ValueError):
        Scraper(cluster, 0.0)


def test_install_is_idempotent():
    sim, cluster = _cluster()
    scraper = Scraper(cluster, 1.0)
    scraper.install()
    scraper.install()
    _idle(sim, 2.0)
    assert scraper.times == [1.0, 2.0]


def test_delta_and_rate_on_cumulative_counter():
    sim, cluster = _cluster()
    counter = cluster.metrics.registry.counter("work_total", "work done")

    def work():
        for _ in range(8):
            counter.inc(3.0)
            yield sim.timeout(0.5)

    scraper = Scraper(cluster, 1.0)
    scraper.install()
    sim.process(work())
    sim.run()
    # Counter rises 6.0 per sampled second.
    assert scraper.latest("work_total") == 24.0
    assert scraper.delta("work_total", window_s=1.0) == pytest.approx(6.0)
    assert scraper.delta("work_total") == pytest.approx(24.0)  # inf window
    assert scraper.rate("work_total", window_s=2.0) == pytest.approx(6.0)
    assert scraper.delta("work_total", window_s=1.0, at=2.0) == pytest.approx(6.0)


def test_window_values_and_missing_series():
    sim, cluster = _cluster()
    scraper = Scraper(cluster, 0.5)
    scraper.install()
    _idle(sim, 2.0)
    values = scraper.window_values("repro_node_up", {"node": "0"}, window_s=1.0)
    assert values == [1.0, 1.0]
    assert scraper.latest("nope") is None
    assert scraper.delta("nope") == 0.0
    assert scraper.window_values("nope") == []
    assert scraper.window_quantile("nope", 0.99) is None
    assert scraper.window_fraction_above("nope", 1.0) is None


def test_windowed_quantile_from_histogram_bucket_deltas():
    sim, cluster = _cluster()
    hist = cluster.metrics.registry.histogram(
        "lat_seconds", "latency", buckets=(0.1, 1.0, 10.0)
    )

    def work():
        # First second: fast observations; second second: slow ones.
        for _ in range(10):
            hist.observe(0.05)
        yield sim.timeout(1.0)
        for _ in range(10):
            hist.observe(5.0)
        yield sim.timeout(1.0)

    scraper = Scraper(cluster, 1.0)
    scraper.install()
    sim.process(work())
    sim.run()
    # Over everything: median at the 0.1 bucket bound, p99 at 10.0.
    assert scraper.window_quantile("lat_seconds", 0.5) == pytest.approx(0.1)
    assert scraper.window_quantile("lat_seconds", 0.99) == pytest.approx(10.0)
    # Trailing 1 s window isolates the slow burst.
    assert scraper.window_quantile("lat_seconds", 0.5, window_s=1.0) == pytest.approx(10.0)
    assert scraper.window_fraction_above("lat_seconds", 1.0, window_s=1.0) == pytest.approx(1.0)
    assert scraper.window_fraction_above("lat_seconds", 1.0) == pytest.approx(0.5)
    # A window before any observations has no data.
    assert scraper.window_quantile("lat_seconds", 0.5, window_s=1.0, at=0.0) is None


def test_to_json_is_deterministic_and_validates():
    def one_run():
        sim, cluster = _cluster()
        counter = cluster.metrics.registry.counter("ticks_total", "ticks")
        hist = cluster.metrics.registry.histogram("obs_seconds", "obs")

        def work():
            for i in range(6):
                counter.inc()
                hist.observe(0.01 * (i + 1))
                yield sim.timeout(0.4)

        scraper = Scraper(cluster, 0.5)
        scraper.install()
        sim.process(work())
        sim.run()
        return scraper

    a, b = one_run(), one_run()
    assert a.to_json() == b.to_json()  # byte-identical artifact
    doc = json.loads(a.to_json())
    assert validate_timeseries(doc) == []
    assert doc["samples"] == len(doc["times"])
    bounds = doc["histograms"]["obs_seconds"][0]["bounds"]
    assert bounds[-1] == "+Inf"


def test_openmetrics_text_has_types_timestamps_and_eof():
    sim, cluster = _cluster()
    cluster.metrics.registry.counter("ticks_total", "ticks").inc(5)
    scraper = Scraper(cluster, 1.0)
    scraper.install()
    _idle(sim, 2.0)
    text = scraper.openmetrics()
    assert text.endswith("# EOF\n")
    assert "# TYPE ticks_total counter" in text
    assert "ticks_total 5 1" in text  # value with simulated timestamp
    assert '# TYPE repro_node_up gauge' in text
    assert 'repro_node_up{node="0"} 1 2' in text


def test_openmetrics_escapes_label_values(tmp_path, capsys):
    """A tenant named with a quote, a backslash and a newline used to end
    its sample line early and corrupt every line after it."""
    tenant = 'a"b\\c\nd'
    sim, cluster = _cluster(num_nodes=2)
    cluster.metrics.registry.histogram("lat_seconds", "latency", tenant=tenant).observe(0.5)
    cluster.qos = TenantQos(sim)
    cluster.qos.admit(tenant)
    scraper = Scraper(cluster, 1.0)
    scraper.install()
    _idle(sim, 2.0)
    text = scraper.openmetrics()
    escaped = 'tenant="a\\"b\\\\c\\nd"'
    assert f"repro_tenant_queue_depth{{{escaped}}} 0 2.0" in text.splitlines()
    assert f'lat_seconds_bucket{{le="+Inf",{escaped}}} 1 2.0' in text.splitlines()
    assert f"lat_seconds_count{{{escaped}}} 1 2.0" in text.splitlines()
    # Round trip through the CLI validator: every line still parses, and
    # the label pair reads back as one pair.
    path = tmp_path / "scrape.om"
    path.write_text(text)
    assert validate.main(["--prom", str(path)]) == 0, capsys.readouterr().out
    assert validate._split_label_pairs(escaped) == [escaped]


def test_install_telemetry_knobs():
    # All knobs off: nothing installed.
    sim, cluster = _cluster(registry=False)

    class Cfg:
        scrape_interval_s = 0.0
        slo_enabled = False
        exemplars_enabled = False
        default_deadline_s = 0.0

    install_telemetry(cluster, Cfg())
    assert getattr(cluster, "scraper", None) is None
    assert cluster.metrics.registry is None

    # Scrape knob: scraper + registry appear; idempotent reinstall.
    cfg = Cfg()
    cfg.scrape_interval_s = 0.5
    install_telemetry(cluster, cfg)
    assert cluster.scraper.interval_s == 0.5
    assert cluster.metrics.registry is not None
    first = cluster.scraper
    install_telemetry(cluster, cfg)
    assert cluster.scraper is first

    # SLO knob layers the engine on the existing scraper.
    cfg.slo_enabled = True
    install_telemetry(cluster, cfg)
    assert cluster.slo is not None
    assert cluster.slo.scraper is first

    # Exemplars force tracer + registry flag.
    cfg.exemplars_enabled = True
    install_telemetry(cluster, cfg)
    assert sim.tracer is not None
    assert cluster.metrics.registry.exemplars_enabled is True


def test_scraper_never_schedules_events():
    sim, cluster = _cluster()
    scheduled = record_schedule(sim)
    scraper = Scraper(cluster, 0.1)
    scraper.install()
    before = len(scheduled)

    def work():
        yield sim.timeout(1.0)

    sim.process(work())
    sim.run()
    # The only scheduled events are the workload's own (process start at
    # t=0 and its timeout); 10 samples were taken without touching the
    # event queue.
    assert len(scraper.times) == 10
    assert [at for at, _seq in scheduled[before:]] == [0.0, 1.0]
    assert math.isclose(scheduled[-1][0], 1.0)
