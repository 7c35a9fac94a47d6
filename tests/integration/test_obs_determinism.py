"""The observability knobs must be pure observers: a fault-free workload
scheduled with tracing + metrics + audit all on must produce an event
stream identical to the same workload with everything off."""

import json

from repro.core import StoreConfig
from repro.obs.validate import validate_alerts, validate_timeseries
from tests.closed_loop import each_store, fingerprinted, same_answers

OBS = dict(tracing_enabled=True, metrics_registry_enabled=True, pushdown_audit_enabled=True)
#: The whole workload lasts well under a simulated second, so scrape on
#: a millisecond cadence to actually collect samples.
TELEMETRY = dict(OBS, scrape_interval_s=0.005, slo_enabled=True, exemplars_enabled=True)


@each_store
def test_obs_knobs_do_not_perturb_the_event_stream(kind):
    system_off, stats_off, fp_off = fingerprinted(kind, pushdown_audit_enabled=False)
    system_on, stats_on, fp_on = fingerprinted(kind, **OBS)

    assert fp_on == fp_off  # every scheduled event at the same time
    assert same_answers(stats_on, stats_off)

    # The instrumented run actually observed things; the bare run did not.
    assert system_on.sim.tracer is not None and system_on.sim.tracer.spans
    assert system_on.cluster.metrics.registry is not None
    assert system_off.sim.tracer is None
    assert system_off.cluster.metrics.registry is None
    assert system_off.store.audit.records == []
    if kind == "fusion":
        assert system_on.store.audit.records


@each_store
def test_telemetry_knobs_do_not_perturb_the_event_stream(kind):
    """Scraper + SLO engine + exemplars armed on top of full observability
    must still leave the scheduled-event stream bit-identical."""
    _system, stats_off, fp_off = fingerprinted(kind, pushdown_audit_enabled=False)
    system_on, stats_on, fp_on = fingerprinted(kind, **TELEMETRY)

    assert fp_on == fp_off
    assert same_answers(stats_on, stats_off)

    # And the telemetry plane actually observed the run.
    scraper = system_on.cluster.scraper
    assert scraper.times and scraper.times[0] == 0.005
    assert system_on.cluster.slo is not None
    hist = system_on.cluster.metrics.registry.histogram(
        "repro_query_latency_seconds", "End-to-end query latency"
    )
    assert hist.exemplar_for_quantile(0.99) is not None


def test_timeseries_export_is_byte_identical_across_runs():
    a = fingerprinted("fusion", **TELEMETRY)[0].cluster
    b = fingerprinted("fusion", **TELEMETRY)[0].cluster
    assert a.scraper.to_json() == b.scraper.to_json()
    assert validate_timeseries(json.loads(a.scraper.to_json())) == []
    assert validate_alerts(a.slo.to_dict()) == []


def test_default_config_keeps_observers_off():
    config = StoreConfig()
    assert config.tracing_enabled is False
    assert config.metrics_registry_enabled is False
    assert config.pushdown_audit_enabled is True  # metadata-plane, zero events
    assert config.scrape_interval_s == 0.0
    assert config.slo_enabled is False
    assert config.exemplars_enabled is False
