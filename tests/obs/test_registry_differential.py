"""Differential test: the registry's bound series against resolving every call.

``MetricsRegistry`` resolves a (kind, name, labels) series on its first
use and hands the bound instance back after that.  ``ReferenceRegistry``
(``_registry_reference``) resolves every call.  Fed the same script -
finished queries with and without a tenant, direct accessor calls with
one label set passed in different orders, a name asked for as the wrong
kind, scrapes in between - the two must raise on the same calls and
export the same bytes: Prometheus text, the ``to_dict`` document, and
the scraper's ``to_json`` and OpenMetrics.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.cluster.metrics import CATEGORIES, QueryMetrics
from repro.obs.registry import BYTES_BUCKETS, MetricsRegistry
from repro.obs.timeseries import Scraper
from tests.obs._registry_reference import ReferenceRegistry

INTERVAL = 0.5
#: Direct-use series: name -> kind.  The label sets are drawn below.
DIRECT = {"repro_x_total": "counter", "repro_level": "gauge", "repro_h_seconds": "histogram"}
#: Names to ask for as the wrong kind: the direct ones and some of
#: ``record_query``'s.
NAMES = [*DIRECT, "repro_queries_total", "repro_query_latency_seconds", "repro_tenant_queries_total"]
KINDS = ("counter", "gauge", "histogram")

counts = st.integers(0, 3)
queries = st.builds(
    lambda tenant, latency, network, seconds, n, trace_id: ("query", tenant, latency, network,
                                                           seconds, n, trace_id),
    st.sampled_from([None, "acme", "beta", 'we"ird\n']),
    st.floats(0.0, 5.0),
    st.integers(0, 10**9),
    st.dictionaries(st.sampled_from(CATEGORIES), st.floats(0.0, 1.0), max_size=3),
    st.tuples(*[counts] * 15),
    st.integers(1, 10**6),
)
#: One label set, passed in the drawn order (``**dict`` keeps it).
labels = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from(["1", "2", "x y"])),
    max_size=3,
    unique_by=lambda item: item[0],
)
direct = st.tuples(
    st.just("direct"), st.sampled_from(sorted(DIRECT)), labels, st.floats(0.0, 1e3),
    st.integers(1, 99),
)
clash = st.tuples(st.just("clash"), st.sampled_from(NAMES), st.sampled_from(KINDS))
scrape = st.tuples(st.just("scrape"))
scripts = st.lists(st.one_of(queries, direct, clash, scrape), max_size=25)


def _query_metrics(op) -> QueryMetrics:
    _, tenant, latency, network, seconds, n, trace_id = op
    qm = QueryMetrics(tenant=tenant)
    qm.end_time, qm.network_bytes, qm.trace_id = latency, network, trace_id
    for category, value in seconds.items():
        qm.add(category, value)
    (qm.pushed_down_chunks, qm.fallback_chunks, qm.rpcs_issued, qm.rpcs_saved, qm.retries,
     qm.timeouts, qm.degraded_reads, qm.checksum_failures, qm.requests_rejected,
     qm.deadline_exceeded, qm.breaker_open_total, qm.partial_results, qm.cancellations,
     qm.refusal_attempts, qm.quota_exceeded) = n
    return qm


def _apply(registry, scraper, op) -> str:
    """Run one step; returns what an observer sees of it (a kind clash
    raises, a ``record_query`` too when one of its names was taken)."""
    try:
        if op[0] == "query":
            registry.record_query(_query_metrics(op))
        elif op[0] == "scrape":
            scraper._on_clock((len(scraper.times) + 1) * INTERVAL)
        elif op[0] == "direct":
            _, name, label_items, value, trace_id = op
            kind = DIRECT[name]
            if kind == "counter":
                registry.counter(name, "direct counter", **dict(label_items)).inc(value)
            elif kind == "gauge":
                registry.gauge(name, "direct gauge", **dict(label_items)).set(value)
            else:
                registry.histogram(
                    name, "direct histogram", buckets=BYTES_BUCKETS, **dict(label_items)
                ).observe(value, trace_id=trace_id)
        else:
            _, name, kind = op
            getattr(registry, kind)(name, "asked as " + kind)
    except ValueError as error:
        return f"raised {error}"
    return "ok"


def _run(registry, script):
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=2))
    cluster.metrics.registry = registry
    scraper = Scraper(cluster, INTERVAL)
    seen = [_apply(registry, scraper, op) for op in script]
    _apply(registry, scraper, ("scrape",))
    return seen, (
        registry.export(),
        json.dumps(registry.to_dict(), sort_keys=True),
        scraper.to_json(),
        scraper.openmetrics(),
    )


@settings(max_examples=150, deadline=None)
@given(script=scripts, exemplars=st.booleans())
def test_bound_series_export_what_resolving_every_call_exports(script, exemplars):
    seen, exports = _run(MetricsRegistry(exemplars_enabled=exemplars), script)
    assert (seen, exports) == _run(ReferenceRegistry(exemplars_enabled=exemplars), script)


def test_one_label_set_in_any_order_is_one_series():
    registry = MetricsRegistry()
    first = registry.counter("repro_x_total", a="1", b="2")
    assert registry.counter("repro_x_total", b="2", a="1") is first
    assert registry.counter("repro_x_total", a="1", b="2") is first
    assert list(registry._families["repro_x_total"].metrics) == [(("a", "1"), ("b", "2"))]


def test_a_bound_name_asked_for_as_another_kind_still_raises():
    for registry in (MetricsRegistry(), ReferenceRegistry()):
        registry.counter("repro_x_total").inc()
        registry.counter("repro_x_total").inc()  # bound from here on
        for kind in ("gauge", "histogram"):
            for _ in range(2):
                try:
                    getattr(registry, kind)("repro_x_total")
                except ValueError as error:
                    assert "already registered as counter" in str(error)
                else:
                    raise AssertionError(f"{kind} of a counter's name did not raise")
        assert registry.counter("repro_x_total").value == 2.0
