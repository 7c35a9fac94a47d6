"""Differential tests: the scraper's bisect window reads against the scans.

The scraper answers ``delta`` / ``rate`` / ``window_values`` /
``window_quantile`` / ``window_fraction_above`` with two ``bisect`` calls on
a series' time column.  The oracles in ``_scan_reference`` are the loops
those replaced; every answer must be equal, not close.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import Scraper
from tests.obs import _scan_reference as ref

INTERVAL = 0.5
BOUNDS = [0.1, 1.0, 10.0]
#: One observation per bucket, the overflow bucket included.
OBSERVATIONS = [0.05, 0.5, 5.0, 50.0]

#: One scrape each: is the series' registry the installed one (a series that
#: starts late or skips samples is absent from some scrapes), the gauge's
#: value, how much the counter grew, what the histogram observed.
steps = st.lists(
    st.tuples(
        st.booleans(),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.integers(0, 5),
        st.lists(st.sampled_from(OBSERVATIONS), max_size=4),
    ),
    max_size=12,
)
#: Windows: empty, below one interval, one interval exactly, a few, everything.
windows = st.sampled_from([0.0, 0.3 * INTERVAL, INTERVAL, 2.5 * INTERVAL, 4 * INTERVAL, math.inf])


def _scrape(script):
    """Run the script; returns the scraper and what an observer standing
    next to it wrote down: gauge points, counter points, histogram snapshots."""
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=2))
    scraper = Scraper(cluster, INTERVAL)
    registry, absent = MetricsRegistry(), MetricsRegistry()
    gauge = registry.gauge("level", "a gauge", shard="a")
    counter = registry.counter("work_total", "a counter")
    hist = registry.histogram("lat_seconds", "a histogram", buckets=BOUNDS)
    gauge_points, counter_points, snaps = [], [], []
    for k, (present, level, work, observed) in enumerate(script, 1):
        gauge.set(level)
        counter.inc(work)
        for value in observed:
            hist.observe(value)
        cluster.metrics.registry = registry if present else absent
        t = k * INTERVAL
        scraper._sample(t)
        if present:
            cumulative = [sum(hist.counts[: i + 1]) for i in range(len(hist.counts))]
            gauge_points.append((t, gauge.value))
            counter_points.append((t, counter.value))
            snaps.append((t, hist.count, hist.sum, tuple(cumulative)))
    return scraper, gauge_points, counter_points, snaps


@settings(max_examples=150, deadline=None)
@given(script=steps, window=windows, data=st.data())
def test_window_reads_equal_the_linear_scans(script, window, data):
    scraper, gauge_points, counter_points, snaps = _scrape(script)
    last = len(script) * INTERVAL
    # On a sample, between two, before the first, after the last, and the default.
    at = data.draw(
        st.one_of(
            st.none(),
            st.integers(0, len(script) + 2).map(lambda k: k * INTERVAL),
            st.floats(-INTERVAL, last + 2 * INTERVAL, allow_nan=False),
        )
    )
    labels = {"shard": "a"}
    assert scraper.window_values("level", labels, window, at) == ref.window_values(gauge_points, window, at)
    assert scraper.delta("level", labels, window, at) == ref.delta(gauge_points, window, at)
    assert scraper.delta("work_total", None, window, at) == ref.delta(counter_points, window, at)
    assert scraper.rate("work_total", None, window, at) == ref.rate(counter_points, INTERVAL, window, at)
    assert scraper.rate("work_total", at=at) == ref.rate(counter_points, INTERVAL, None, at)
    assert scraper.latest("level", labels) == (gauge_points[-1][1] if gauge_points else None)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert scraper.window_quantile("lat_seconds", q, None, window, at) == ref.window_quantile(
            snaps, BOUNDS, q, window, at
        )
    for threshold in (0.0, 0.1, 0.7, 10.0, 1e9):
        assert scraper.window_fraction_above(
            "lat_seconds", threshold, None, window, at
        ) == ref.window_fraction_above(snaps, BOUNDS, threshold, window, at)


def test_series_that_start_late_or_skip_samples_keep_their_own_times():
    script = [(False, 1.0, 1, []), (True, 2.0, 1, [0.5]), (False, 3.0, 1, []), (True, 4.0, 1, [5.0])]
    scraper, gauge_points, _counter_points, snaps = _scrape(script)
    doc = scraper.to_dict()
    assert doc["times"] == [0.5, 1.0, 1.5, 2.0]
    (level,) = doc["series"]["level"]
    assert level["points"] == [[1.0, 2.0], [2.0, 4.0]] == [list(p) for p in gauge_points]
    (lat,) = doc["histograms"]["lat_seconds"]
    assert [s["t"] for s in lat["snapshots"]] == [1.0, 2.0] == [s[0] for s in snaps]
    # The live-state series were there at every scrape.
    assert [p[0] for p in doc["series"]["repro_node_up"][0]["points"]] == doc["times"]
    # A window that ends on a skipped sample sees the one before it.
    assert scraper.delta("level", {"shard": "a"}, window_s=2 * INTERVAL, at=1.5) == 2.0
    assert scraper.window_values("level", {"shard": "a"}, window_s=2 * INTERVAL, at=1.5) == [2.0]
    assert scraper.window_values("level", {"shard": "a"}, window_s=INTERVAL, at=1.5) == []
