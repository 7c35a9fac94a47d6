"""Continuous telemetry: a metadata-plane scraper on the simulated clock.

PR 4's observability is end-of-run only — totals, one trace, one
Prometheus dump.  This module adds the *time axis*: a :class:`Scraper`
samples the metrics registry plus live cluster state (per-node queue
depths and in-flight counts, breaker states, health verdicts, disk slow
factors, repair/rebalance bytes, per-tenant DRR deficits and backlogs)
every ``scrape_interval_s`` of **simulated** time into in-memory time
series, with delta / rate / windowed-quantile derivation on top.

Zero simulated perturbation, by construction: the scraper rides the
kernel's clock-listener hook (:meth:`Simulator.add_clock_listener`),
which fires when the clock is *about to* advance past the next scrape
boundary — it is an observer only and never calls ``_schedule``, so a
run's scheduled-event stream is bit-identical with scraping on or off
(the same invariant every prior observability layer upheld, now for
sampled state).

Exports:

* :meth:`Scraper.to_dict` / :meth:`Scraper.to_json` — the
  ``TIMESERIES.json`` artifact (``to_json`` sorts keys, so two runs with
  the same seed produce byte-identical files).
* :meth:`Scraper.openmetrics` — OpenMetrics-style text with per-sample
  timestamps and histogram exemplars, terminated by ``# EOF``.

:func:`install_telemetry` wires all of this (plus the SLO engine and
registry exemplars) behind the ``scrape_interval_s`` / ``slo_enabled`` /
``exemplars_enabled`` store knobs, default-off like every other
observability attachment.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from itertools import accumulate

from repro.obs.registry import Histogram, MetricsRegistry, _fmt_labels, _fmt_value, _label_key
from repro.obs.tracer import Tracer

#: Circuit-breaker states as scraped gauge values.
BREAKER_STATE_VALUE = {"closed": 0, "half_open": 1, "open": 2}

#: The service resources scraped per node, in a fixed order.
_NODE_RESOURCES = ("cpu", "disk", "nic_in", "nic_out")


def _resources(node) -> tuple:
    return node.cpu, node.disk.device, node.endpoint.ingress, node.endpoint.egress


#: Live-state series in the order :meth:`Scraper._sample` reads them: per
#: node (the breaker gauge only once a board is installed), then per node
#: resource, then per cluster.
_NODE_SERIES = (
    "repro_node_up",
    "repro_node_suspect",
    "repro_node_health_tier",
    "repro_node_disk_slow_factor",
    "repro_node_breaker_state",
)
_RESOURCE_SERIES = ("repro_node_queue_depth", "repro_node_inflight")
_CLUSTER_SERIES = (
    "repro_cluster_requests_total",
    "repro_cluster_bad_requests_total",
    "repro_cluster_network_bytes",
    "repro_cluster_repair_bytes",
    "repro_cluster_rebalance_bytes",
    "repro_cluster_read_repair_bytes",
    "repro_cluster_quorum_lost_total",
    "repro_cluster_severed_links",
    "repro_cluster_migrations_inflight",
)


class Scraper:
    """Samples registry + cluster state into in-memory time series.

    Series are keyed by ``(metric name, sorted label items)`` and stored
    as two ``array('d')`` columns (sample times, values): no object per
    point, and a trailing window is a ``bisect`` on the time column, so
    neither a scrape nor an SLO evaluation depends on how much history
    the series holds.  Histogram families keep full bucket snapshots per
    sample so windowed quantiles can be derived from bucket deltas
    between two scrape points.
    """

    def __init__(self, cluster, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError("scrape interval must be > 0 simulated seconds")
        self.cluster = cluster
        self.sim = cluster.sim
        self.interval_s = float(interval_s)
        #: Scrape timestamps, in simulated seconds (k * interval, k >= 1).
        self.times: list[float] = []
        self._next_t = self.interval_s
        #: (name, label key) -> (times, values) columns.
        self._points: dict[tuple[str, tuple], tuple[array, array]] = {}
        #: (name, label key) -> (times, [(count, sum, cumulative counts)], bounds).
        self._hist: dict[tuple[str, tuple], tuple[array, list[tuple], list[float]]] = {}
        #: On-sample hooks: ``callback(scraper, t)`` after each sample
        #: lands (the SLO engine registers here).  Observers only.
        self.on_sample: list = []
        self._installed = False
        # Collectors bound to their columns, rebuilt when ``_shape`` moves.
        self._shape: tuple | None = None
        self._scalars: list[tuple] = []  # (Counter | Gauge, times, values)
        self._histograms: list[tuple] = []  # (Histogram, times, snapshots)
        self._state: list[tuple[array, array]] = []  # one per live-state value

    # -- wiring ------------------------------------------------------------

    def install(self) -> None:
        """Attach to the simulator's clock-listener hook (idempotent)."""
        if not self._installed:
            self.sim.add_clock_listener(self._on_clock)
            self._installed = True

    def _on_clock(self, to: float) -> float:
        # Fire once per scrape boundary crossed by this clock advance, and
        # ask the kernel not to call again before the next boundary.
        # Boundaries are computed as k * interval from the sample count
        # (not by accumulating floats), so long runs cannot drift.
        while self._next_t <= to:
            self._sample(self._next_t)
            self._next_t = (len(self.times) + 1) * self.interval_s
        return self._next_t

    # -- sampling ----------------------------------------------------------

    def _column(self, name: str, label_key: tuple) -> tuple[array, array]:
        """The series' columns; a series exists from its first sample on."""
        key = (name, label_key)
        columns = self._points.get(key)
        if columns is None:
            columns = self._points[key] = (array("d"), array("d"))
        return columns

    def _bind(self, registry, breakers) -> None:
        """Resolve every collector's columns once; their labels are constants."""
        self._scalars, self._histograms = [], []
        if registry is not None:
            for name, family in registry._families.items():
                for label_key, inst in family.metrics.items():
                    if not isinstance(inst, Histogram):
                        self._scalars.append((inst, *self._column(name, label_key)))
                        continue
                    times, snapshots, _bounds = self._hist.setdefault(
                        (name, label_key), (array("d"), [], list(inst.bounds))
                    )
                    self._histograms.append((inst, times, snapshots))
        node_series = _NODE_SERIES if breakers is not None else _NODE_SERIES[:-1]
        keys = []
        for node in self.cluster.nodes:
            nid = str(node.node_id)
            keys += [(name, (("node", nid),)) for name in node_series]
            for rname in _NODE_RESOURCES:
                resource_key = (("node", nid), ("resource", rname))
                keys += [(name, resource_key) for name in _RESOURCE_SERIES]
        keys += [(name, ()) for name in _CLUSTER_SERIES]
        self._state = [self._column(name, label_key) for name, label_key in keys]

    def _sample(self, t: float) -> None:
        cluster = self.cluster
        registry = cluster.metrics.registry
        breakers = cluster.breakers
        # Breakers installed later, a joined node, a new registry family
        # or label set: each gets its series from this sample on.
        families = registry._families.values() if registry is not None else ()
        shape = (registry, sum(len(f.metrics) for f in families), breakers, len(cluster.nodes))
        if shape != self._shape:
            self._bind(registry, breakers)
            self._shape = shape
        for inst, times, values in self._scalars:
            times.append(t)
            values.append(inst.value)
        for hist, times, snapshots in self._histograms:
            times.append(t)
            snapshots.append((hist.count, hist.sum, tuple(accumulate(hist.counts))))

        # Live cluster state, beyond what the registry accumulates; one
        # value per ``_state`` column, in ``_bind``'s order.
        health = cluster.health
        row: list[float] = []
        for node in cluster.nodes:
            nid = node.node_id
            row += (
                0.0 if health.down[nid] else 1.0,
                1.0 if health.is_suspect(nid) else 0.0,
                health.tier_value(nid),
                node.disk.slow_factor,
            )
            if breakers is not None:
                row.append(BREAKER_STATE_VALUE.get(breakers.state[nid], 0))
            for resource in _resources(node):
                row += (resource.queue_length, resource.in_use)
        cm = cluster.metrics
        row += (
            len(cm.queries),
            cm.requests_rejected + cm.deadline_exceeded + cm.quota_exceeded,
            cm.network_bytes,
            cm.repair_bytes,
            cm.rebalance_bytes,
            cm.read_repair_bytes,
            cm.quorum_lost_total,
            cluster.network.severed_link_count(),
            len(cluster.migrations),
        )
        for (times, values), value in zip(self._state, row):
            times.append(t)
            values.append(value)

        # Per-tenant DRR state: queued entries and deficit counters,
        # aggregated over every node resource with a fair queue attached.
        if cluster.qos is not None:
            queued: dict[str, int] = {}
            deficit: dict[str, float] = {}
            for node in cluster.nodes:
                for resource in _resources(node):
                    fair = resource.fair
                    if fair is None:
                        continue
                    for tier in fair._tiers.values():
                        for tenant, q in tier.queues.items():
                            if q:
                                queued[tenant] = queued.get(tenant, 0) + len(q)
                        for tenant, d in tier.deficit.items():
                            deficit[tenant] = deficit.get(tenant, 0.0) + d
            for tenant in set(queued) | set(deficit) | set(cluster.qos.stats):
                label_key = (("tenant", tenant),)
                for name, value in (
                    ("repro_tenant_queue_depth", queued.get(tenant, 0)),
                    ("repro_tenant_deficit", deficit.get(tenant, 0.0)),
                ):
                    times, values = self._column(name, label_key)
                    times.append(t)
                    values.append(value)

        self.times.append(t)
        for callback in self.on_sample:
            callback(self, t)

    # -- derivation --------------------------------------------------------

    def _series(self, name: str, labels: dict | None):
        return self._points.get((name, _label_key(labels or {})))

    def latest(self, name: str, labels: dict | None = None) -> float | None:
        """Most recent sampled value of a series, or ``None``."""
        columns = self._series(name, labels)
        return columns[1][-1] if columns else None

    def delta(
        self, name: str, labels: dict | None = None,
        window_s: float = math.inf, at: float | None = None,
    ) -> float:
        """Increase of a (cumulative) series over the trailing window."""
        columns = self._series(name, labels)
        if columns is None:
            return 0.0
        times, values = columns
        start, end = _window(times, window_s, at)
        if end == 0:
            return 0.0
        return values[end - 1] - (values[start - 1] if start else 0.0)

    def rate(
        self, name: str, labels: dict | None = None,
        window_s: float | None = None, at: float | None = None,
    ) -> float:
        """Per-simulated-second rate of a cumulative series."""
        window = self.interval_s if window_s is None else window_s
        if window <= 0:
            return 0.0
        return self.delta(name, labels, window, at) / window

    def window_values(
        self, name: str, labels: dict | None = None,
        window_s: float = math.inf, at: float | None = None,
    ) -> list[float]:
        """Raw sampled values of a series inside the trailing window."""
        columns = self._series(name, labels)
        if columns is None:
            return []
        times, values = columns
        start, end = _window(times, window_s, at)
        return values[start:end].tolist()

    def _hist_window_delta(self, name, labels, window_s, at):
        got = self._hist.get((name, _label_key(labels or {})))
        if got is None:
            return None
        times, snapshots, bounds = got
        start, end = _window(times, window_s, at)
        if end == 0:
            return None
        count, _sum, cumulative = snapshots[end - 1]
        if start == 0:
            return bounds, count, list(cumulative)
        count0, _sum0, cumulative0 = snapshots[start - 1]
        return bounds, count - count0, [e - s for e, s in zip(cumulative, cumulative0)]

    def window_quantile(
        self, name: str, q: float, labels: dict | None = None,
        window_s: float = math.inf, at: float | None = None,
    ) -> float | None:
        """Nearest-rank quantile of a scraped histogram's observations
        that landed inside the trailing window (bucket-delta estimate,
        reported at bucket upper bounds).  ``None`` with no observations."""
        got = self._hist_window_delta(name, labels, window_s, at)
        if got is None:
            return None
        bounds, total, cumulative = got
        if total <= 0:
            return None
        rank = max(1, math.ceil(q * total))
        for i, c in enumerate(cumulative):
            if c >= rank:
                return bounds[i] if i < len(bounds) else math.inf
        return math.inf

    def window_fraction_above(
        self, name: str, threshold: float, labels: dict | None = None,
        window_s: float = math.inf, at: float | None = None,
    ) -> float | None:
        """Fraction of windowed histogram observations above ``threshold``
        (conservative: a bucket counts as below iff its upper bound is
        ``<= threshold``).  ``None`` with no observations in the window."""
        got = self._hist_window_delta(name, labels, window_s, at)
        if got is None:
            return None
        bounds, total, cumulative = got
        if total <= 0:
            return None
        below = 0
        for bound, c in zip(bounds, cumulative):
            if bound <= threshold:
                below = c
            else:
                break
        return (total - below) / total

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        series: dict[str, list] = {}
        for key in sorted(self._points):
            name, label_key = key
            series.setdefault(name, []).append(
                {"labels": dict(label_key), "points": list(map(list, zip(*self._points[key])))}
            )
        histograms: dict[str, list] = {}
        for key in sorted(self._hist):
            name, label_key = key
            histograms.setdefault(name, []).append(
                {
                    "labels": dict(label_key),
                    "bounds": self._hist[key][2] + ["+Inf"],
                    "snapshots": [
                        {"t": t, "count": count, "sum": total, "buckets": list(cum)}
                        for t, (count, total, cum) in zip(*self._hist[key][:2])
                    ],
                }
            )
        return {
            "scrape_interval_s": self.interval_s,
            "samples": len(self.times),
            "times": list(self.times),
            "series": series,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys): same seed + interval ⇒
        byte-identical TIMESERIES.json."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def openmetrics(self) -> str:
        """OpenMetrics-style text: every sample point with its simulated
        timestamp; histograms as their final snapshot with exemplars
        (``# {trace_id="..."} value`` syntax); ``# EOF`` terminated."""
        lines: list[str] = []
        emitted_type: set[str] = set()
        registry = self.cluster.metrics.registry

        for key in sorted(self._points):
            name, label_key = key
            if name not in emitted_type:
                kind = "gauge"
                if registry is not None and name in registry._families:
                    kind = registry._families[name].kind
                lines.append(f"# TYPE {name} {kind}")
                emitted_type.add(name)
            label_str = _fmt_labels(dict(label_key))
            for t, v in zip(*self._points[key]):
                lines.append(f"{name}{label_str} {_fmt_value(v)} {t}")

        for key in sorted(self._hist):
            name, label_key = key
            if name not in emitted_type:
                lines.append(f"# TYPE {name} histogram")
                emitted_type.add(name)
            labels = dict(label_key)
            times, snapshots, bounds = self._hist[key]
            t = times[-1]
            count, total, cum = snapshots[-1]
            exemplars: dict[int, tuple[float, int]] = {}
            if registry is not None and name in registry._families:
                inst = registry._families[name].metrics.get(label_key)
                if isinstance(inst, Histogram):
                    exemplars = inst.exemplars
            for i, (bound, c) in enumerate(zip(bounds + [math.inf], cum)):
                line = (
                    f"{name}_bucket"
                    f"{_fmt_labels({**labels, 'le': _fmt_value(bound)})} {c} {t}"
                )
                ex = exemplars.get(i)
                if ex is not None:
                    value, trace_id = ex
                    line += f' # {{trace_id="{trace_id}"}} {_fmt_value(value)}'
                lines.append(line)
            lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(total)} {t}")
            lines.append(f"{name}_count{_fmt_labels(labels)} {count} {t}")

        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _window(times: array, window_s: float, at: float | None) -> tuple[int, int]:
    """``(start, end)`` sample counts of a trailing window over a time
    column: ``end`` samples lie at or before ``at`` (default: the last
    sample), ``start`` of them at or before ``at - window_s``; the window
    ``(at - window_s, at]`` is ``[start:end]``."""
    if at is None:
        at = times[-1]
    end = bisect_right(times, at)
    return bisect_right(times, at - window_s, 0, end), end


def install_telemetry(cluster, config) -> None:
    """Install the continuous-telemetry layer behind the store knobs.

    Idempotent for every store built on one cluster (same pattern as
    admission control / QoS) and a no-op at the default knobs.  Enabling
    any telemetry knob force-installs a metrics registry; exemplars also
    force-install the tracer (trace ids must exist to be captured).
    """
    scrape = config.scrape_interval_s
    slo = config.slo_enabled
    exemplars = config.exemplars_enabled
    if not scrape and not slo and not exemplars:
        return
    sim = cluster.sim
    if exemplars and sim.tracer is None:
        sim.tracer = Tracer(sim)
    if cluster.metrics.registry is None:
        cluster.metrics.registry = MetricsRegistry(exemplars_enabled=exemplars)
    elif exemplars:
        cluster.metrics.registry.exemplars_enabled = True
    if (scrape or slo) and cluster.scraper is None:
        interval = scrape if scrape > 0 else 0.25
        scraper = Scraper(cluster, interval)
        scraper.install()
        cluster.scraper = scraper
    if slo and cluster.slo is None:
        from repro.obs.slo import SLOEngine, default_objectives

        cluster.slo = SLOEngine(
            cluster.scraper,
            default_objectives(config),
            registry=cluster.metrics.registry,
            tracer=sim.tracer,
        )


__all__ = ["BREAKER_STATE_VALUE", "Scraper", "install_telemetry"]
