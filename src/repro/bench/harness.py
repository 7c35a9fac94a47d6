"""Experiment harness: build store pairs, drive concurrent query workloads.

The paper's evaluation methodology: 10 client threads issue queries
against the store and report median/tail latency.  Here each system under
test gets its *own* simulator and cluster (they must not contend with each
other), loaded with the same dataset, and a closed-loop client pool drives
the workload inside the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.metrics import CATEGORIES, QueryMetrics, percentile
from repro.cluster.simcore import Simulator
from repro.core.baseline_store import BaselineStore
from repro.core.config import StoreConfig
from repro.core.store import FusionStore
from repro.obs.registry import MetricsRegistry, export_merged
from repro.obs.slo import SLOEngine, default_objectives
from repro.obs.timeseries import Scraper
from repro.obs.tracer import Tracer
from repro.sql.local import QueryResult

#: Paper object sizes, for deriving per-dataset simulation scale factors.
PAPER_DATASET_BYTES = {
    "lineitem": 10 * 10**9,
    "taxi": int(8.4 * 10**9),
    "recipe": int(0.98 * 10**9),
    "ukpp": int(1.5 * 10**9),
}


@dataclass
class SystemUnderTest:
    """One store on its own simulated cluster."""

    name: str
    sim: Simulator
    cluster: Cluster
    store: FusionStore | BaselineStore


@dataclass
class WorkloadStats:
    """Latency and traffic statistics from one workload run."""

    system: str
    metrics: list[QueryMetrics]
    results: list[QueryResult]
    network_bytes: int
    wall_seconds: float
    cpu_utilization: float
    cpu_busy_seconds: float = 0.0

    @property
    def cpu_seconds_per_query(self) -> float:
        """Busy CPU core-seconds per completed query (load-normalised)."""
        if not self.metrics:
            return 0.0
        return self.cpu_busy_seconds / len(self.metrics)

    @property
    def latencies(self) -> list[float]:
        return [m.latency for m in self.metrics]

    @property
    def rpcs_issued(self) -> int:
        """Wire messages sent across all queries (loopback excluded)."""
        return sum(m.rpcs_issued for m in self.metrics)

    @property
    def rpcs_saved(self) -> int:
        """Per-op messages coalesced away by scatter-gather batching."""
        return sum(m.rpcs_saved for m in self.metrics)

    def mean_latency(self) -> float:
        if not self.metrics:
            return 0.0
        return sum(self.latencies) / len(self.metrics)

    def p50(self) -> float:
        return percentile(self.latencies, 50)

    def p99(self) -> float:
        return percentile(self.latencies, 99)

    def mean_breakdown(self) -> dict[str, float]:
        """Average per-category latency fraction across queries."""
        out = {c: 0.0 for c in CATEGORIES}
        for m in self.metrics:
            for c, v in m.breakdown_fractions().items():
                out[c] += v
        n = max(1, len(self.metrics))
        return {c: v / n for c, v in out.items()}


def reduction_pct(baseline: float, candidate: float) -> float:
    """Latency reduction of ``candidate`` relative to ``baseline`` (%)."""
    if baseline == 0:
        return 0.0
    return (baseline - candidate) / baseline * 100.0


#: When not None, :func:`build_system` attaches a :class:`Tracer` and a
#: :class:`MetricsRegistry` to every system it creates and records the
#: system here, so the CLI can export a merged trace and metrics dump
#: after the experiment ran.  Enabled by ``--trace-out``/``--metrics-out``
#: in :mod:`repro.bench.__main__`; never on during normal runs, so the
#: harness stays event-identical to the uninstrumented seed by default.
_OBS_CAPTURE: dict | None = None


def enable_obs_capture(
    scrape_interval: float = 0.0,
    slo: bool = False,
    exemplars: bool = False,
) -> None:
    """Start capturing traces and metrics from every system built.

    ``scrape_interval`` > 0 additionally installs a continuous-telemetry
    :class:`~repro.obs.timeseries.Scraper` on every system (``slo=True``
    adds the default SLO objectives on top); ``exemplars=True`` turns on
    histogram exemplars linking tail observations to trace ids.
    """
    global _OBS_CAPTURE
    _OBS_CAPTURE = {
        "systems": [],
        "scrape_interval": scrape_interval,
        "slo": slo,
        "exemplars": exemplars,
    }


def collect_obs() -> tuple[dict, str, dict]:
    """Exports from every system built since :func:`enable_obs_capture`.

    Returns ``(chrome_trace, prometheus_text, metrics_dict)`` where the
    Chrome trace merges all systems (one ``pid`` per system, named via
    ``process_name`` metadata), the Prometheus text is the merged export
    of every registry, and ``metrics_dict`` maps a per-system label to
    that registry's structured dump (the METRICS.json payload).
    """
    if _OBS_CAPTURE is None:
        raise RuntimeError("obs capture not enabled; call enable_obs_capture() first")
    events: list[dict] = []
    registries: list[MetricsRegistry] = []
    metrics: dict[str, dict] = {}
    for pid, sut in enumerate(_OBS_CAPTURE["systems"], start=1):
        label = f"{sut.name}#{pid}"
        if sut.sim.tracer is not None:
            events.extend(
                sut.sim.tracer.chrome_trace(pid=pid, process_name=label)["traceEvents"]
            )
        registry = sut.cluster.metrics.registry
        if registry is not None:
            registries.append(registry)
            metrics[label] = registry.to_dict()
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    return trace, export_merged(registries), metrics


def collect_telemetry() -> tuple[dict, dict]:
    """Per-system timeseries and SLO exports from the captured systems.

    Returns ``(timeseries_dict, alerts_dict)``, each keyed by the same
    per-system label :func:`collect_obs` uses; systems without a scraper
    or SLO engine are simply absent from the respective dict.
    """
    if _OBS_CAPTURE is None:
        raise RuntimeError("obs capture not enabled; call enable_obs_capture() first")
    timeseries: dict[str, dict] = {}
    alerts: dict[str, dict] = {}
    for pid, sut in enumerate(_OBS_CAPTURE["systems"], start=1):
        label = f"{sut.name}#{pid}"
        if sut.cluster.scraper is not None:
            timeseries[label] = sut.cluster.scraper.to_dict()
        if sut.cluster.slo is not None:
            alerts[label] = sut.cluster.slo.to_dict()
    return timeseries, alerts


def build_system(
    kind: str,
    objects: dict[str, bytes],
    cluster_config: ClusterConfig | None = None,
    store_config: StoreConfig | None = None,
    sim: Simulator | None = None,
) -> SystemUnderTest:
    """Create a cluster+store on ``sim`` and Put ``objects`` into it.

    ``kind`` is ``"fusion"`` or ``"baseline"``.  ``sim`` defaults to a
    fresh simulator; pass one to observe it from before the Put (e.g.
    with :func:`repro.cluster.record_schedule`).
    """
    sim = Simulator() if sim is None else sim
    cluster = Cluster(sim, cluster_config or ClusterConfig())
    if _OBS_CAPTURE is not None:
        # The ``sut`` ordinal keeps series distinct when one experiment
        # builds several systems of the same kind (e.g. a config sweep).
        sut = len(_OBS_CAPTURE["systems"]) + 1
        sim.tracer = Tracer(sim)
        cluster.metrics.registry = MetricsRegistry(
            const_labels={"system": kind, "sut": str(sut)},
            exemplars_enabled=_OBS_CAPTURE.get("exemplars", False),
        )
        interval = _OBS_CAPTURE.get("scrape_interval", 0.0)
        if interval:
            scraper = Scraper(cluster, interval)
            scraper.install()
            cluster.scraper = scraper
            if _OBS_CAPTURE.get("slo"):
                cluster.slo = SLOEngine(
                    scraper,
                    default_objectives(store_config or StoreConfig()),
                    registry=cluster.metrics.registry,
                    tracer=sim.tracer,
                )
    if kind == "fusion":
        store: FusionStore | BaselineStore = FusionStore(cluster, store_config)
    elif kind == "baseline":
        store = BaselineStore(cluster, store_config)
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    for name, data in objects.items():
        store.put(name, data)
    system = SystemUnderTest(name=kind, sim=sim, cluster=cluster, store=store)
    if _OBS_CAPTURE is not None:
        _OBS_CAPTURE["systems"].append(system)
    return system


def build_pair(
    objects: dict[str, bytes],
    cluster_config: ClusterConfig | None = None,
    store_config: StoreConfig | None = None,
) -> tuple[SystemUnderTest, SystemUnderTest]:
    """Fusion and baseline systems with identical configs and datasets."""
    fusion = build_system("fusion", objects, cluster_config, store_config)
    baseline = build_system("baseline", objects, cluster_config, store_config)
    return fusion, baseline


def run_workload(
    system: SystemUnderTest,
    sqls: list[str],
    num_clients: int = 10,
    num_queries: int = 100,
) -> WorkloadStats:
    """Closed-loop workload: ``num_clients`` concurrent clients issue
    ``num_queries`` queries total, round-robin over ``sqls``."""
    if not sqls:
        raise ValueError("no queries to run")
    if num_clients < 1 or num_queries < 1:
        raise ValueError("need at least one client and one query")

    sim = system.sim
    store = system.store
    metrics_out: list[QueryMetrics] = []
    results_out: list[QueryResult] = []

    start = sim.now
    net_before = system.cluster.network.total_bytes
    cpu_before = [node.cpu.busy_time for node in system.cluster.nodes]

    per_client = [num_queries // num_clients] * num_clients
    for i in range(num_queries % num_clients):
        per_client[i] += 1

    def client(cid: int, count: int):
        for qi in range(count):
            sql = sqls[(cid + qi * num_clients) % len(sqls)]
            qm = QueryMetrics()
            result = yield from store.query_process(sql, qm)
            metrics_out.append(qm)
            results_out.append(result)

    for cid, count in enumerate(per_client):
        if count:
            sim.process(client(cid, count))
    sim.run()

    elapsed = sim.now - start
    # Account CPU utilisation over the workload window.
    for node in system.cluster.nodes:
        node.cpu._account()
    busy = sum(
        node.cpu.busy_time - before
        for node, before in zip(system.cluster.nodes, cpu_before)
    )
    cores = sum(node.cpu.capacity for node in system.cluster.nodes)
    cpu_util = busy / (elapsed * cores) if elapsed > 0 else 0.0

    return WorkloadStats(
        system=system.name,
        metrics=metrics_out,
        results=results_out,
        network_bytes=system.cluster.network.total_bytes - net_before,
        wall_seconds=elapsed,
        cpu_utilization=cpu_util,
        cpu_busy_seconds=busy,
    )


def run_open_loop(
    system: SystemUnderTest,
    sqls: list[str],
    rate_qps: float,
    duration_s: float,
) -> WorkloadStats:
    """Open-loop workload at a fixed arrival rate (the Fig 14d load)."""
    if rate_qps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    sim = system.sim
    store = system.store
    metrics_out: list[QueryMetrics] = []
    results_out: list[QueryResult] = []
    start = sim.now
    net_before = system.cluster.network.total_bytes
    cpu_before = [node.cpu.busy_time for node in system.cluster.nodes]

    def one_query(sql: str):
        qm = QueryMetrics()
        result = yield from store.query_process(sql, qm)
        metrics_out.append(qm)
        results_out.append(result)

    def arrival_generator():
        interval = 1.0 / rate_qps
        count = int(rate_qps * duration_s)
        for i in range(count):
            sim.process(one_query(sqls[i % len(sqls)]))
            yield sim.timeout(interval)

    sim.process(arrival_generator())
    sim.run()

    elapsed = sim.now - start
    for node in system.cluster.nodes:
        node.cpu._account()
    busy = sum(
        node.cpu.busy_time - before
        for node, before in zip(system.cluster.nodes, cpu_before)
    )
    cores = sum(node.cpu.capacity for node in system.cluster.nodes)
    cpu_util = busy / (elapsed * cores) if elapsed > 0 else 0.0

    return WorkloadStats(
        system=system.name,
        metrics=metrics_out,
        results=results_out,
        network_bytes=system.cluster.network.total_bytes - net_before,
        wall_seconds=elapsed,
        cpu_utilization=cpu_util,
        cpu_busy_seconds=busy,
    )


@dataclass
class Comparison:
    """Fusion-vs-baseline statistics for one workload."""

    label: str
    fusion: WorkloadStats
    baseline: WorkloadStats
    extra: dict = field(default_factory=dict)

    @property
    def p50_reduction(self) -> float:
        return reduction_pct(self.baseline.p50(), self.fusion.p50())

    @property
    def p99_reduction(self) -> float:
        return reduction_pct(self.baseline.p99(), self.fusion.p99())

    @property
    def traffic_ratio(self) -> float:
        """Baseline network bytes / Fusion network bytes (>1: Fusion wins)."""
        if self.fusion.network_bytes == 0:
            return float("inf")
        return self.baseline.network_bytes / self.fusion.network_bytes
