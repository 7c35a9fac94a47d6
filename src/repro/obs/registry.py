"""Named metrics: counters, gauges, and log-bucketed histograms.

A :class:`MetricsRegistry` is a flat namespace of metric families, each
holding one instance per label set — the Prometheus data model, sized
for this repo: pure Python, no wall-clock, no background scraping.
``export()`` renders the Prometheus text exposition format and
``to_dict()`` a JSON-able structure (the bench harness's
``METRICS.json`` artifact).

Histograms are log-bucketed: upper bounds grow by a fixed factor (2x by
default) from a floor, so one bucket layout spans microseconds to
kilo-seconds (or bytes to terabytes) with ~40 buckets.  Quantiles are
nearest-rank over the cumulative bucket counts, reported at each
bucket's upper bound (the exact maximum is tracked and used for the
overflow bucket), which is the usual Prometheus-side estimate.

The registry feeds from :class:`~repro.cluster.metrics.ClusterMetrics`:
when a store's ``metrics_registry_enabled`` knob is on it installs a
registry as ``cluster.metrics.registry`` and every
``record_query``/``record_repair`` call updates the named metrics —
pure bookkeeping on the metadata plane, zero simulation events.
"""

from __future__ import annotations

import math
import re

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value) -> str:
    # Prometheus text exposition: label values escape backslash, the
    # double quote, and line feed (a raw newline would truncate the
    # sample line and corrupt every line after it).
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(value) -> str:
    # HELP text escapes backslash and line feed (quotes are legal there).
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict) -> None:
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


def log_buckets(lo: float, hi: float, factor: float = 2.0) -> list[float]:
    """Geometric bucket upper bounds from ``lo`` up to at least ``hi``."""
    if lo <= 0 or factor <= 1:
        raise ValueError("need lo > 0 and factor > 1")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return bounds


#: Default layouts: seconds (1 µs .. ~1000 s) and bytes (64 B .. ~4 TB).
SECONDS_BUCKETS = log_buckets(1e-6, 1.1e3)
BYTES_BUCKETS = log_buckets(64.0, 4.4e12, factor=4.0)


class Histogram:
    """Log-bucketed distribution with nearest-rank quantile estimates."""

    __slots__ = ("labels", "bounds", "counts", "count", "sum", "max_value", "exemplars")

    def __init__(self, labels: dict, bounds: list[float] | None = None) -> None:
        self.labels = labels
        self.bounds = list(bounds or SECONDS_BUCKETS)
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.max_value = -math.inf
        #: bucket index -> (value, trace_id) of the largest exemplared
        #: observation that landed in the bucket (OpenMetrics exemplars).
        self.exemplars: dict[int, tuple[float, int]] = {}

    def observe(self, value: float, trace_id: int | None = None) -> None:
        self.count += 1
        self.sum += value
        if value > self.max_value:
            self.max_value = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        if trace_id is not None:
            held = self.exemplars.get(lo)
            if held is None or value >= held[0]:
                self.exemplars[lo] = (value, trace_id)

    def exemplar_for_quantile(self, q: float) -> tuple[float, int] | None:
        """The exemplar anchoring quantile ``q``: the (value, trace_id)
        captured in the bucket the nearest-rank estimate falls in, or —
        when that bucket never saw an exemplared observation — the
        nearest exemplared bucket at or above it.  ``None`` when the
        histogram holds no exemplars at all."""
        if not self.exemplars:
            return None
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        target = len(self.counts) - 1
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                target = i
                break
        for i in range(target, len(self.counts)):
            if i in self.exemplars:
                return self.exemplars[i]
        for i in range(target - 1, -1, -1):
            if i in self.exemplars:
                return self.exemplars[i]
        return None

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (``q`` in [0, 1])."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max_value
        return self.max_value

    def p50(self) -> float:
        return self.quantile(0.50)

    def p95(self) -> float:
        return self.quantile(0.95)

    def p99(self) -> float:
        return self.quantile(0.99)


class _Family:
    __slots__ = ("name", "kind", "help", "metrics", "bounds")

    def __init__(self, name, kind, help_, bounds=None):
        self.name = name
        self.kind = kind
        self.help = help_
        self.metrics: dict[tuple, object] = {}
        self.bounds = bounds


class MetricsRegistry:
    """A namespace of metric families with Prometheus/JSON export.

    ``const_labels`` are stamped onto every sample at export time (the
    bench harness labels each system-under-test, so a merged export
    keeps fusion and baseline series distinct).
    """

    def __init__(
        self, const_labels: dict | None = None, exemplars_enabled: bool = False
    ) -> None:
        self.const_labels = dict(const_labels or {})
        self._families: dict[str, _Family] = {}
        #: (kind, name, label items as passed) -> the series' instance: a
        #: series is checked and resolved on first use only.
        self._bound: dict[tuple, Counter | Gauge | Histogram] = {}
        #: When on, ``record_query`` forwards each query's ``trace_id``
        #: into the latency histograms as a bucket exemplar.
        self.exemplars_enabled = exemplars_enabled

    # -- family accessors --------------------------------------------------

    def _family(self, name: str, kind: str, help_: str, bounds=None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_, bounds)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def _instance(self, family: _Family, labels: dict, factory):
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        key = _label_key(labels)
        inst = family.metrics.get(key)
        if inst is None:
            inst = factory()
            family.metrics[key] = inst
        return inst

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        key = ("counter", name, *labels.items())
        inst = self._bound.get(key)
        if inst is None:
            family = self._family(name, "counter", help)
            inst = self._bound[key] = self._instance(family, labels, lambda: Counter(labels))
        return inst

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        key = ("gauge", name, *labels.items())
        inst = self._bound.get(key)
        if inst is None:
            family = self._family(name, "gauge", help)
            inst = self._bound[key] = self._instance(family, labels, lambda: Gauge(labels))
        return inst

    def histogram(
        self, name: str, help: str = "", buckets: list[float] | None = None, **labels
    ) -> Histogram:
        key = ("histogram", name, *labels.items())
        inst = self._bound.get(key)
        if inst is None:
            family = self._family(name, "histogram", help, buckets)
            inst = self._bound[key] = self._instance(
                family, labels, lambda: Histogram(labels, family.bounds)
            )
        return inst

    # -- the ClusterMetrics feed ------------------------------------------

    def record_query(self, qm) -> None:
        """Fold one finished query's :class:`QueryMetrics` into the registry."""
        self.counter("repro_queries_total", "Queries completed").inc()
        exemplar = qm.trace_id if self.exemplars_enabled else None
        self.histogram(
            "repro_query_latency_seconds", "End-to-end query latency"
        ).observe(qm.latency, trace_id=exemplar)
        self.histogram(
            "repro_query_network_bytes",
            "Simulated network bytes moved per query",
            buckets=BYTES_BUCKETS,
        ).observe(qm.network_bytes)
        for category, seconds in qm.seconds.items():
            self.counter(
                "repro_query_busy_seconds_total",
                "Accounted busy time by category",
                category=category,
            ).inc(seconds)
        self.counter(
            "repro_pushdown_chunks_total",
            "Per-chunk Cost Equation outcomes",
            decision="pushdown",
        ).inc(qm.pushed_down_chunks)
        self.counter(
            "repro_pushdown_chunks_total",
            "Per-chunk Cost Equation outcomes",
            decision="fallback",
        ).inc(qm.fallback_chunks)
        self.counter("repro_rpcs_total", "Wire messages", kind="issued").inc(qm.rpcs_issued)
        self.counter("repro_rpcs_total", "Wire messages", kind="saved").inc(qm.rpcs_saved)
        self.counter("repro_op_retries_total", "Remote ops re-attempted").inc(qm.retries)
        self.counter("repro_op_timeouts_total", "Remote op timeouts").inc(qm.timeouts)
        self.counter(
            "repro_degraded_reads_total", "Reads answered by EC reconstruction"
        ).inc(qm.degraded_reads)
        self.counter(
            "repro_checksum_failures_total", "End-to-end checksum mismatches"
        ).inc(qm.checksum_failures)
        self.counter(
            "repro_requests_rejected_total", "Requests refused at a full admission queue"
        ).inc(qm.requests_rejected)
        self.counter(
            "repro_deadline_exceeded_total", "Operations abandoned past their deadline"
        ).inc(qm.deadline_exceeded)
        self.counter(
            "repro_breaker_open_total", "Circuit-breaker trips to open"
        ).inc(qm.breaker_open_total)
        self.counter(
            "repro_partial_results_total", "Scan queries answered partially under shed"
        ).inc(qm.partial_results)
        self.counter(
            "repro_cancellations_total", "In-flight child ops cancelled (not orphaned)"
        ).inc(qm.cancellations)
        self.counter(
            "repro_refusal_attempts_total",
            "Individual refused op attempts (retries of one request count each)",
        ).inc(qm.refusal_attempts)
        self.counter(
            "repro_quota_exceeded_total", "Requests refused over tenant quota"
        ).inc(qm.quota_exceeded)
        if qm.tenant is not None:
            tenant = qm.tenant
            self.counter(
                "repro_tenant_queries_total", "Queries completed per tenant",
                tenant=tenant,
            ).inc()
            self.histogram(
                "repro_tenant_query_latency_seconds",
                "End-to-end query latency per tenant",
                tenant=tenant,
            ).observe(qm.latency, trace_id=exemplar)
            self.counter(
                "repro_tenant_requests_rejected_total",
                "Requests refused at a full admission queue, per tenant",
                tenant=tenant,
            ).inc(qm.requests_rejected)
            self.counter(
                "repro_tenant_deadline_exceeded_total",
                "Operations abandoned past their deadline, per tenant",
                tenant=tenant,
            ).inc(qm.deadline_exceeded)
            self.counter(
                "repro_tenant_quota_exceeded_total",
                "Requests refused over quota, per tenant",
                tenant=tenant,
            ).inc(qm.quota_exceeded)

    def record_repair(self, nbytes: int, blocks: int, seconds: float) -> None:
        """Fold one repair run's totals into the registry."""
        self.counter("repro_repair_runs_total", "Repair runs completed").inc()
        self.counter("repro_repair_bytes_total", "Simulated repair traffic").inc(nbytes)
        self.counter("repro_repair_blocks_total", "Blocks rebuilt by repair").inc(blocks)
        self.counter("repro_repair_seconds_total", "Simulated time spent repairing").inc(
            seconds
        )

    def record_rebalance(self, nbytes: int, blocks: int, seconds: float) -> None:
        """Fold one rebalance run's totals into the registry."""
        self.counter("repro_rebalance_runs_total", "Rebalance runs completed").inc()
        self.counter(
            "repro_rebalance_bytes_total", "Simulated rebalance traffic"
        ).inc(nbytes)
        self.counter(
            "repro_rebalance_blocks_total", "Blocks migrated by rebalance"
        ).inc(blocks)
        self.counter(
            "repro_rebalance_seconds_total", "Simulated time spent rebalancing"
        ).inc(seconds)

    # -- export ------------------------------------------------------------

    def export(self) -> str:
        """Prometheus text exposition format (one family per HELP/TYPE)."""
        return _export_families([self])

    def to_dict(self) -> dict:
        """JSON-able dump (the METRICS.json artifact)."""
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key in sorted(family.metrics):
                inst = family.metrics[key]
                labels = dict(key)
                if isinstance(inst, Histogram):
                    sample = {
                        "labels": labels,
                        "count": inst.count,
                        "sum": inst.sum,
                        "p50": inst.p50(),
                        "p95": inst.p95(),
                        "p99": inst.p99(),
                        "max": inst.max_value if inst.count else 0.0,
                        "buckets": {
                            _fmt_value(b): c
                            for b, c in zip(
                                list(inst.bounds) + [math.inf],
                                _cumulative(inst.counts),
                            )
                        },
                    }
                    if inst.exemplars:
                        bounds = list(inst.bounds) + [math.inf]
                        sample["exemplars"] = {
                            _fmt_value(bounds[i]): {
                                "value": value,
                                "trace_id": trace_id,
                            }
                            for i, (value, trace_id) in sorted(
                                inst.exemplars.items()
                            )
                        }
                    samples.append(sample)
                else:
                    samples.append({"labels": labels, "value": inst.value})
            out[name] = {"type": family.kind, "help": family.help, "samples": samples}
        return out


def _cumulative(counts: list[int]) -> list[int]:
    total = 0
    out = []
    for c in counts:
        total += c
        out.append(total)
    return out


def export_merged(registries: list[MetricsRegistry]) -> str:
    """One Prometheus text document over several registries.

    Families with the same name share one ``HELP``/``TYPE`` header;
    every sample carries its registry's ``const_labels``, so series from
    different systems under test stay distinct.
    """
    return _export_families(registries)


def _export_families(registries: list[MetricsRegistry]) -> str:
    merged: dict[str, list[tuple[_Family, dict]]] = {}
    for registry in registries:
        for name, family in registry._families.items():
            merged.setdefault(name, []).append((family, registry.const_labels))
    lines: list[str] = []
    for name in sorted(merged):
        entries = merged[name]
        kinds = {family.kind for family, _cl in entries}
        if len(kinds) != 1:
            raise ValueError(f"metric {name!r} registered with conflicting types {kinds}")
        help_ = next((f.help for f, _cl in entries if f.help), "")
        lines.append(f"# HELP {name} {_escape_help(help_)}")
        lines.append(f"# TYPE {name} {entries[0][0].kind}")
        for family, const_labels in entries:
            for key in sorted(family.metrics):
                inst = family.metrics[key]
                labels = {**const_labels, **dict(key)}
                if isinstance(inst, Histogram):
                    cumulative = _cumulative(inst.counts)
                    for bound, count in zip(
                        list(inst.bounds) + [math.inf], cumulative
                    ):
                        bucket_labels = {**labels, "le": _fmt_value(bound)}
                        lines.append(
                            f"{name}_bucket{_fmt_labels(bucket_labels)} {count}"
                        )
                    lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(inst.sum)}")
                    lines.append(f"{name}_count{_fmt_labels(labels)} {inst.count}")
                else:
                    lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(inst.value)}")
    return "\n".join(lines) + "\n"
