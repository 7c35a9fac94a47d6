"""Measurement plumbing for the simulated cluster.

Two levels of accounting:

* :class:`QueryMetrics` — per-query latency breakdown in the paper's four
  categories (disk read, data processing, network overhead, other), plus
  bytes moved over the network on behalf of the query.
* :class:`ClusterMetrics` — cluster-wide totals: network traffic and
  per-node CPU busy time (drives the Fig 14d CPU-utilisation comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DISK = "disk"
CPU = "processing"
NETWORK = "network"
OTHER = "other"

CATEGORIES = (DISK, CPU, NETWORK, OTHER)


@dataclass
class QueryMetrics:
    """Accounting for one query's execution."""

    start_time: float = 0.0
    end_time: float = 0.0
    seconds: dict[str, float] = field(default_factory=lambda: {c: 0.0 for c in CATEGORIES})
    network_bytes: int = 0
    #: Chunks of a pushdown stage (fused, projection, partial aggregate)
    #: answered in-situ / at the coordinator: once per chunk, by the path
    #: whose answer the query used, however many attempts it took.
    pushed_down_chunks: int = 0
    fallback_chunks: int = 0
    #: Wire messages sent on behalf of this query (loopback excluded).
    rpcs_issued: int = 0
    #: Per-op messages coalesced away by scatter-gather batching.
    rpcs_saved: int = 0
    #: Remote ops re-attempted after a failure (bounded retry with backoff).
    retries: int = 0
    #: Op timeouts observed (dropped request/reply, node dead mid-op).
    timeouts: int = 0
    #: Chunk/block reads answered by erasure-code reconstruction instead
    #: of the node that holds the data (dead or suspect node).
    degraded_reads: int = 0
    #: End-to-end checksum mismatches detected at the reader (direct
    #: reads and reconstructed bytes alike); each one was answered by
    #: reconstruction instead of surfacing bad bytes.
    checksum_failures: int = 0
    #: Requests refused at the door of a full admission queue.
    requests_rejected: int = 0
    #: Operations abandoned because their deadline expired (counted once
    #: per failed top-level op, at the point the typed error surfaces).
    deadline_exceeded: int = 0
    #: Circuit-breaker trips attributed to this query's failed ops.
    breaker_open_total: int = 0
    #: 1 when the query returned a typed PartialResult (shed chunks
    #: dropped under allow_partial_results) instead of failing.
    partial_results: int = 0
    #: In-flight child processes cancelled when this query's deadline or
    #: parent op died (none left orphaned).
    cancellations: int = 0
    #: Individual refused remote-op attempts (counted once per attempt).
    #: ``requests_rejected`` above counts once per logical request — a
    #: refused op that is retried and refused again bumps only this
    #: counter the second time.
    refusal_attempts: int = 0
    #: Requests refused at the frontend because the tenant's token-bucket
    #: quota ran dry (typed QuotaExceeded).
    quota_exceeded: int = 0
    #: QoS tenant id this request was admitted under; ``None`` means the
    #: request is untenanted and takes every legacy code path.
    tenant: str | None = None
    #: Admission-control lane: FOREGROUND (1) for client queries,
    #: BACKGROUND (0) for repair/scrub and injected background bursts.
    #: ``None`` would mean exempt, but per-query traffic always has a
    #: lane.
    priority: int = 1
    #: The operation's Deadline (set by the store when
    #: StoreConfig.default_deadline_s > 0), carried here so every layer
    #: the metrics already thread through can check it.
    deadline: object | None = None
    #: Root span id of this query's trace (stamped by ``traced`` when a
    #: tracer is installed); lets registry histogram exemplars link a
    #: tail latency observation back to the trace that produced it.
    trace_id: int | None = None

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time

    def add(self, category: str, seconds: float) -> None:
        if category not in self.seconds:
            raise KeyError(f"unknown category {category!r}; known: {CATEGORIES}")
        self.seconds[category] += seconds

    def breakdown_fractions(self) -> dict[str, float]:
        """Each category's share of the total accounted busy time.

        Work on parallel branches is summed, so fractions describe where
        effort went — the same normalisation the paper's stacked bars use.
        """
        total = sum(self.seconds.values())
        if total <= 0:
            return {c: 0.0 for c in CATEGORIES}
        return {c: v / total for c, v in self.seconds.items()}


@dataclass
class ClusterMetrics:
    """Totals across the whole simulation run."""

    network_bytes: int = 0
    disk_bytes: int = 0
    rpcs_issued: int = 0
    rpcs_saved: int = 0
    retries: int = 0
    timeouts: int = 0
    degraded_reads: int = 0
    #: Checksum mismatches detected across queries plus any caught by
    #: repair/scrub verification (silent-corruption detection coverage).
    checksum_failures: int = 0
    #: Overload-protection totals, summed from recorded queries (the
    #: CircuitBreakerBoard's ``opens`` list is the per-node view).
    requests_rejected: int = 0
    deadline_exceeded: int = 0
    breaker_open_total: int = 0
    partial_results: int = 0
    cancellations: int = 0
    refusal_attempts: int = 0
    quota_exceeded: int = 0
    #: Per-tenant roll-up: tenant id -> counter dict (queries, rejects,
    #: deadline misses, quota refusals, goodput).
    #: Only tenanted queries land here; untenanted runs leave it empty.
    tenants: dict = field(default_factory=dict)
    #: Repair traffic is accounted separately from query traffic: these
    #: bytes never enter ``network_bytes`` (which only accumulates via
    #: :meth:`record_query`), so availability experiments can report the
    #: cost of background repair on its own axis.
    repair_bytes: int = 0
    blocks_repaired: int = 0
    repair_seconds: float = 0.0
    #: Rebalance (membership-migration) traffic, accounted on its own
    #: axis exactly like repair: never mixed into ``network_bytes`` or
    #: ``repair_bytes``, so topology-churn experiments can report the
    #: cost of moving data to its ring position separately from both
    #: query traffic and failure repair.
    rebalance_bytes: int = 0
    blocks_migrated: int = 0
    rebalance_seconds: float = 0.0
    #: Anti-entropy read-repair traffic: stripes re-repaired because a
    #: foreground read had to reconstruct data.  Accounted on its own
    #: axis (never mixed into ``repair_bytes``) so experiments can
    #: report how much healing foreground traffic triggered.
    read_repair_bytes: int = 0
    blocks_read_repaired: int = 0
    read_repair_seconds: float = 0.0
    #: Metadata republishes refused because the coordinator could not
    #: reach a majority of the object's meta-replica holders (typed
    #: QuorumLost; each is a split-brain install that did NOT happen).
    quorum_lost_total: int = 0
    queries: list[QueryMetrics] = field(default_factory=list)
    #: Optional sink with ``record_query(qm)`` / ``record_repair(...)``
    #: methods (duck-typed so this module stays dependency-free); the
    #: stores install a :class:`repro.obs.MetricsRegistry` here when
    #: ``StoreConfig.metrics_registry_enabled`` is set.
    registry: object | None = None

    def record_query(self, qm: QueryMetrics) -> None:
        self.queries.append(qm)
        self.network_bytes += qm.network_bytes
        self.rpcs_issued += qm.rpcs_issued
        self.rpcs_saved += qm.rpcs_saved
        self.retries += qm.retries
        self.timeouts += qm.timeouts
        self.degraded_reads += qm.degraded_reads
        self.checksum_failures += qm.checksum_failures
        self.requests_rejected += qm.requests_rejected
        self.deadline_exceeded += qm.deadline_exceeded
        self.breaker_open_total += qm.breaker_open_total
        self.partial_results += qm.partial_results
        self.cancellations += qm.cancellations
        self.refusal_attempts += qm.refusal_attempts
        self.quota_exceeded += qm.quota_exceeded
        if qm.tenant is not None:
            t = self.tenants.get(qm.tenant)
            if t is None:
                t = self.tenants[qm.tenant] = {
                    "queries": 0,
                    "requests_rejected": 0,
                    "deadline_exceeded": 0,
                    "quota_exceeded": 0,
                    "goodput": 0,
                    "latencies": [],
                }
            t["queries"] += 1
            t["requests_rejected"] += qm.requests_rejected
            t["deadline_exceeded"] += qm.deadline_exceeded
            t["quota_exceeded"] += qm.quota_exceeded
            refused = qm.requests_rejected + qm.deadline_exceeded + qm.quota_exceeded
            if refused == 0:
                t["goodput"] += 1
                t["latencies"].append(qm.latency)
        if self.registry is not None:
            self.registry.record_query(qm)

    def record_repair(self, nbytes: int, blocks: int, seconds: float) -> None:
        """Account one repair run's traffic, separate from query traffic."""
        self.repair_bytes += nbytes
        self.blocks_repaired += blocks
        self.repair_seconds += seconds
        if self.registry is not None:
            self.registry.record_repair(nbytes, blocks, seconds)

    def record_rebalance(self, nbytes: int, blocks: int, seconds: float) -> None:
        """Account one rebalance run's traffic (separate from repair)."""
        self.rebalance_bytes += nbytes
        self.blocks_migrated += blocks
        self.rebalance_seconds += seconds
        if self.registry is not None:
            self.registry.record_rebalance(nbytes, blocks, seconds)

    def record_read_repair(self, nbytes: int, blocks: int, seconds: float) -> None:
        """Account one read-repair run's traffic (separate from scrub repair)."""
        self.read_repair_bytes += nbytes
        self.blocks_read_repaired += blocks
        self.read_repair_seconds += seconds

    def latencies(self) -> list[float]:
        return [q.latency for q in self.queries]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (pct in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of empty list")
    ordered = sorted(values)
    if pct <= 0:
        return ordered[0]
    if pct >= 100:
        return ordered[-1]
    # Nearest-rank definition: the smallest rank r with r/n >= pct/100,
    # i.e. ceil(pct/100 * n).  (A previous version added 0.5 and round()ed,
    # double-rounding p50 of even-length lists up a whole element.)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
