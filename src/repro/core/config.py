"""Store configuration shared by Fusion and the baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost_model import PushdownMode
from repro.ec.reed_solomon import RS_9_6, CodeParams

#: Simulated size of a pushdown request message (op spec + bookkeeping).
OP_REQUEST_BYTES = 256

#: Simulated size of returning an aggregate/scalar result row.
SCALAR_RESULT_BYTES = 64


@dataclass
class StoreConfig:
    """Knobs for both object stores (paper defaults).

    ``size_scale`` maps real generated bytes to simulated bytes: layout
    decisions and all ratios use real sizes (they are scale-invariant),
    while device/network charging multiplies by the scale so a small
    generated file exercises paper-scale latency behaviour.  With the
    default generators, ``size_scale=1000`` makes the ~10 MB lineitem file
    behave like the paper's 10 GB object, and ``block_size`` is expressed
    in *simulated* bytes (the paper's 100 MB default).
    """

    code: CodeParams = field(default_factory=lambda: RS_9_6)
    block_size: int = 100 * 1024 * 1024  # simulated bytes (fixed-block layouts)
    size_scale: float = 1.0
    storage_overhead_threshold: float = 0.02  # FAC budget vs optimal (paper: 2%)
    pushdown_mode: PushdownMode = PushdownMode.ADAPTIVE
    enable_aggregate_pushdown: bool = False  # paper future work (extension)
    # Fixed-block stores read at block granularity (the unit of placement
    # and I/O in MinIO/Ceph-style systems): reassembling a chunk fetches
    # the whole blocks covering it.  Disable for byte-granular reads (an
    # ablation; the paper's reported baseline traffic matches whole-block).
    baseline_whole_block_reads: bool = True
    # Node-local page skipping: storage nodes consult per-page min/max
    # stats to decode only the pages a filter can match (Parquet page
    # index pruning).  Stats are conservative, so results are unchanged;
    # only decode/scan cost drops.  Off for the ablation bench.
    enable_page_skipping: bool = True
    # Scatter-gather RPC batching: per query stage, coalesce every op
    # bound for the same storage node into one batched request message,
    # with per-op replies streamed back over the open exchange — paying
    # the fixed per-RPC overhead and the RTT once per destination node
    # instead of once per chunk.  Payload bytes still serialise through
    # the FIFO pipes, so traffic and results are identical to the
    # unbatched path.  Off for the A/B ablation.
    enable_rpc_batching: bool = True
    # -- failure handling (repro.core.scatter_gather + repair) ------------
    # A remote op whose reply has not arrived this long after it was sent
    # is declared failed (dropped request/reply, node died mid-op).
    op_timeout_s: float = 0.05
    # Failed ops are re-attempted up to this many times with exponential
    # backoff (scatter_gather.RETRY_BACKOFF_S, doubling) before falling
    # back to degraded-read reconstruction.
    rpc_max_retries: int = 2
    # Gray-failure (fail-slow) detection: a node whose successful-op
    # latency EWMA exceeds this multiple of the cluster median is
    # *greylisted* — deprioritized for foreground reads and hedge
    # targets but still eligible for background repair/rebalance.
    # 0 (default) disables latency verdicts entirely, keeping routing
    # bit-identical to the binary up/suspect tracker.
    greylist_latency_factor: float = 0.0
    # Background-repair pacing: bytes/second of repair traffic allowed
    # (simulated); 0 disables throttling.
    repair_throttle_bps: float = 0.0
    # -- metadata durability (repro.core.wal + repro.core.fsck) -----------
    # How many nodes hold each object's materialized metadata replica
    # (location map / placement map + footer).  0 = auto: the paper's
    # k + 1, so the map survives the same failures as an RS(n, k) stripe.
    # The write-ahead log, end-to-end chunk CRCs and anti-entropy
    # read-repair are always on (docs/SIMULATION.md).
    metadata_replicas: int = 0
    # -- observability (repro.obs) ----------------------------------------
    # Span-based tracing on the simulated clock: the store installs a
    # Tracer on the simulator and every layer (store stages, scatter-
    # gather RPCs, network transfers, disk reads, compute, WAL, repair)
    # emits spans.  Export via Tracer.chrome_trace() / text_summary().
    # Tracing is metadata-plane (never touches the event heap), so runs
    # are event-identical with it on or off.
    tracing_enabled: bool = False
    # Feed every recorded query/repair into a repro.obs.MetricsRegistry
    # (named counters/gauges/histograms with a Prometheus-text export)
    # installed on ClusterMetrics.registry.  Also metadata-plane.
    metrics_registry_enabled: bool = False
    # Hedged reads: if a remote op's reply has not arrived this many
    # seconds after it was sent, speculatively launch the degraded-read
    # fallback in parallel and take whichever finishes first (counted in
    # QueryMetrics.hedges).  0 disables hedging (the default), keeping
    # the executor's retry-then-fallback behaviour bit-identical.
    hedge_after_s: float = 0.0
    # Record every adaptive-pushdown Cost-Equation evaluation (estimate,
    # decision, actual bytes moved) in a PushdownAuditLog on the store.
    # Metadata-plane; on by default because the log is cheap and feeds
    # ex-post decision-accuracy reporting.
    pushdown_audit_enabled: bool = True
    # -- overload protection (repro.cluster.overload) ---------------------
    # Every Put/Get/Query carries a deadline of this many simulated
    # seconds, checked at each scatter-gather hop and inside per-chunk
    # evaluation; on expiry the op raises DeadlineExceeded and its
    # in-flight children are cancelled.  Deadline checks are pure clock
    # reads (no scheduled events), so runs where no deadline fires are
    # event-identical to runs without deadlines.  0 disables deadlines.
    default_deadline_s: float = 0.0
    # Bounded admission queues on each storage node's service loops (CPU
    # pool, disk device, NIC ingress/egress): at most this many requests
    # may wait per resource.  0 keeps queues unbounded (the default).
    admission_queue_depth: int = 0
    # What a full queue does to an arriving request: "reject" fails it
    # fast (QueueFull), "shed-lowest-priority" evicts a queued lower-
    # priority request (background repair/bursts yield to foreground
    # queries) and only rejects if none exists, "block" waits unboundedly
    # (admission control off).
    admission_policy: str = "reject"
    # Per-node circuit breaker: this many failures (timeouts, errors,
    # queue rejections) within breaker_window_s trips the node's breaker
    # open; traffic routes around it (degraded read / chunk-fetch
    # fallback) for breaker_reset_s, then a single half-open probe
    # decides whether to close it again.  0 disables breakers.
    breaker_failure_threshold: int = 0
    breaker_window_s: float = 0.25
    breaker_reset_s: float = 0.1
    # Let scan queries (no aggregates / GROUP BY) return a typed
    # PartialResult with shed chunks dropped instead of failing when
    # admission control rejects their remote ops.
    allow_partial_results: bool = False
    # -- elastic membership (repro.cluster.membership + core.rebalance) ---
    # Consistent-hash ring routing plus runtime add/drain/remove of
    # nodes, with the background Rebalancer migrating blocks to their
    # ring positions.  Off (the default) keeps the seed's name-hash
    # coordinator routing and RNG stripe placement untouched, so
    # default-knob runs stay event-identical to a build without the
    # membership layer.
    membership_enabled: bool = False
    # Full-jitter on retry backoff: attempt n sleeps uniformly in
    # [backoff * (1 - jitter), backoff] where backoff is the exponential
    # retry schedule, drawn from the cluster's dedicated
    # seeded jitter RNG so runs stay reproducible while synchronized
    # retry storms cannot form.  0 (default) draws nothing and sleeps
    # exactly the deterministic schedule.
    rpc_retry_jitter: float = 0.0
    # -- per-tenant QoS (repro.cluster.qos) -------------------------------
    # Tenant-aware fair scheduling on the node service loops: each
    # resource's admission queue becomes a deficit-round-robin dispatcher
    # over per-tenant sub-queues, so one tenant's backlog cannot crowd
    # out another's.  Off (the default) keeps the PR-5 FIFO-per-priority
    # lanes untouched; requests that carry no tenant always take the
    # legacy path, so fault-free no-tenant runs stay event-identical.
    qos_enabled: bool = False
    # DRR weight per tenant id (share of service under contention).
    # Tenants absent from the map get weight 1.0 (equal share).
    tenant_weights: dict = field(default_factory=dict)
    # Token-bucket quotas per tenant id, refilled on the simulated clock:
    # requests/second and bytes/second.  Tenants absent from a map are
    # unmetered on that axis.  Quota checks are pure clock reads, so runs
    # in which no quota fires are event-identical to unmetered runs.
    tenant_requests_per_s: dict = field(default_factory=dict)
    tenant_bytes_per_s: dict = field(default_factory=dict)
    # Bucket burst capacity, in seconds of refill (capacity = rate * burst).
    quota_burst_s: float = 1.0
    # What happens to an over-quota request: "reject" raises a typed
    # QuotaExceeded at the store frontend; "demote" drops it to
    # background priority and lets it contend from the back of the lanes.
    quota_policy: str = "reject"
    # Per-tenant bound on waiters per resource queue (0 = share
    # admission_queue_depth evenly is NOT implied; 0 falls back to
    # admission_queue_depth as a per-tenant bound).  A full sub-queue
    # refuses that tenant only — other tenants' admissions are unaffected.
    tenant_queue_depth: int = 0
    # -- continuous telemetry (repro.obs.timeseries / .slo) ---------------
    # Scrape the metrics registry plus live cluster state (queue depths,
    # breaker states, health, repair/rebalance bytes, tenant deficits)
    # every this many *simulated* seconds into in-memory time series
    # (exported as TIMESERIES.json / OpenMetrics text).  Sampling rides
    # the kernel's clock-listener hook: it never schedules events, so
    # fault-free runs stay event-stream bit-identical with it on or off.
    # 0 (the default) disables scraping.  Turning it on force-installs a
    # metrics registry.
    scrape_interval_s: float = 0.0
    # Evaluate declarative SLOs (availability, p99-latency-vs-deadline,
    # backlog freshness) over the scraped series with multi-window
    # burn-rate alerting (repro.obs.slo).  Alerts are observable state
    # only: typed Alert records, repro_alerts_total counters, tracer
    # instants, and a subscription hook.  Requires scraping; when
    # scrape_interval_s is 0 a 0.25 s default interval is used.
    slo_enabled: bool = False
    # Registry histograms capture the trace id of tail observations
    # (exemplars), so a p99 latency bucket links to the trace that
    # produced it.  Force-installs the tracer and registry.
    exemplars_enabled: bool = False

    def resolved_metadata_replicas(self, num_nodes: int) -> int:
        """The effective metadata replica count for a cluster size."""
        count = self.metadata_replicas or (self.code.k + 1)
        return max(1, min(count, num_nodes))

    @property
    def real_block_size(self) -> int:
        """The fixed block size converted to real (generated-file) bytes."""
        real = int(round(self.block_size / self.size_scale))
        return max(1, real)

    def scaled(self, real_bytes: int | float) -> int:
        """Convert real bytes to simulated bytes for device charging."""
        return int(real_bytes * self.size_scale)
