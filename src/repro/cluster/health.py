"""Per-node failure detection shared by every store on a cluster.

The hot path (``repro.core.scatter_gather``) cannot afford to keep
retrying a node that is clearly gone: after a few consecutive failed ops
the node is *suspect* and new ops route straight to degraded-read
reconstruction instead of paying the timeout again.  The tracker is
owned by the :class:`~repro.cluster.cluster.Cluster` so every store
built on the cluster shares one view of node health, and it subscribes to the cluster's liveness
notifications so an explicit ``fail_node``/``restore_node`` updates it
without callers polling ``node.alive``.

Binary up/suspect misses the *gray* failure mode: a fail-slow node
answers every op (so it never trips suspicion) but serves them an order
of magnitude slower, and one such node dominates the tail of every
query that touches it.  The tracker therefore also keeps a per-node
EWMA of successful-op latency and scores it against the cluster median,
yielding a three-tier verdict per node:

* **usable** — send it foreground ops;
* **greylisted** — latency EWMA exceeds ``greylist_factor`` times the
  cluster median: deprioritized for foreground reads, but still
  eligible for background repair/rebalance traffic (and still
  counted alive), so a fail-slow node degrades gracefully instead of
  flapping between fully-trusted and fully-shunned;
* **suspect/down** — consecutive failures or liveness say it is gone.

Greylisting is armed by ``greylist_factor > 1`` (wired from
``StoreConfig.greylist_latency_factor``); at the default 0 no latency
verdict is ever rendered and the tracker behaves exactly like the
binary original.
"""

from __future__ import annotations

#: Tier names in escalation order; :meth:`NodeHealthTracker.tier_value`
#: maps them to these indexes for gauge export.
TIERS = ("usable", "greylisted", "suspect", "down")

#: EWMA smoothing for per-node op latency: high enough that a node going
#: gray is noticed within ~a dozen ops, low enough that one queueing
#: spike does not greylist a healthy node.
LATENCY_EWMA_ALPHA = 0.25

#: Successful ops a node must have served before its EWMA is trusted
#: for a greylist verdict (and before it contributes to the median).
GREYLIST_MIN_SAMPLES = 8


class NodeHealthTracker:
    """Per-node op outcomes folded into a usable/greylisted/suspect verdict.

    * ``down`` mirrors the cluster's liveness flags (updated via the
      liveness-listener callback, never polled).
    * ``consecutive_failures`` counts failed remote ops since the last
      success; at ``suspicion_threshold`` the node becomes *suspect* and
      :meth:`usable` turns false until a success or a restore resets it.
    * ``latency_ewma`` tracks successful-op service latency; when a
      node's EWMA exceeds ``greylist_factor`` times the cluster median
      (armed by ``greylist_factor > 1``) the node is *greylisted* — see
      :meth:`is_greylisted`.  Tier flips invoke ``on_tier_change``
      callbacks (the cluster wires tracer instants through this).
    """

    def __init__(
        self,
        num_nodes: int,
        suspicion_threshold: int = 3,
        greylist_factor: float = 0.0,
    ) -> None:
        if suspicion_threshold < 1:
            raise ValueError("suspicion threshold must be >= 1")
        self.suspicion_threshold = suspicion_threshold
        #: Latency multiple over the cluster median that greylists a
        #: node; values <= 1 disable latency verdicts entirely.
        self.greylist_factor = greylist_factor
        self.down = [False] * num_nodes
        self.consecutive_failures = [0] * num_nodes
        self.total_failures = [0] * num_nodes
        self.total_successes = [0] * num_nodes
        #: EWMA of successful-op latency per node (0.0 = no samples yet).
        self.latency_ewma = [0.0] * num_nodes
        self.latency_samples = [0] * num_nodes
        self._greylisted = [False] * num_nodes
        #: ``callback(node_id, greylisted: bool)`` invoked on each flip.
        self.on_tier_change: list = []

    def ensure_size(self, num_nodes: int) -> None:
        """Grow the per-node state for nodes that joined at runtime
        (new nodes start healthy with clean counters)."""
        while len(self.down) < num_nodes:
            self.down.append(False)
            self.consecutive_failures.append(0)
            self.total_failures.append(0)
            self.total_successes.append(0)
            self.latency_ewma.append(0.0)
            self.latency_samples.append(0)
            self._greylisted.append(False)

    # -- liveness (pushed by Cluster.fail_node / restore_node) ---------------

    def on_liveness(self, node_id: int, alive: bool) -> None:
        self.down[node_id] = not alive
        if alive:
            # A restored node starts with a clean slate: stale suspicion
            # (and a stale latency profile — it may have been rebooted
            # onto healthy hardware) must not divert ops from it forever.
            self.consecutive_failures[node_id] = 0
            self.latency_ewma[node_id] = 0.0
            self.latency_samples[node_id] = 0
            self._set_greylisted(node_id, False)

    # -- op outcomes (recorded by the scatter-gather executor) ---------------

    def record_failure(self, node_id: int) -> None:
        self.consecutive_failures[node_id] += 1
        self.total_failures[node_id] += 1

    def record_success(self, node_id: int, elapsed: float | None = None) -> None:
        self.consecutive_failures[node_id] = 0
        self.total_successes[node_id] += 1
        if elapsed is not None:
            self.record_latency(node_id, elapsed)

    def record_latency(self, node_id: int, elapsed: float) -> None:
        """Fold one successful op's service latency into the node's EWMA
        and re-render its greylist verdict (pure bookkeeping — never
        schedules events, so recording is free for bit-identity)."""
        prev = self.latency_ewma[node_id]
        if self.latency_samples[node_id] == 0:
            self.latency_ewma[node_id] = elapsed
        else:
            self.latency_ewma[node_id] = (
                LATENCY_EWMA_ALPHA * elapsed + (1.0 - LATENCY_EWMA_ALPHA) * prev
            )
        self.latency_samples[node_id] += 1
        if self.greylist_factor > 1.0:
            self._set_greylisted(node_id, self._latency_outlier(node_id))

    # -- gray-failure scoring -------------------------------------------------

    def median_latency(self) -> float:
        """Cluster-median latency EWMA over trusted, non-down nodes
        (0.0 until enough nodes have served enough ops)."""
        samples = sorted(
            self.latency_ewma[nid]
            for nid in range(len(self.down))
            if not self.down[nid] and self.latency_samples[nid] >= GREYLIST_MIN_SAMPLES
        )
        if not samples:
            return 0.0
        mid = len(samples) // 2
        if len(samples) % 2:
            return samples[mid]
        return (samples[mid - 1] + samples[mid]) / 2.0

    def _latency_outlier(self, node_id: int) -> bool:
        if self.latency_samples[node_id] < GREYLIST_MIN_SAMPLES:
            return False
        median = self.median_latency()
        if median <= 0.0:
            return False
        return self.latency_ewma[node_id] > self.greylist_factor * median

    def _set_greylisted(self, node_id: int, value: bool) -> None:
        if self._greylisted[node_id] == value:
            return
        self._greylisted[node_id] = value
        for callback in self.on_tier_change:
            callback(node_id, value)

    # -- verdicts -------------------------------------------------------------

    def is_suspect(self, node_id: int) -> bool:
        return self.consecutive_failures[node_id] >= self.suspicion_threshold

    def is_greylisted(self, node_id: int) -> bool:
        """Fail-slow verdict: latency EWMA far above the cluster median.

        Subordinate to the harder verdicts — a down or suspect node is
        not *also* greylisted.  Always False when greylisting is unarmed
        (``greylist_factor <= 1``), keeping default-knob routing
        bit-identical to the binary tracker.
        """
        if self.greylist_factor <= 1.0:
            return False
        return (
            self._greylisted[node_id]
            and not self.down[node_id]
            and not self.is_suspect(node_id)
        )

    def usable(self, node_id: int) -> bool:
        """True when ops should still be sent to the node.

        Greylisted nodes stay usable here on purpose: they *answer*,
        just slowly — foreground source selection deprioritizes them
        (see the stores), but liveness-grade routing must not shun them.
        """
        return not self.down[node_id] and not self.is_suspect(node_id)

    def tier(self, node_id: int) -> str:
        """Three-tier verdict (plus down) for routing and telemetry."""
        if self.down[node_id]:
            return "down"
        if self.is_suspect(node_id):
            return "suspect"
        if self.is_greylisted(node_id):
            return "greylisted"
        return "usable"

    def tier_value(self, node_id: int) -> int:
        """The tier as a gauge value (index into :data:`TIERS`)."""
        return TIERS.index(self.tier(node_id))

    def snapshot(self) -> dict[int, dict]:
        return {
            nid: {
                "down": self.down[nid],
                "suspect": self.is_suspect(nid),
                "greylisted": self.is_greylisted(nid),
                "tier": self.tier(nid),
                "consecutive_failures": self.consecutive_failures[nid],
                "total_failures": self.total_failures[nid],
                "total_successes": self.total_successes[nid],
                "latency_ewma_s": self.latency_ewma[nid],
            }
            for nid in range(len(self.down))
        }
