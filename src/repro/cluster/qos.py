"""Per-tenant QoS: fair-share scheduling, quotas, noisy-neighbor isolation.

Fusion is a *shared* analytics store: many tenants' queries push compute
down into the same storage nodes, so one tenant's scan storm contends
directly with everyone else's pushdown CPU, disk and NIC time.  PR 5
bounded the damage globally (admission queues, deadlines, breakers) but
nothing distinguished *whose* request was queued — a storming tenant
could fill every admission queue and starve a polite one.

This module adds the missing half:

* :class:`FairQueue` — a deficit-round-robin (DRR) dispatcher over
  per-tenant sub-queues, installed on each node's CPU/disk/NIC
  :class:`~repro.cluster.simcore.Resource`.  Higher priority lanes still
  drain first; *within* a lane, tenants are served in proportion to
  their configured weight, measured in the resource's own cost units
  (seconds of CPU, bytes of disk or NIC).
* Bounded per-tenant queue depth — a tenant whose sub-queues are full
  is refused at the door, so one tenant's backlog never crowds out
  another tenant's admissions.
* :class:`TokenBucket` quotas — per-tenant requests/s, refilled lazily
  on the simulated clock (pure clock reads: quota checks schedule no
  events and cannot perturb the timeline).
* :class:`QuotaExceeded` — the typed refusal an over-quota request gets.

Everything here is off unless ``StoreConfig.tenant_weights`` or
``StoreConfig.tenant_requests_per_s`` names a tenant, and a
:class:`~repro.cluster.simcore.Resource` without an attached FairQueue
(or an acquisition without a ``tenant``) runs the exact pre-QoS code
path — fault-free default-knob runs stay event-stream bit-identical.
"""

from __future__ import annotations

from collections import deque

#: Token-bucket burst capacity, in seconds of refill
#: (capacity = rate * QUOTA_BURST_S).
QUOTA_BURST_S = 1.0


class QuotaExceeded(Exception):
    """A tenant exceeded its token-bucket rate quota.

    Typed, like every other protection refusal: callers that opted into
    QoS see *which* tenant was refused and which bucket ran dry — never
    a silent drop.
    """

    def __init__(self, tenant: str, resource: str, message: str) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.resource = resource


class TokenBucket:
    """A token bucket refilled lazily on the simulated clock.

    ``try_consume`` reads ``sim.now`` and never schedules events, so
    quota accounting is invisible to the event stream.
    """

    __slots__ = ("sim", "rate", "capacity", "tokens", "_last")

    def __init__(self, sim, rate: float, burst_s: float = QUOTA_BURST_S) -> None:
        if rate <= 0:
            raise ValueError("token bucket rate must be > 0")
        self.sim = sim
        self.rate = float(rate)
        self.capacity = max(self.rate * burst_s, 1.0)
        self.tokens = self.capacity
        self._last = sim.now

    def try_consume(self, amount: float) -> bool:
        now = self.sim.now
        if now > self._last:
            self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
            self._last = now
        if amount <= self.tokens:
            self.tokens -= amount
            return True
        return False


class _FairEntry:
    """One queued acquisition inside a FairQueue."""

    __slots__ = ("gate", "tenant", "cost", "tier_key")

    def __init__(self, gate, tenant: str, cost: float, tier_key: int) -> None:
        self.gate = gate
        self.tenant = tenant
        self.cost = cost
        self.tier_key = tier_key


class _Tier:
    """One priority lane: per-tenant sub-queues served by DRR."""

    __slots__ = ("queues", "active", "deficit", "quantum")

    def __init__(self) -> None:
        self.queues: dict[str, deque] = {}
        self.active: deque[str] = deque()  # round-robin ring of backlogged tenants
        self.deficit: dict[str, float] = {}
        # DRR quantum unit, tracked as the largest cost seen so one full
        # round always releases at least one entry per tenant visited.
        self.quantum = 1.0


def _tier_key(priority) -> int:
    # Tenanted internal traffic (priority None) outranks both lanes,
    # mirroring the legacy rule that None is exempt admission traffic.
    return 1 << 30 if priority is None else int(priority)


class FairQueue:
    """Deficit-round-robin dispatcher over per-tenant sub-queues.

    Attached to a :class:`~repro.cluster.simcore.Resource` as its
    ``fair`` attribute by :func:`install_qos`.  The Resource pushes
    tenanted waiters here and asks :meth:`pop` for the next one to
    serve on each release; untenanted waiters keep the legacy FIFO and
    are always served first (internal/control traffic must not starve
    behind tenant backlogs).
    """

    __slots__ = ("qos", "total", "_tiers")

    def __init__(self, qos: "TenantQos") -> None:
        self.qos = qos
        self.total = 0
        self._tiers: dict[int, _Tier] = {}

    @property
    def depth_limit(self) -> int | None:
        return self.qos.depth_limit

    def depth(self, tenant: str) -> int:
        """Queued entries for ``tenant`` across all priority lanes."""
        n = 0
        for tier in self._tiers.values():
            q = tier.queues.get(tenant)
            if q:
                n += len(q)
        return n

    def push(self, tenant: str, priority, gate, cost: float) -> _FairEntry:
        key = _tier_key(priority)
        tier = self._tiers.get(key)
        if tier is None:
            tier = self._tiers[key] = _Tier()
        entry = _FairEntry(gate, tenant, max(cost, 0.0), key)
        q = tier.queues.get(tenant)
        if q is None:
            q = tier.queues[tenant] = deque()
        if not q:
            tier.active.append(tenant)
            tier.deficit.setdefault(tenant, 0.0)
        q.append(entry)
        if entry.cost > tier.quantum:
            tier.quantum = entry.cost
        self.total += 1
        return entry

    def pop(self) -> _FairEntry | None:
        """Dequeue the next entry: highest lane first, DRR within it."""
        if self.total == 0:
            return None
        for key in sorted(self._tiers, reverse=True):
            tier = self._tiers[key]
            entry = self._pop_tier(tier)
            if entry is not None:
                self.total -= 1
                return entry
        return None

    def _pop_tier(self, tier: _Tier) -> _FairEntry | None:
        while tier.active:
            tenant = tier.active[0]
            q = tier.queues.get(tenant)
            if not q:
                tier.active.popleft()
                tier.deficit[tenant] = 0.0
                continue
            head = q[0]
            if tier.deficit[tenant] >= head.cost:
                tier.deficit[tenant] -= head.cost
                q.popleft()
                if not q:
                    tier.active.popleft()
                    tier.deficit[tenant] = 0.0
                return head
            tier.deficit[tenant] += tier.quantum * self.qos.weight(tenant)
            tier.active.rotate(-1)
        return None

    def remove(self, entry: _FairEntry) -> bool:
        """Withdraw a queued entry (cancelled owner); False if not queued."""
        tier = self._tiers.get(entry.tier_key)
        if tier is None:
            return False
        q = tier.queues.get(entry.tenant)
        if q is None:
            return False
        try:
            q.remove(entry)
        except ValueError:
            return False
        self.total -= 1
        return True


class TenantQos:
    """Cluster-wide QoS board: weights, quotas, per-tenant refusal stats.

    Installed as ``cluster.qos`` by :func:`install_qos`; the stores call
    :meth:`admit` at their Put/Get/Query frontends and the per-node
    Resources consult :meth:`weight`/:attr:`depth_limit` via their
    attached :class:`FairQueue`.
    """

    def __init__(
        self,
        sim,
        *,
        weights: dict | None = None,
        requests_per_s: dict | None = None,
        depth_limit: int | None = None,
    ) -> None:
        self.sim = sim
        self.weights = dict(weights or {})
        self.depth_limit = depth_limit if depth_limit and depth_limit > 0 else None
        self._req_rates = dict(requests_per_s or {})
        self._req_buckets: dict[str, TokenBucket] = {}
        #: Per-tenant frontend accounting: admitted / quota_rejected
        #: request counts (refusals deeper in the stack — queue rejects,
        #: deadline misses — flow through ClusterMetrics).
        self.stats: dict[str, dict[str, int]] = {}

    def weight(self, tenant: str) -> float:
        """Configured DRR weight; unknown tenants get equal share (1.0)."""
        w = self.weights.get(tenant, 1.0)
        return w if w > 0 else 1.0

    def _stats(self, tenant: str) -> dict[str, int]:
        s = self.stats.get(tenant)
        if s is None:
            s = self.stats[tenant] = {"admitted": 0, "quota_rejected": 0}
        return s

    def admit(self, tenant: str, metrics=None) -> None:
        """Charge one request against the tenant's quota.

        Raises :class:`QuotaExceeded` when the tenant's bucket is dry.
        Tenants with no configured quota are only ever fair-scheduled,
        never refused here.
        """
        bucket = self._req_buckets.get(tenant)
        if bucket is None and tenant in self._req_rates:
            bucket = self._req_buckets[tenant] = TokenBucket(
                self.sim, self._req_rates[tenant], QUOTA_BURST_S
            )
        stats = self._stats(tenant)
        if bucket is None or bucket.try_consume(1.0):
            stats["admitted"] += 1
            return
        stats["quota_rejected"] += 1
        if metrics is not None:
            metrics.quota_exceeded += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("quota.exceeded", cat="qos", tenant=tenant, bucket="requests")
        raise QuotaExceeded(
            tenant, "requests", f"tenant {tenant!r} over its requests quota"
        )

    def attach(self, node) -> None:
        """Put a DRR dispatcher on each of a node's service resources."""
        for resource in (
            node.cpu,
            node.disk.device,
            node.endpoint.egress,
            node.endpoint.ingress,
        ):
            if resource.fair is None:
                resource.fair = FairQueue(self)


def install_qos(cluster, config) -> None:
    """Install the tenant QoS board and per-node DRR dispatchers.

    No-op unless ``config.tenant_weights`` or
    ``config.tenant_requests_per_s`` is non-empty; idempotent (both stores
    call it from their constructors, same pattern as admission control).
    Each tenant sub-queue is bounded by ``config.admission_queue_depth``.
    The board is remembered on the cluster so nodes added at runtime get
    the same dispatchers (see ``Cluster.add_node``).
    """
    if cluster.qos is not None:
        return
    if not (config.tenant_weights or config.tenant_requests_per_s):
        return
    qos = TenantQos(
        cluster.sim,
        weights=config.tenant_weights,
        requests_per_s=config.tenant_requests_per_s,
        depth_limit=config.admission_queue_depth,
    )
    cluster.qos = qos
    for node in cluster.nodes:
        qos.attach(node)
