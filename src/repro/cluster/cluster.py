"""The simulated storage cluster.

Mirrors the paper's testbed topology: ``num_nodes`` identical storage
nodes plus one client endpoint, all attached to the same network fabric.
There is no dedicated coordinator — any node can coordinate a request,
selected by the hash of the object name (Section 5 of the paper).
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field

from repro.cluster.disk import DiskConfig
from repro.cluster.health import NodeHealthTracker
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.network import Network, NetworkConfig, NetworkEndpoint
from repro.cluster.node import CpuConfig, StorageNode
from repro.cluster.simcore import Simulator


@dataclass
class ClusterConfig:
    """Cluster topology and device parameters (paper defaults)."""

    num_nodes: int = 9
    network: NetworkConfig = field(default_factory=NetworkConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    placement_seed: int = 17


@functools.lru_cache(maxsize=4096)
def _name_hash(object_name: str) -> int:
    """The 64-bit hash a request for ``object_name`` routes by.  Memoised:
    every request, and every stripe a repair rewrites, asks for it."""
    return int.from_bytes(hashlib.sha256(object_name.encode("utf-8")).digest()[:8], "big")


class Cluster:
    """A set of storage nodes, a client endpoint, and the shared fabric."""

    def __init__(self, sim: Simulator, config: ClusterConfig | None = None) -> None:
        self.sim = sim
        self.config = config or ClusterConfig()
        if self.config.num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.network = Network(sim, self.config.network)
        self.nodes = [
            StorageNode(sim, i, self.config.disk, self.config.cpu)
            for i in range(self.config.num_nodes)
        ]
        self.client = NetworkEndpoint(sim, "client")
        self.metrics = ClusterMetrics()
        self._rng = random.Random(self.config.placement_seed)
        #: Shared failure detector; liveness changes are pushed to it (and
        #: to any other registered listener) instead of being polled.
        self.health = NodeHealthTracker(self.config.num_nodes)
        self._liveness_listeners = [self.health.on_liveness]
        #: Optional FaultInjector (set by repro.cluster.faults); the RPC
        #: layer consults it for per-RPC drop windows.
        self.faults = None
        #: Optional CircuitBreakerBoard (installed by the stores when
        #: StoreConfig.breaker_failure_threshold > 0); :meth:`routable`
        #: consults it so traffic routes around open breakers.
        self.breakers = None
        #: Dedicated seeded RNG for retry-backoff jitter.  Separate from
        #: the placement RNG so drawing jitter mid-workload can never
        #: perturb later stripe placements; deterministic per run.
        self.jitter_rng = random.Random(self.config.placement_seed ^ 0x9E3779B9)
        #: Optional MembershipManager (installed by the stores when
        #: StoreConfig.membership_enabled is set); when present,
        #: coordinator routing and stripe placement go through its
        #: consistent-hash ring instead of the seed paths below.
        self.membership = None
        #: Admission queue depth applied to node service queues,
        #: remembered so nodes joining at runtime get the same bound (set
        #: by repro.cluster.overload.install_admission_control).
        self.admission: int | None = None
        #: Optional TenantQos board (installed by the stores when a
        #: StoreConfig tenant map is non-empty; see repro.cluster.qos):
        #: DRR fair queues on node service loops plus tenant quota buckets.
        self.qos = None
        #: In-flight block migrations (block_id -> MigrationEntry, see
        #: repro.core.rebalance).  Metadata-plane intent registry: fsck
        #: classifies these blocks as pending rather than orphaned, and
        #: a restarted Rebalancer resolves them before migrating more.
        self.migrations: dict[str, object] = {}
        #: Optional continuous-telemetry Scraper (repro.obs.timeseries)
        #: installed by the stores when StoreConfig.scrape_interval_s > 0;
        #: rides the simulator's clock-listener hook and never schedules
        #: events.
        self.scraper = None
        #: Optional SLOEngine (repro.obs.slo) evaluating burn-rate alerts
        #: over the scraper's series when StoreConfig.slo_enabled is set.
        self.slo = None
        #: Anti-entropy read-repair queue: stripes whose foreground reads
        #: had to reconstruct data, keyed ``(store_kind, object_name,
        #: stripe_id) -> store`` (dict doubles as an ordered set so a hot
        #: stripe enqueues once).  Drained by the RepairManager at
        #: background priority; a stripe repair pass of the owning store
        #: takes its stripe's entry before it gathers and puts it back if
        #: it raises.
        self.read_repairs: dict[tuple, object] = {}
        # Health-tier flips (greylist/clear) become tracer instants so
        # gray-failure onset is visible on the timeline.
        self.health.on_tier_change.append(self._on_tier_change)

    def _on_tier_change(self, node_id: int, greylisted: bool) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "health.greylist" if greylisted else "health.clear",
                cat="health",
                node=node_id,
            )

    def delivers(self, src_id: int, dst_id: int) -> bool:
        """The delivery rule (:meth:`Network.delivers
        <repro.cluster.network.Network.delivers>`) between two nodes: both
        up, no severed link between them.  ``delivers(i, i)``: is ``i`` up?"""
        return self.network.delivers(self.nodes[src_id].endpoint, self.nodes[dst_id].endpoint)

    def enqueue_read_repair(self, store, store_kind: str, object_name: str, stripe_id: int) -> None:
        """Queue a stripe for anti-entropy repair after a degraded or
        checksum-failed foreground read reconstructed its data."""
        key = (store_kind, object_name, stripe_id)
        if key in self.read_repairs:
            return
        self.read_repairs[key] = store
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "read_repair.enqueue", cat="repair", object=object_name, stripe=stripe_id
            )

    def routable(self, node_id: int) -> bool:
        """May new ops be sent to ``node_id``?

        Combines the failure detector's view (down or suspect nodes are
        skipped) with the node's circuit breaker when one is installed
        (open breakers route around the node; a half-open breaker grants
        a single probe).
        """
        if not self.health.usable(node_id):
            return False
        return self.breakers is None or self.breakers.allow(node_id)

    def add_liveness_listener(self, callback) -> None:
        """Register ``callback(node_id, alive)`` for liveness changes."""
        self._liveness_listeners.append(callback)

    def _notify_liveness(self, node_id: int, alive: bool) -> None:
        for callback in self._liveness_listeners:
            callback(node_id, alive)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> StorageNode:
        return self.nodes[node_id]

    def fail_node(self, node_id: int, wipe: bool = False) -> None:
        """Mark a node dead: its blocks become unreachable until restore.

        Stores answer reads for its data with degraded reads (on-the-fly
        erasure-code reconstruction) until :meth:`restore_node` or an
        explicit recovery rebuilds the blocks elsewhere.  ``wipe=True``
        also discards the node's stored blocks (a disk loss: the node
        comes back empty on restore and its data must be repaired).

        Interested components (health trackers, store caches) are
        notified through the liveness-listener registry rather than
        having to poll ``node.alive``.
        """
        node = self.nodes[node_id]
        if wipe:
            node.wipe_blocks()
        if node.alive:
            node.endpoint.alive = False
            self._notify_liveness(node_id, False)

    def restore_node(self, node_id: int) -> None:
        """Bring a failed node back (blocks intact unless it was wiped)."""
        node = self.nodes[node_id]
        if not node.alive:
            node.endpoint.alive = True
            self._notify_liveness(node_id, True)

    def alive_nodes(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.alive]

    # -- elastic membership (requires an installed MembershipManager for
    # -- drain/remove; add_node works bare but only changes routing when
    # -- membership is on) ---------------------------------------------------

    def add_node(self) -> int:
        """Grow the cluster by one node at runtime; returns its id.

        The new node gets the cluster's device configs and the same
        admission bounds the others run with; the health tracker and
        breaker board grow to cover it.  With membership installed it
        joins the ring (epoch bump) and immediately becomes a placement
        and coordination target — existing data follows via the
        Rebalancer, not here.
        """
        node_id = len(self.nodes)
        node = StorageNode(self.sim, node_id, self.config.disk, self.config.cpu)
        self.nodes.append(node)
        self.health.ensure_size(len(self.nodes))
        if self.breakers is not None:
            self.breakers.ensure_size(len(self.nodes))
        if self.admission is not None:
            for resource in (
                node.cpu,
                node.disk.device,
                node.endpoint.egress,
                node.endpoint.ingress,
            ):
                resource.max_queue = self.admission
        if self.qos is not None:
            self.qos.attach(node)
        if self.membership is not None:
            self.membership.join(node_id)
        return node_id

    def drain_node(self, node_id: int) -> None:
        """Take a node out of new placements/coordination; it stays alive
        and keeps serving reads until the Rebalancer empties it."""
        if self.membership is None:
            raise RuntimeError("drain_node requires membership_enabled")
        self.membership.drain(node_id)

    def remove_node(self, node_id: int) -> None:
        """Retire a drained node: drop it from the member set and mark it
        dead.  Its slot in ``nodes`` stays (ids are stable indexes)."""
        if self.membership is None:
            raise RuntimeError("remove_node requires membership_enabled")
        self.membership.remove(node_id)
        self.fail_node(node_id)

    def wal_records(self) -> list:
        """Every WAL record readable right now, deduplicated.

        Records are mirrored to each object's metadata replica nodes, so
        the union over *alive* nodes reconstructs the log even when the
        coordinator that wrote it is down.  Order: (op_id, phase-write
        order) — stable because mirrors append identical record objects.
        """
        seen: list = []
        for node in self.nodes:
            if not node.alive:
                continue
            for record in node.wal:
                if record not in seen:
                    seen.append(record)
        seen.sort(key=lambda r: (r.op_id, r.seq))
        return seen

    def coordinator_for(self, object_name: str) -> StorageNode:
        """Route a request to a node by the hash of the object name.

        Walks forward from the hashed slot to the first *alive* node so a
        coordinator crash does not take the object offline — new requests
        re-route to the next node (requests already in flight finish at
        the old coordinator; the model treats a query as owned by the
        node that accepted it).  With every node alive this is exactly
        the hashed node.

        With membership installed, routing goes through the hash ring
        instead (draining and removed nodes are never chosen).
        """
        if self.membership is not None:
            return self.membership.coordinator_for(object_name)
        slot = _name_hash(object_name) % len(self.nodes)
        for step in range(len(self.nodes)):
            node = self.nodes[(slot + step) % len(self.nodes)]
            if node.alive:
                return node
        return self.nodes[slot]  # whole cluster down: degenerate fallback

    def choose_stripe_nodes(self, count: int) -> list[int]:
        """Pick ``count`` distinct nodes for one stripe's blocks.

        The paper distributes each stripe across ``n`` randomly chosen
        nodes.  When the cluster has fewer than ``count`` nodes (the
        9-node testbed holds RS(9,6) stripes exactly), nodes wrap around
        round-robin from a random start so placement stays balanced.
        """
        if count <= len(self.nodes):
            return self._rng.sample(range(len(self.nodes)), count)
        start = self._rng.randrange(len(self.nodes))
        return [(start + i) % len(self.nodes) for i in range(count)]

    def place_stripe(self, key: str, count: int) -> list[int]:
        """Placement for the blocks (or meta replicas) behind ``key``.

        With membership installed this is the ring's deterministic walk
        from the key — stable under joins and drains, which is what lets
        the Rebalancer recompute "where should this stripe live now?"
        and converge.  Without membership it delegates to
        :meth:`choose_stripe_nodes`, consuming the placement RNG exactly
        as the seed always did.
        """
        if self.membership is not None:
            return self.membership.placement_for(key, count)
        return self.choose_stripe_nodes(count)

    @property
    def stored_bytes(self) -> int:
        """Total bytes physically stored across all nodes."""
        return sum(node.stored_bytes for node in self.nodes)

    def cpu_utilization(self) -> float:
        """Mean CPU utilisation across nodes since time zero."""
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return sum(node.cpu.utilization(elapsed) for node in self.nodes) / len(self.nodes)
