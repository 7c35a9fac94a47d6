"""Deterministic fault injection for the simulated cluster.

A :class:`FaultInjector` drives a *schedule* of :class:`FaultEvent`\\ s
through the simulator so any workload can run under a reproducible fault
pattern: node crashes and recoveries at fixed simulated times, transient
unavailability windows (blips), slow nodes (degraded disk and NIC
throughput for a window), silent block corruption, and per-RPC drop
windows.  Schedules are plain data — write them by hand for scripted
scenarios or generate them with :func:`random_schedule` from a seed.

Everything is deterministic: the event list is applied in time order,
and the only randomness (which block to corrupt, whether a given RPC in
a drop window is dropped) comes from one seeded ``random.Random``
consumed in simulation order.  The same seed and workload therefore
replay bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``kind`` is one of:

    * ``"crash"`` — mark the node dead (``wipe=True`` also discards its
      stored blocks, modelling a disk loss rather than a reboot);
    * ``"restore"`` — bring the node back (blocks intact unless wiped);
    * ``"blip"`` — crash now, restore automatically after ``duration``;
    * ``"slow"`` — multiply the node's disk and NIC service times by
      ``factor`` for ``duration`` seconds (a degraded device);
    * ``"corrupt"`` — silently flip bytes in ``blocks`` stored blocks
      chosen by the injector's seeded RNG (bit rot; only scrubbing or a
      failed decode will notice);
    * ``"drop"`` — for ``duration`` seconds, RPCs to/from the node are
      dropped with probability ``rate`` (a flaky link);
    * ``"crashpoint"`` — from time ``at``, arm the named WAL crash point
      (``point``; see ``repro.core.wal.CRASH_POINTS``) so the next
      Put/Delete reaching that stage kills its coordinator mid-operation
      (``node_id < 0`` = whichever node is coordinating);
    * ``"overload"`` — for ``duration`` seconds, bombard the node with
      background-priority requests at ``rate`` per second, each reading
      ``nbytes`` from disk then burning the matching CPU scan time (a
      rogue tenant / runaway batch job filling the service queues);
    * ``"slow_burst"`` — a short, sharp ``slow`` (same mechanism): the
      node's devices degrade by ``factor`` for ``duration`` seconds,
      modelling GC pauses or thermal throttling spikes;
    * ``"join"`` — add a fresh node to the cluster at runtime
      (``node_id`` is ignored, conventionally ``-1``; the new node's id
      is reported in the applied-fault detail).  A no-op unless the
      cluster has a membership manager installed
      (``StoreConfig.membership_enabled``);
    * ``"drain"`` — take the node out of new placements/coordination
      (it stays alive and serves reads until rebalanced away).  A no-op
      without membership, or when the drain would be invalid;
    * ``"flap"`` — crash/restore the node repeatedly at ``rate`` cycles
      per second for ``duration`` seconds (a flapping peer the failure
      detector and breakers must ride out), ending restored;
    * ``"tenant_storm"`` — for ``duration`` seconds, bombard the node
      with *foreground* requests at ``rate`` per second on behalf of
      ``tenant`` (a storming tenant the QoS layer must isolate: its
      requests are charged to that tenant's quota buckets and DRR
      sub-queues, so other tenants keep their fair share);
    * ``"partition"`` — sever every link between the node set ``nodes``
      (side A) and the rest of the cluster (side B) in both directions;
      heals automatically after ``duration`` (0 = stays cut until a
      later event heals it by hand).  The network refuses every
      transfer across the cut (its delivery rule), so RPCs are lost,
      writes do not land, and the quorum guard refuses minority-side
      metadata republishes;
    * ``"asym_link"`` — degrade the *directed* link ``node_id -> peer``
      only: RPCs crossing it are dropped with probability ``rate`` and
      each transfer pays ``latency_s`` extra, for ``duration`` seconds.
      The reverse direction stays healthy (the gray failure pattern
      node-scoped drops cannot express);
    * ``"fail_slow"`` — multiply the node's disk and NIC *service* times
      by ``factor`` for ``duration`` seconds on the independent
      gray-failure plane (``gray_factor``): unlike ``slow`` it composes
      with concurrent slow windows instead of clobbering their reset,
      and it is the canonical trigger for the health tracker's
      greylist verdict — the node answers everything, just slowly.
    """

    at: float
    kind: str
    node_id: int
    duration: float = 0.0
    factor: float = 1.0
    rate: float = 0.0
    wipe: bool = False
    blocks: int = 1
    point: str = ""
    nbytes: int = 0
    tenant: str = ""
    #: Partition side A (node ids); the cut is A <-> everything else.
    nodes: tuple = ()
    #: Directed-link destination for ``asym_link``.
    peer: int = -1
    #: Extra per-transfer latency for ``asym_link``.
    latency_s: float = 0.0

    KINDS = (
        "crash", "restore", "blip", "slow", "corrupt", "drop", "crashpoint",
        "overload", "slow_burst", "join", "drain", "flap", "tenant_storm",
        "partition", "asym_link", "fail_slow",
    )

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {self.KINDS}")
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if self.kind in ("blip", "slow", "drop", "overload", "slow_burst", "flap", "tenant_storm", "asym_link", "fail_slow") and self.duration <= 0:
            raise ValueError(f"{self.kind} fault needs a positive duration")
        if self.kind in ("slow", "slow_burst", "fail_slow") and self.factor < 1.0:
            raise ValueError("slow factor must be >= 1 (it degrades throughput)")
        if self.kind == "drop" and not (0.0 < self.rate <= 1.0):
            raise ValueError("drop rate must be in (0, 1]")
        if self.kind in ("overload", "flap", "tenant_storm") and self.rate <= 0:
            raise ValueError(f"{self.kind} fault needs a positive rate")
        if self.kind == "crashpoint" and not self.point:
            raise ValueError("crashpoint fault needs a point name")
        if self.kind == "tenant_storm" and not self.tenant:
            raise ValueError("tenant_storm fault needs a tenant id")
        if self.kind == "partition" and not self.nodes:
            raise ValueError("partition fault needs a non-empty node set")
        if self.kind == "asym_link":
            if self.peer < 0 or self.peer == self.node_id:
                raise ValueError("asym_link fault needs a distinct peer node")
            if not (0.0 <= self.rate <= 1.0):
                raise ValueError("asym_link drop rate must be in [0, 1]")
            if self.rate <= 0.0 and self.latency_s <= 0.0:
                raise ValueError("asym_link fault needs a drop rate or extra latency")


@dataclass
class AppliedFault:
    """Log entry: one fault as it actually landed."""

    at: float
    event: FaultEvent
    detail: str = ""


class FaultInjector:
    """Applies a fault schedule to a cluster inside the simulation.

    Construct with the cluster, a list of :class:`FaultEvent`, and a
    seed, then call :meth:`install` *before* ``sim.run()``; the injector
    registers itself as ``cluster.faults`` (consulted by the RPC layer
    for drop windows) and spawns a driver process that sleeps to each
    event's time and applies it.
    """

    def __init__(self, cluster, schedule, seed: int = 0) -> None:
        self.cluster = cluster
        self.schedule = sorted(schedule, key=lambda ev: ev.at)
        self.seed = seed
        self.rng = random.Random(seed)
        #: Separate seeded stream for per-link drop decisions so arming
        #: link faults never shifts the main stream's draws — a schedule
        #: mixing old and new families replays the old families'
        #: randomness (which block to corrupt, node-window drops)
        #: bit-identically to a schedule without the new ones.
        self.link_rng = random.Random(seed ^ 0x5DEECE66D)
        self.log: list[AppliedFault] = []
        #: node_id -> (window end, drop probability)
        self._drop_windows: dict[int, tuple[float, float]] = {}
        #: Armed WAL crash points: (point, node_id or None) -> shots left.
        self._crash_points: dict[tuple[str, int | None], int] = {}
        self._installed = False
        cluster.faults = self

    def install(self) -> "FaultInjector":
        """Spawn the schedule-driver process (idempotent)."""
        if not self._installed:
            self._installed = True
            if self.schedule:
                self.cluster.sim.process(self._driver())
        return self

    # -- RPC drop hook (called by repro.core.scatter_gather) -----------------

    def drop_rpc(self, node_id: int, src_id: int | None = None) -> bool:
        """Decide whether an RPC exchanged with ``node_id`` is dropped now.

        ``src_id`` (the coordinator's node id, when the op is remote)
        additionally consults the directed drop rates of the per-link
        fault plane, drawn from the injector's *link* RNG stream so link
        faults never perturb the main stream's replay.  A severed link
        is not a drop: the network refuses the transfer itself.
        """
        window = self._drop_windows.get(node_id)
        if window is not None:
            until, rate = window
            if self.cluster.sim.now >= until:
                del self._drop_windows[node_id]
            elif self.rng.random() < rate:
                return True
        if src_id is None or src_id == node_id:
            return False
        network = self.cluster.network
        src_name = self.cluster.node(src_id).endpoint.name
        dst_name = self.cluster.node(node_id).endpoint.name
        # An RPC needs both directions (request out, reply back): it
        # survives only if neither directed leg drops it.
        p_keep = 1.0
        for key in ((src_name, dst_name), (dst_name, src_name)):
            state = network.link(*key)
            if state is not None and state.drop_rate > 0.0:
                p_keep *= 1.0 - state.drop_rate
        if p_keep >= 1.0:
            return False
        return self.link_rng.random() >= p_keep

    # -- WAL crash points (consulted by repro.core.wal) ----------------------

    def arm_crash_point(self, point: str, node_id: int | None = None, count: int = 1) -> None:
        """Arm a named WAL stage: the next ``count`` Put/Delete operations
        reaching ``point`` on ``node_id`` (None = any coordinator) crash
        their coordinator there."""
        key = (point, node_id)
        self._crash_points[key] = self._crash_points.get(key, 0) + count

    def should_crash(self, node_id: int, point: str) -> bool:
        """Consume one armed shot matching this (node, point), if any."""
        for key in ((point, node_id), (point, None)):
            shots = self._crash_points.get(key)
            if shots:
                if shots == 1:
                    del self._crash_points[key]
                else:
                    self._crash_points[key] = shots - 1
                self.log.append(
                    AppliedFault(
                        at=self.cluster.sim.now,
                        event=FaultEvent(
                            at=self.cluster.sim.now,
                            kind="crashpoint",
                            node_id=node_id,
                            point=point,
                        ),
                        detail=f"coordinator {node_id} killed at {point}",
                    )
                )
                return True
        return False

    # -- schedule driver ------------------------------------------------------

    def _driver(self):
        sim = self.cluster.sim
        for event in self.schedule:
            if event.at > sim.now:
                yield sim.timeout(event.at - sim.now)
            self._apply(event)

    def _later(self, delay: float, fn) -> None:
        def waiter():
            yield self.cluster.sim.timeout(delay)
            fn()

        self.cluster.sim.process(waiter())

    def _apply(self, event: FaultEvent) -> None:
        sim = self.cluster.sim
        # Join events carry no target node (node_id = -1 by convention).
        in_range = 0 <= event.node_id < len(self.cluster.nodes)
        node = self.cluster.node(event.node_id) if in_range else None
        detail = ""
        if event.kind == "crash":
            self.cluster.fail_node(event.node_id, wipe=event.wipe)
        elif event.kind == "restore":
            self.cluster.restore_node(event.node_id)
        elif event.kind == "blip":
            self.cluster.fail_node(event.node_id, wipe=event.wipe)
            self._later(event.duration, lambda: self.cluster.restore_node(event.node_id))
        elif event.kind in ("slow", "slow_burst"):
            node.disk.slow_factor = event.factor
            node.endpoint.slow_factor = event.factor

            def reset(n=node):
                n.disk.slow_factor = 1.0
                n.endpoint.slow_factor = 1.0

            self._later(event.duration, reset)
        elif event.kind == "corrupt":
            corrupted = self._corrupt_blocks(node, event.blocks)
            detail = ",".join(corrupted) if corrupted else "no blocks stored"
        elif event.kind == "drop":
            self._drop_windows[event.node_id] = (sim.now + event.duration, event.rate)
        elif event.kind == "crashpoint":
            self.arm_crash_point(
                event.point, None if event.node_id < 0 else event.node_id
            )
        elif event.kind == "overload":
            nbytes = event.nbytes if event.nbytes > 0 else 262_144
            sim.process(self._fire_at_rate(
                sim.now + event.duration, event.rate,
                lambda: self._background_request(node, nbytes),
            ))
            detail = f"{event.rate:.0f} req/s of {nbytes}B for {event.duration:.3f}s"
        elif event.kind == "join":
            if self.cluster.membership is None:
                detail = "membership disabled; join ignored"
            else:
                detail = f"node {self.cluster.add_node()} joined"
        elif event.kind == "drain":
            if self.cluster.membership is None:
                detail = "membership disabled; drain ignored"
            else:
                try:
                    self.cluster.drain_node(event.node_id)
                    detail = f"node {event.node_id} draining"
                except ValueError as exc:
                    detail = f"drain refused: {exc}"
        elif event.kind == "flap":
            sim.process(
                self._flap_driver(event.node_id, sim.now + event.duration, event.rate)
            )
            detail = f"flapping at {event.rate:.1f} cycles/s for {event.duration:.3f}s"
        elif event.kind == "tenant_storm":
            nbytes = event.nbytes if event.nbytes > 0 else 262_144
            sim.process(self._fire_at_rate(
                sim.now + event.duration, event.rate,
                lambda: self._tenant_request(node, nbytes, event.tenant),
            ))
            detail = (
                f"tenant {event.tenant!r} storming at {event.rate:.0f} req/s "
                f"of {nbytes}B for {event.duration:.3f}s"
            )
        elif event.kind == "partition":
            detail = self._apply_partition(event)
        elif event.kind == "asym_link":
            detail = self._apply_asym_link(event)
        elif event.kind == "fail_slow":
            node.disk.gray_factor = event.factor
            node.endpoint.gray_factor = event.factor

            def reset_gray(n=node):
                n.disk.gray_factor = 1.0
                n.endpoint.gray_factor = 1.0

            self._later(event.duration, reset_gray)
            detail = f"gray factor {event.factor:.1f}x for {event.duration:.3f}s"
        self.log.append(AppliedFault(at=sim.now, event=event, detail=detail))

    # -- per-link fault plane -------------------------------------------------

    def _apply_partition(self, event: FaultEvent) -> str:
        """Sever every link between side A (``event.nodes``) and the rest
        of the cluster, both directions; heal after ``duration``."""
        num_nodes = len(self.cluster.nodes)
        side_a = sorted({n for n in event.nodes if 0 <= n < num_nodes})
        side_b = [n for n in range(num_nodes) if n not in set(side_a)]
        if not side_a or not side_b:
            return "partition is trivial (one side empty); ignored"
        network = self.cluster.network
        pairs: list[tuple[str, str]] = []
        for a in side_a:
            for b in side_b:
                a_name = self.cluster.node(a).endpoint.name
                b_name = self.cluster.node(b).endpoint.name
                for key in ((a_name, b_name), (b_name, a_name)):
                    network.update_link(*key, severed=True)
                    pairs.append(key)

        if event.duration > 0:

            def heal():
                # Clear only the severed axis: a concurrent asym_link's
                # drop/latency state on the same pair must survive.
                for key in pairs:
                    network.update_link(*key, severed=False)

            self._later(event.duration, heal)
        heal_note = f"heals at +{event.duration:.3f}s" if event.duration > 0 else "no auto-heal"
        return f"cut {side_a} <-> {side_b} ({heal_note})"

    def _apply_asym_link(self, event: FaultEvent) -> str:
        """Degrade only the directed ``node_id -> peer`` link."""
        num_nodes = len(self.cluster.nodes)
        if not (0 <= event.node_id < num_nodes and 0 <= event.peer < num_nodes):
            return "asym_link endpoints out of range; ignored"
        network = self.cluster.network
        src_name = self.cluster.node(event.node_id).endpoint.name
        dst_name = self.cluster.node(event.peer).endpoint.name
        network.update_link(
            src_name, dst_name, drop_rate=event.rate, extra_latency_s=event.latency_s
        )
        # Clear only this fault's axes: a concurrent partition's cut on the
        # same pair must survive.
        self._later(
            event.duration,
            lambda: network.update_link(src_name, dst_name, drop_rate=0.0, extra_latency_s=0.0),
        )
        return (
            f"{src_name}->{dst_name} degraded (drop {event.rate:.2f}, "
            f"+{event.latency_s * 1e3:.1f}ms) for {event.duration:.3f}s"
        )

    def _flap_driver(self, node_id: int, until: float, rate: float):
        """Process: crash/restore ``node_id`` at ``rate`` cycles per
        second until ``until``; the node always ends restored."""
        sim = self.cluster.sim
        half_cycle = 0.5 / rate
        while sim.now < until:
            self.cluster.fail_node(node_id)
            yield sim.timeout(half_cycle)
            self.cluster.restore_node(node_id)
            yield sim.timeout(half_cycle)
        self.cluster.restore_node(node_id)

    def _fire_at_rate(self, until: float, rate: float, request):
        """Process: start the process ``request()`` returns, ``rate`` times
        per second, until ``until`` (``overload`` fires background
        requests, ``tenant_storm`` a tenant's foreground ones)."""
        sim = self.cluster.sim
        interval = 1.0 / rate
        while sim.now < until:
            sim.process(request())
            yield sim.timeout(interval)

    def _background_request(self, node, nbytes: int):
        """One injected background request: disk read + scan compute.

        Runs in the background priority lane so admission control can
        reject it; refusals are swallowed (the injected tenant
        has no retry logic — that is the point of the protection).
        """
        from repro.cluster.metrics import QueryMetrics
        from repro.cluster.overload import BACKGROUND_PRIORITY
        from repro.cluster.simcore import QueueFull

        metrics = QueryMetrics(priority=BACKGROUND_PRIORITY)
        try:
            yield from node.disk.read(nbytes, metrics)
            yield from node.compute(nbytes / node.cpu_config.scan_bps, metrics)
        except QueueFull:
            pass

    def _tenant_request(self, node, nbytes: int, tenant: str):
        """One storming-tenant request: quota check, disk read, scan.

        Runs in the *foreground* lane — the whole point of the storm is
        that priority alone cannot protect other tenants; only the DRR
        fair queues and the tenant's quota can.  Typed refusals
        (QuotaExceeded, QueueFull) are swallowed: the storm has no retry
        logic, it just keeps offering load.
        """
        from repro.cluster.metrics import QueryMetrics
        from repro.cluster.overload import FOREGROUND_PRIORITY
        from repro.cluster.qos import QuotaExceeded
        from repro.cluster.simcore import QueueFull

        metrics = QueryMetrics(priority=FOREGROUND_PRIORITY, tenant=tenant)
        try:
            if self.cluster.qos is not None:
                self.cluster.qos.admit(tenant, metrics)
            yield from node.disk.read(nbytes, metrics)
            yield from node.compute(nbytes / node.cpu_config.scan_bps, metrics)
        except (QueueFull, QuotaExceeded):
            pass

    def _corrupt_blocks(self, node, count: int) -> list[str]:
        """Flip one byte in up to ``count`` seeded-random stored blocks."""
        candidates = [bid for bid in node.block_ids() if node.block_size(bid) > 0]
        corrupted = []
        for _ in range(min(count, len(candidates))):
            bid = self.rng.choice(candidates)
            candidates.remove(bid)
            offset = self.rng.randrange(node.block_size(bid))
            node.corrupt_block(bid, offset)
            corrupted.append(bid)
        return corrupted


def random_schedule(
    num_nodes: int,
    horizon_s: float,
    seed: int,
    crashes: int = 2,
    blips: int = 2,
    slow_windows: int = 1,
    drop_windows: int = 1,
    corruptions: int = 1,
    max_concurrent_down: int = 1,
    mean_downtime_s: float | None = None,
    crash_points: tuple[str, ...] = (),
    overloads: int = 0,
    slow_bursts: int = 0,
    membership: int = 0,
    tenant_storms: int = 0,
    partitions: int = 0,
    asym_links: int = 0,
    fail_slows: int = 0,
) -> list[FaultEvent]:
    """Generate a reproducible random fault schedule.

    Crash/restore pairs and blips are placed so that at most
    ``max_concurrent_down`` nodes are ever dead at once (keeping the
    workload inside the code's erasure tolerance is the caller's job —
    with RS(9,6) up to 3 concurrent losses are recoverable).  All
    placement comes from ``random.Random(seed)``, so the same arguments
    always produce the same schedule.
    """
    rng = random.Random(seed)
    events: list[FaultEvent] = []
    # Non-overlapping downtime windows, assigned to random nodes.
    downtime = mean_downtime_s if mean_downtime_s is not None else horizon_s / 10.0
    windows: list[tuple[float, float, int]] = []  # (start, end, node)

    def place_window(length: float) -> tuple[float, float, int] | None:
        for _ in range(50):
            start = rng.uniform(0.0, max(1e-9, horizon_s - length))
            end = start + length
            concurrent = sum(1 for s, e, _n in windows if s < end and start < e)
            if concurrent >= max_concurrent_down:
                continue
            busy_nodes = {n for s, e, n in windows if s < end and start < e}
            free = [n for n in range(num_nodes) if n not in busy_nodes]
            if not free:
                continue
            node = rng.choice(free)
            windows.append((start, end, node))
            return start, end, node
        return None

    for _ in range(crashes):
        placed = place_window(rng.uniform(0.5, 1.5) * downtime)
        if placed is None:
            continue
        start, end, node = placed
        events.append(FaultEvent(at=start, kind="crash", node_id=node))
        events.append(FaultEvent(at=end, kind="restore", node_id=node))
    for _ in range(blips):
        length = rng.uniform(0.1, 0.4) * downtime
        placed = place_window(length)
        if placed is None:
            continue
        start, _end, node = placed
        events.append(FaultEvent(at=start, kind="blip", node_id=node, duration=length))
    for _ in range(slow_windows):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s),
                kind="slow",
                node_id=rng.randrange(num_nodes),
                duration=rng.uniform(0.2, 0.6) * horizon_s,
                factor=rng.uniform(2.0, 8.0),
            )
        )
    for _ in range(drop_windows):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s),
                kind="drop",
                node_id=rng.randrange(num_nodes),
                duration=rng.uniform(0.1, 0.3) * horizon_s,
                rate=rng.uniform(0.05, 0.3),
            )
        )
    for _ in range(corruptions):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s),
                kind="corrupt",
                node_id=rng.randrange(num_nodes),
            )
        )
    for point in crash_points:
        # Arm a WAL crash point at a random time; whichever coordinator
        # next reaches that stage of a Put/Delete dies there.
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s),
                kind="crashpoint",
                node_id=-1,
                point=point,
            )
        )
    # New fault families draw strictly after the pre-existing ones so a
    # schedule generated with overloads=slow_bursts=0 is bit-identical
    # to what this seed always produced.
    for _ in range(overloads):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s * 0.7),
                kind="overload",
                node_id=rng.randrange(num_nodes),
                duration=rng.uniform(0.1, 0.3) * horizon_s,
                rate=rng.uniform(200.0, 1000.0),
            )
        )
    for _ in range(slow_bursts):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s),
                kind="slow_burst",
                node_id=rng.randrange(num_nodes),
                duration=rng.uniform(0.02, 0.08) * horizon_s,
                factor=rng.uniform(4.0, 16.0),
            )
        )
    # Membership churn (join / drain / flapping node) draws strictly
    # after every earlier family for the same bit-identity guarantee.
    # Events land in the first 80% of the horizon so the tail of the
    # workload exercises the post-churn topology.
    for _ in range(membership):
        kind = rng.choice(("join", "drain", "flap"))
        at = rng.uniform(0.05, 0.8) * horizon_s
        if kind == "join":
            events.append(FaultEvent(at=at, kind="join", node_id=-1))
        elif kind == "drain":
            events.append(
                FaultEvent(at=at, kind="drain", node_id=rng.randrange(num_nodes))
            )
        else:
            length = rng.uniform(0.05, 0.15) * horizon_s
            events.append(
                FaultEvent(
                    at=at,
                    kind="flap",
                    node_id=rng.randrange(num_nodes),
                    duration=length,
                    # 2-5 full crash/restore cycles inside the window.
                    rate=rng.uniform(2.0, 5.0) / length,
                )
            )
    # Tenant storms draw strictly after every earlier family (same
    # bit-identity guarantee for old seeds).  Tenant ids are assigned
    # deterministically by index, not drawn, so adding naming schemes
    # later cannot shift the RNG stream either.
    for i in range(tenant_storms):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s * 0.7),
                kind="tenant_storm",
                node_id=rng.randrange(num_nodes),
                duration=rng.uniform(0.1, 0.3) * horizon_s,
                rate=rng.uniform(200.0, 1000.0),
                tenant=f"storm-{i}",
            )
        )
    # Partition / asymmetric-link / fail-slow families draw strictly
    # after every earlier family (the same append-only RNG discipline:
    # old seeds with these counts at 0 replay bit-identically).
    for _ in range(partitions):
        # Minority side: 1 .. floor((n-1)/2) nodes, so the complement is
        # always a strict majority and quorum-guarded metadata stays
        # writable from side B.
        size = rng.randrange(1, max(2, (num_nodes + 1) // 2))
        side = tuple(sorted(rng.sample(range(num_nodes), min(size, num_nodes))))
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s * 0.6),
                kind="partition",
                node_id=side[0],
                nodes=side,
                duration=rng.uniform(0.1, 0.3) * horizon_s,
            )
        )
    for _ in range(asym_links):
        if num_nodes < 2:
            break  # no draws at all: a 1-node cluster has no links
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes - 1)
        if dst >= src:
            dst += 1
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s * 0.7),
                kind="asym_link",
                node_id=src,
                peer=dst,
                duration=rng.uniform(0.1, 0.3) * horizon_s,
                rate=rng.uniform(0.05, 0.4),
                latency_s=rng.uniform(0.001, 0.01),
            )
        )
    for _ in range(fail_slows):
        events.append(
            FaultEvent(
                at=rng.uniform(0.0, horizon_s * 0.6),
                kind="fail_slow",
                node_id=rng.randrange(num_nodes),
                duration=rng.uniform(0.2, 0.5) * horizon_s,
                factor=rng.uniform(8.0, 32.0),
            )
        )
    return sorted(events, key=lambda ev: ev.at)
