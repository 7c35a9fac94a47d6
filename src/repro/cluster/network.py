"""Network model: per-node full-duplex pipes plus RPC overhead.

Each node owns an egress pipe and an ingress pipe, each a FIFO resource
serialising transfers at the configured bandwidth (store-and-forward).
A transfer of ``nbytes`` from A to B:

0. is refused with :class:`~repro.cluster.simcore.LinkDown` unless the
   network delivers from A to B (:meth:`Network.delivers`: both endpoints
   up, neither directed leg severed).  Refused at dispatch, it moves
   nothing and counts no RPC; asked again at delivery (an endpoint died
   or the link was cut in flight), its bytes, RPC and CPU stay charged;
1. waits for A's egress pipe, then B's ingress pipe (FIFO queueing is what
   produces tail latency under concurrent clients);
2. occupies both for ``nbytes / bandwidth`` seconds;
3. pays half an RTT of propagation delay plus a fixed per-RPC overhead.

Transfers between a node and itself are free (local loopback) and never
refused, matching how the paper's coordinator processes locally-resident
chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import metrics as m
from repro.cluster.simcore import LinkDown, QueueFull, Resource, Simulator

#: Detached network-processing charges ride the background lane, so a
#: full admission queue refuses them like other background work (the
#: value is repeated here to avoid an import cycle with
#: repro.cluster.overload).
BACKGROUND_PRIORITY = 0


@dataclass
class NetworkConfig:
    """Link parameters.

    Defaults mirror the paper's testbed after `wondershaper`: 25 Gbps per
    direction, sub-millisecond datacenter RTT, and a fixed per-RPC cost
    covering serialisation and kernel overheads.
    """

    bandwidth_bps: float = 25e9 / 8  # 25 Gbps expressed in bytes/sec
    rtt_s: float = 0.0002
    rpc_overhead_s: float = 0.0003
    #: CPU cost of moving bytes (TCP/RPC processing), per core.  Charged
    #: as busy time on each endpoint's CPU — this is why the baseline,
    #: which moves far more data, burns more CPU at equal load (Fig 14d).
    cpu_bps: float = 2.0e9


class NetworkEndpoint:
    """One node's attachment to the network: an egress and an ingress pipe.

    ``cpu`` optionally references the owning node's CPU resource so that
    network processing cost can be charged to it (client endpoints have
    no CPU of interest).
    """

    def __init__(self, sim: Simulator, name: str, cpu: Resource | None = None) -> None:
        self.name = name
        #: The one liveness bit (``StorageNode.alive`` reads it); client
        #: endpoints are always up.
        self.alive = True
        self.egress = Resource(sim, capacity=1)
        self.ingress = Resource(sim, capacity=1)
        self.cpu = cpu
        #: Serialisation-time multiplier; raised above 1.0 by fault
        #: injection to model a degraded NIC (slow-node fault).
        self.slow_factor = 1.0
        #: Independent fail-slow multiplier (gray-failure fault plane).
        #: Composes multiplicatively with ``slow_factor`` so an ordinary
        #: slow window ending cannot clear a concurrent gray state.
        self.gray_factor = 1.0


@dataclass
class LinkState:
    """Fault state of one *directed* link (src endpoint -> dst endpoint).

    All three axes compose with the node-scoped fault planes: a severed
    link loses every RPC crossing it (in either direction an RPC needs —
    requests one way, replies the other), ``drop_rate`` loses a seeded
    fraction, and ``extra_latency_s`` is added to each transfer's fixed
    latency (asymmetric-link degradation: only this direction pays).
    """

    drop_rate: float = 0.0
    extra_latency_s: float = 0.0
    severed: bool = False

    @property
    def clear(self) -> bool:
        return not self.severed and self.drop_rate <= 0.0 and self.extra_latency_s <= 0.0


class Network:
    """The shared fabric connecting all endpoints."""

    def __init__(self, sim: Simulator, config: NetworkConfig) -> None:
        self.sim = sim
        self.config = config
        #: Directed per-link fault matrix keyed by (src name, dst name).
        #: Empty in fault-free runs — the transfer path only consults it
        #: when non-empty, so default-knob runs stay bit-identical.
        self.links: dict[tuple[str, str], LinkState] = {}
        self.total_bytes = 0
        #: Messages actually put on the wire (loopback excluded).
        self.rpcs_issued = 0
        #: Per-op messages coalesced into an exchange: a batched request
        #: carrying ``p`` op payloads counts as 1 issued and ``p - 1``
        #: saved, and every streamed reply riding an open exchange
        #: counts as 1 saved.
        self.rpcs_saved = 0

    # -- per-link fault plane ------------------------------------------------

    def set_link(
        self,
        src_name: str,
        dst_name: str,
        drop_rate: float = 0.0,
        extra_latency_s: float = 0.0,
        severed: bool = False,
    ) -> None:
        """Install (or clear) fault state on the directed src->dst link."""
        self.update_link(
            src_name, dst_name, drop_rate=drop_rate, extra_latency_s=extra_latency_s,
            severed=severed,
        )

    def update_link(self, src_name: str, dst_name: str, **axes) -> None:
        """Set some fault axes of the directed src->dst link, keeping the
        others (a partition and an asym_link on one pair compose); a link
        whose axes all clear leaves the matrix."""
        key = (src_name, dst_name)
        state = self.links.get(key) or LinkState()
        for axis, value in axes.items():
            setattr(state, axis, value)
        if state.clear:
            self.links.pop(key, None)
        else:
            self.links[key] = state

    def clear_link(self, src_name: str, dst_name: str) -> None:
        self.links.pop((src_name, dst_name), None)

    def link(self, src_name: str, dst_name: str) -> LinkState | None:
        """The directed link's fault state, or None when healthy."""
        if not self.links:
            return None
        return self.links.get((src_name, dst_name))

    def delivers(self, src: NetworkEndpoint, dst: NetworkEndpoint) -> bool:
        """The delivery rule: both endpoints are up and neither directed
        leg between them is severed.  Every transfer obeys it."""
        if not (src.alive and dst.alive):
            return False
        return not self.links or not self.link_severed(src.name, dst.name)

    def link_severed(self, a_name: str, b_name: str) -> bool:
        """True when an RPC between the two endpoints cannot complete:
        a round trip needs both directions, so either severed direction
        kills it."""
        if not self.links:
            return False
        fwd = self.links.get((a_name, b_name))
        rev = self.links.get((b_name, a_name))
        return (fwd is not None and fwd.severed) or (rev is not None and rev.severed)

    def severed_link_count(self) -> int:
        """Currently-severed directed links (telemetry gauge)."""
        return sum(1 for state in self.links.values() if state.severed)

    def transfer(
        self,
        src: NetworkEndpoint,
        dst: NetworkEndpoint,
        nbytes: int,
        query: m.QueryMetrics | None = None,
    ):
        """Process: move ``nbytes`` from ``src`` to ``dst``.

        Charges the bytes and elapsed time to ``query`` when given.  A
        zero-byte transfer still pays the RPC overhead (it is a message).
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        if src is dst:
            return  # loopback, as in batch_transfer
        latency_s = self.config.rtt_s / 2 + self.config.rpc_overhead_s
        yield from self._move(src, dst, nbytes, latency_s, query, self.sim.now, issued=1)

    def batch_transfer(
        self,
        src: NetworkEndpoint,
        dst: NetworkEndpoint,
        sizes,
        query: m.QueryMetrics | None = None,
    ):
        """Process: one coalesced RPC carrying ``len(sizes)`` op payloads.

        The scatter-gather batching primitive: all payloads still
        serialise through the FIFO pipes at link bandwidth (so queueing
        and tail-latency shape are preserved), but the fixed per-RPC
        overhead and the half-RTT propagation delay are paid *once* for
        the whole batch instead of once per op.  ``sizes`` lists each
        op's payload bytes; byte accounting is the sum, so coalescing
        changes when bytes travel, never how many.
        """
        sizes = list(sizes)
        if not sizes:
            return
        if any(s < 0 for s in sizes):
            raise ValueError("cannot transfer a negative number of bytes")
        nbytes = sum(sizes)
        start = self.sim.now
        if src is dst:
            # Loopback: no pipes, no RTT, no traffic accounting.
            return
        yield from self._move(
            src,
            dst,
            nbytes,
            self.config.rtt_s / 2 + self.config.rpc_overhead_s,
            query,
            start,
            issued=1,
            saved=len(sizes) - 1,
        )

    def stream_transfer(
        self,
        src: NetworkEndpoint,
        dst: NetworkEndpoint,
        nbytes: int,
        query: m.QueryMetrics | None = None,
        half_rtt: bool = False,
    ):
        """Process: a per-op reply riding an already-opened batched exchange.

        The payload still serialises through the FIFO pipes at link
        bandwidth, but no new RPC is set up: the message pays no
        per-RPC overhead (and propagation only when ``half_rtt`` is set,
        for the first reply of an exchange).  Counts as one saved RPC:
        sent on its own, this reply would have been its own round trip.
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        start = self.sim.now
        if src is dst:
            return
        yield from self._move(
            src, dst, nbytes, self.config.rtt_s / 2 if half_rtt else 0.0, query, start,
            saved=1,
        )

    def _move(self, src, dst, nbytes, latency_s, query, start, issued=0, saved=0):
        """Occupy the pipes for ``nbytes`` plus ``latency_s`` of fixed cost,
        counting ``issued`` / ``saved`` RPCs once dispatched.

        Raises LinkDown when the delivery rule refuses the transfer, and
        :class:`~repro.cluster.simcore.QueueFull` when either pipe is
        admission-bounded and refuses the request; internal traffic
        (``query=None``) is exempt.
        """
        if not self.delivers(src, dst):
            raise LinkDown(f"{src.name} -> {dst.name} refused at dispatch")
        self.rpcs_issued += issued
        self.rpcs_saved += saved
        if query is not None:
            query.rpcs_issued += issued
            query.rpcs_saved += saved
        tracer = self.sim.tracer
        span_id = (
            tracer.begin("net.transfer", cat="device", src=src.name, dst=dst.name,
                         bytes=nbytes)
            if tracer is not None
            else None
        )
        priority = None if query is None else query.priority
        tenant = None if query is None else query.tenant
        cost = float(max(nbytes, 1))
        try:
            with (yield from src.egress.acquire(priority, tenant=tenant, cost=cost)):
                with (yield from dst.ingress.acquire(priority, tenant=tenant, cost=cost)):
                    slow = max(
                        src.slow_factor * src.gray_factor,
                        dst.slow_factor * dst.gray_factor,
                    )
                    if self.links:
                        # Asymmetric-link degradation: only the directed
                        # src->dst state adds latency to this transfer.
                        state = self.links.get((src.name, dst.name))
                        if state is not None:
                            latency_s += state.extra_latency_s
                    duration = nbytes / self.config.bandwidth_bps * slow + latency_s
                    yield self.sim.timeout(duration)
        except QueueFull:
            if span_id is not None:
                tracer.finish(span_id, rejected=True)
            raise
        if span_id is not None:
            tracer.finish(span_id)
        self.total_bytes += nbytes
        # Network processing burns CPU at both endpoints, overlapped with
        # the transfer itself (busy time for utilisation accounting; it
        # contends with other CPU work but does not extend this transfer).
        # Detached holds: a full admission-bounded CPU queue drops the
        # charge rather than failing the transfer.
        if nbytes > 0 and self.config.cpu_bps > 0:
            cpu_seconds = nbytes / self.config.cpu_bps
            for endpoint in (src, dst):
                if endpoint.cpu is not None:
                    endpoint.cpu.occupy(cpu_seconds, BACKGROUND_PRIORITY)
        if query is not None:
            query.network_bytes += nbytes
            query.add(m.NETWORK, self.sim.now - start)
        if not self.delivers(src, dst):
            raise LinkDown(f"{src.name} -> {dst.name} lost in flight")

