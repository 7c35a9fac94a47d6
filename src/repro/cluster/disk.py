"""Disk model: a FIFO device with seek latency and sequential bandwidth."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import metrics as m
from repro.cluster.simcore import QueueFull, Resource, Simulator


@dataclass
class DiskConfig:
    """NVMe-class defaults matching the paper's r6525 nodes.

    All I/O in the paper is direct I/O (no page cache), so every read pays
    the device: a fixed access latency plus bytes over the sequential
    bandwidth.
    """

    bandwidth_bps: float = 4.0e9  # 4 GB/s sequential read
    access_latency_s: float = 0.0001  # 100 us per request


class Disk:
    """One node's storage device."""

    def __init__(self, sim: Simulator, config: DiskConfig) -> None:
        self.sim = sim
        self.config = config
        self._device = Resource(sim, capacity=1)
        self.total_bytes = 0
        #: Service-time multiplier; raised above 1.0 by fault injection
        #: to model a degraded device (slow-node fault).
        self.slow_factor = 1.0
        #: Independent fail-slow multiplier (gray-failure fault plane);
        #: composes multiplicatively with ``slow_factor`` so overlapping
        #: slow windows and gray states reset independently.
        self.gray_factor = 1.0

    @property
    def device(self) -> Resource:
        """The FIFO device queue (admission control bounds this)."""
        return self._device

    def read(
        self,
        nbytes: int,
        query: m.QueryMetrics | None = None,
        _op: str = "disk.read",
        requests: int = 1,
    ):
        """Process: read ``nbytes`` from the device (FIFO queued).

        ``requests`` reads served in one hold (a batched exchange) each
        pay the access latency; the bytes stream at the bandwidth.

        Raises :class:`~repro.cluster.simcore.QueueFull` when the device
        queue is admission-bounded and refuses the request; internal
        traffic (``query=None``) is exempt.
        """
        if nbytes < 0:
            raise ValueError("cannot read a negative number of bytes")
        start = self.sim.now
        tracer = self.sim.tracer
        span_id = tracer.begin(_op, cat="device", bytes=nbytes) if tracer is not None else None
        priority = None if query is None else query.priority
        tenant = None if query is None else query.tenant
        try:
            with (
                yield from self._device.acquire(
                    priority, tenant=tenant, cost=float(max(nbytes, 1))
                )
            ):
                duration = (
                    self.config.access_latency_s * requests + nbytes / self.config.bandwidth_bps
                )
                yield self.sim.timeout(duration * self.slow_factor * self.gray_factor)
        except QueueFull:
            if span_id is not None:
                tracer.finish(span_id, rejected=True)
            raise
        if span_id is not None:
            tracer.finish(span_id)
        self.total_bytes += nbytes
        if query is not None:
            query.add(m.DISK, self.sim.now - start)

    def write(self, nbytes: int, query: m.QueryMetrics | None = None, requests: int = 1):
        """Process: write ``nbytes`` (same device model as a read)."""
        yield from self.read(nbytes, query, _op="disk.write", requests=requests)
