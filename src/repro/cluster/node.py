"""Storage node: block store + network endpoint + disk + CPU cores.

A node physically stores erasure-code blocks (real bytes) and offers the
simulated primitives query execution is built from:

* ``read_block`` / ``read_block_range`` / ``read_blocks`` — disk reads
  returning real bytes while charging simulated disk time for the
  *scaled* byte count;
* ``compute`` — occupy a CPU core for a derived duration (decode, filter,
  projection work), charged to the query's processing bucket.

Real data sizes are multiplied by the store's ``size_scale`` before being
charged to simulated devices, letting small generated datasets exercise
paper-scale behaviour (the ~1.5 MB generated lineitem file behaves like
the paper's 10 GB one with ``size_scale`` ~6,500).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import metrics as m
from repro.cluster.disk import Disk, DiskConfig
from repro.cluster.network import NetworkEndpoint
from repro.cluster.simcore import QueueFull, Resource, Simulator


@dataclass
class CpuConfig:
    """Per-core processing rates (bytes/second of input consumed).

    Chunk decode costs two phases: decompression, charged on the chunk's
    *compressed* bytes at ``decompress_bps``, and value materialisation
    (dictionary gather, bit-unpack), charged on the *uncompressed* bytes
    at ``materialize_bps``.  ``scan_bps`` covers running a filter or
    selecting projection values over decoded data (also on uncompressed
    bytes).  ``decode_bps`` is the generic rate used for erasure coding
    and metadata parsing.
    """

    cores: int = 16
    decompress_bps: float = 2.5e9
    materialize_bps: float = 8.0e9
    scan_bps: float = 8.0e9
    decode_bps: float = 3.0e9


class StorageNode:
    """One storage node in the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        disk_config: DiskConfig,
        cpu_config: CpuConfig,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.disk = Disk(sim, disk_config)
        self.cpu_config = cpu_config
        self.cpu = Resource(sim, capacity=cpu_config.cores)
        self.endpoint = NetworkEndpoint(sim, f"node-{node_id}", cpu=self.cpu)
        # Trace labels for queue.wait spans: which node/device a queued
        # acquisition was waiting on (consumed by repro.obs.critpath).
        for resource, label in (
            (self.cpu, "cpu"),
            (self.disk.device, "disk"),
            (self.endpoint.ingress, "nic_in"),
            (self.endpoint.egress, "nic_out"),
        ):
            resource.trace_name = label
            resource.trace_node = node_id
        self._blocks: dict[str, np.ndarray] = {}
        #: Write-ahead intent log for Put/Delete coordinated by this node
        #: (mirrored to the object's metadata replica nodes so recovery
        #: survives a dead coordinator).  Appends are metadata-plane
        #: operations: no simulated device time is charged.
        self.wal: list = []
        #: Materialized metadata replicas this node holds, by object
        #: name.  The replica payload stands in for the serialized
        #: location/placement map whose wire cost the stores charge when
        #: replicating it.
        self._meta_replicas: dict[str, object] = {}

    @property
    def alive(self) -> bool:
        """The endpoint's liveness bit (set by Cluster.fail_node /
        restore_node): stores and the network's delivery rule read it."""
        return self.endpoint.alive

    # -- block storage -----------------------------------------------------

    def put_block(self, block_id: str, data: np.ndarray) -> None:
        """Store a block's bytes (instantaneous; Put latency is modelled
        separately by the stores)."""
        self._blocks[block_id] = np.ascontiguousarray(data, dtype=np.uint8)

    def has_block(self, block_id: str) -> bool:
        return block_id in self._blocks

    def drop_block(self, block_id: str) -> None:
        """Simulate losing a block (for recovery tests)."""
        self._blocks.pop(block_id, None)

    def wipe_blocks(self) -> None:
        """Discard everything on disk — blocks, metadata replicas, and
        the write-ahead log (a disk loss, not just a reboot)."""
        self._blocks.clear()
        self._meta_replicas.clear()
        self.wal.clear()

    # -- metadata replicas -------------------------------------------------

    def put_meta(self, object_name: str, replica: object) -> None:
        """Store (or overwrite) one object's metadata replica."""
        self._meta_replicas[object_name] = replica

    def get_meta(self, object_name: str):
        """The stored metadata replica, or None."""
        return self._meta_replicas.get(object_name)

    def drop_meta(self, object_name: str) -> None:
        self._meta_replicas.pop(object_name, None)

    def meta_names(self) -> list[str]:
        """Replicated object names in sorted order (deterministic)."""
        return sorted(self._meta_replicas)

    def wal_append(self, record: object) -> None:
        """Append one WAL record (idempotent per record identity)."""
        if record not in self.wal:
            self.wal.append(record)

    def block_ids(self) -> list[str]:
        """Stored block ids in sorted order (deterministic iteration)."""
        return sorted(self._blocks)

    def corrupt_block(
        self, block_id: str, offset: int, length: int = 1, xor_mask: int = 0x5A
    ) -> None:
        """Silently flip bytes inside a stored block (bit rot).

        No metadata changes and no error is raised — only scrubbing (or
        a decode of the damaged range) can notice.
        """
        block = self._blocks[block_id]
        if not 0 <= offset < block.size:
            raise ValueError(f"offset {offset} outside block of size {block.size}")
        if not block.flags.writeable:  # stored views can be read-only
            block = block.copy()
            self._blocks[block_id] = block
        end = min(offset + length, block.size)
        block[offset:end] ^= np.uint8(xor_mask)

    def block_size(self, block_id: str) -> int:
        return self._blocks[block_id].size

    def peek_block(self, block_id: str) -> np.ndarray:
        """Stored bytes of a block with no simulated device time charged.

        For offline integrity checking (fsck); simulated reads go through
        :meth:`read_block` / :meth:`read_block_range`.
        """
        return self._blocks[block_id]

    @property
    def stored_bytes(self) -> int:
        return sum(b.size for b in self._blocks.values())

    # -- simulated primitives ------------------------------------------------

    def read_block_range(
        self,
        block_id: str,
        offset: int,
        length: int,
        scale: float,
        query: m.QueryMetrics | None = None,
    ):
        """Process: read ``[offset, offset+length)`` of a block from disk.

        Returns the real bytes; charges ``length * scale`` simulated bytes.
        """
        block = self._blocks.get(block_id)
        if block is None:
            raise KeyError(f"node {self.node_id} does not hold block {block_id!r}")
        if offset < 0 or offset + length > block.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) out of bounds for "
                f"block {block_id!r} of size {block.size}"
            )
        yield from self.disk.read(int(length * scale), query)
        return block[offset : offset + length]

    def read_block(self, block_id: str, scale: float, query: m.QueryMetrics | None = None):
        """Process: read a whole block."""
        block = self._blocks[block_id]
        yield from self.disk.read(int(block.size * scale), query)
        return block

    def read_blocks(self, block_ids, scale: float, query: m.QueryMetrics | None = None):
        """Process: read several whole blocks in one device hold (each
        pays the access latency); returns them in order."""
        blocks = [self._blocks[bid] for bid in block_ids]
        nbytes = sum(int(block.size * scale) for block in blocks)
        yield from self.disk.read(nbytes, query, requests=len(blocks))
        return blocks

    def compute(self, seconds: float, query: m.QueryMetrics | None = None):
        """Process: occupy one CPU core for ``seconds`` of work.

        Raises :class:`~repro.cluster.simcore.QueueFull` when the CPU
        pool is admission-bounded and refuses the request; internal
        traffic (``query=None``) is exempt.
        """
        if seconds < 0:
            raise ValueError("negative compute time")
        start = self.sim.now
        tracer = self.sim.tracer
        span_id = (
            tracer.begin("cpu.compute", cat="device", node=self.node_id, work_s=seconds)
            if tracer is not None
            else None
        )
        priority = None if query is None else query.priority
        tenant = None if query is None else query.tenant
        try:
            with (
                yield from self.cpu.acquire(
                    priority, tenant=tenant, cost=max(seconds, 1e-9)
                )
            ):
                yield self.sim.timeout(seconds)
        except QueueFull:
            if span_id is not None:
                tracer.finish(span_id, rejected=True)
            raise
        if span_id is not None:
            tracer.finish(span_id)
        if query is not None:
            query.add(m.CPU, self.sim.now - start)

    def decode_seconds(self, compressed_bytes: int, plain_bytes: int, scale: float) -> float:
        """CPU time to decompress and decode one chunk to values."""
        return scale * (
            compressed_bytes / self.cpu_config.decompress_bps
            + plain_bytes / self.cpu_config.materialize_bps
        )

    def scan_seconds(self, plain_bytes: int, scale: float) -> float:
        """CPU time to filter/select over decoded values of given size."""
        return plain_bytes * scale / self.cpu_config.scan_bps
