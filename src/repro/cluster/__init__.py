"""Discrete-event simulated storage cluster.

Stands in for the paper's 10-machine CloudLab testbed: FIFO-queued NIC
pipes, NVMe-class disks and CPU core pools produce contention — and
therefore realistic median/tail latency behaviour — under concurrent
clients.
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.disk import Disk, DiskConfig
from repro.cluster.faults import AppliedFault, FaultEvent, FaultInjector, random_schedule
from repro.cluster.health import NodeHealthTracker
from repro.cluster.membership import (
    MEMBERSHIP_META,
    MembershipManager,
    MembershipRecord,
    install_membership,
)
from repro.cluster.ring import HashRing
from repro.cluster.metrics import (
    CATEGORIES,
    CPU,
    DISK,
    NETWORK,
    OTHER,
    ClusterMetrics,
    QueryMetrics,
    percentile,
)
from repro.cluster.network import Network, NetworkConfig, NetworkEndpoint
from repro.cluster.node import CpuConfig, StorageNode
from repro.cluster.overload import (
    BACKGROUND_PRIORITY,
    FOREGROUND_PRIORITY,
    CancelScope,
    CircuitBreakerBoard,
    Deadline,
    DeadlineExceeded,
    PartialResult,
    install_admission_control,
    install_circuit_breakers,
)
from repro.cluster.simcore import (
    Event,
    LinkDown,
    Process,
    QueueFull,
    Resource,
    SimulationError,
    Simulator,
    all_of,
    any_of,
    record_schedule,
)

__all__ = [
    "AppliedFault",
    "BACKGROUND_PRIORITY",
    "CATEGORIES",
    "CPU",
    "CancelScope",
    "CircuitBreakerBoard",
    "Cluster",
    "ClusterConfig",
    "ClusterMetrics",
    "CpuConfig",
    "DISK",
    "Deadline",
    "DeadlineExceeded",
    "Disk",
    "DiskConfig",
    "Event",
    "FOREGROUND_PRIORITY",
    "FaultEvent",
    "FaultInjector",
    "HashRing",
    "LinkDown",
    "MEMBERSHIP_META",
    "MembershipManager",
    "MembershipRecord",
    "NodeHealthTracker",
    "NETWORK",
    "Network",
    "NetworkConfig",
    "NetworkEndpoint",
    "OTHER",
    "PartialResult",
    "Process",
    "QueryMetrics",
    "QueueFull",
    "Resource",
    "SimulationError",
    "Simulator",
    "StorageNode",
    "all_of",
    "any_of",
    "install_admission_control",
    "install_circuit_breakers",
    "install_membership",
    "percentile",
    "random_schedule",
    "record_schedule",
]
