"""Fusion core: FAC coding, the pushdown cost model, and the object stores.

Public entry points:

* :class:`FusionStore` — the paper's system (Put/Get/Query).
* :class:`BaselineStore` — the fixed-block comparison system.
* :func:`construct_stripes` — FAC stripe construction (Algorithm 1).
* :func:`construct_oracle_layout` / :func:`construct_padding_layout` —
  the Oracle-ILP and Padding comparison layouts.
* :class:`PushdownCostEstimator` — the Cost Equation.
"""

from repro.core.baseline_store import BaselineStore
from repro.core.config import OP_REQUEST_BYTES, SCALAR_RESULT_BYTES, StoreConfig
from repro.core.cost_model import PushdownCostEstimator, PushdownDecision, PushdownMode
from repro.core.fac import construct_stripes, construct_stripes_first_fit
from repro.core.fsck import FsckReport, RecoveryReport, fsck, recover
from repro.core.fixed import (
    FixedLayout,
    build_fixed_layout,
    fraction_of_chunks_split,
)
from repro.core.kernel import ObjectNotFound, PutReport, StripePlacement
from repro.core.layout import Bin, BinSet, ChunkItem, StripeLayout
from repro.core.location_map import (
    ChecksumError,
    ChunkLocation,
    LocationMap,
    chunk_checksum,
)
from repro.core.oracle import OracleError, brute_force_optimal, construct_oracle_layout
from repro.core.padding import construct_padding_layout
from repro.core.rebalance import (
    MigrationEntry,
    RebalanceReport,
    Rebalancer,
    resolve_pending_migrations,
)
from repro.core.repair import RepairError, RepairManager, RepairReport
from repro.cluster.overload import DeadlineExceeded, PartialResult
from repro.cluster.simcore import QueueFull
from repro.core.scatter_gather import SHED, RemoteOp, RemoteOpError
from repro.core.scrub import ScrubReport, check_stripe
from repro.core.store import FusionStore, StoredFusionObject
from repro.core.wal import (
    CRASH_POINTS,
    DELETE_CRASH_POINTS,
    MIGRATE_CRASH_POINTS,
    PUT_CRASH_POINTS,
    CoordinatorCrash,
    MetaReplica,
    WalRecord,
    WalWriter,
)

__all__ = [
    "BaselineStore",
    "Bin",
    "BinSet",
    "CRASH_POINTS",
    "ChecksumError",
    "ChunkItem",
    "ChunkLocation",
    "CoordinatorCrash",
    "DELETE_CRASH_POINTS",
    "DeadlineExceeded",
    "FixedLayout",
    "FsckReport",
    "FusionStore",
    "LocationMap",
    "MIGRATE_CRASH_POINTS",
    "MetaReplica",
    "MigrationEntry",
    "OP_REQUEST_BYTES",
    "ObjectNotFound",
    "OracleError",
    "PUT_CRASH_POINTS",
    "PartialResult",
    "PushdownCostEstimator",
    "PushdownDecision",
    "PushdownMode",
    "PutReport",
    "QueueFull",
    "RebalanceReport",
    "Rebalancer",
    "RecoveryReport",
    "RemoteOp",
    "RemoteOpError",
    "RepairError",
    "RepairManager",
    "RepairReport",
    "SCALAR_RESULT_BYTES",
    "SHED",
    "ScrubReport",
    "StoreConfig",
    "StoredFusionObject",
    "StripeLayout",
    "StripePlacement",
    "WalRecord",
    "WalWriter",
    "brute_force_optimal",
    "check_stripe",
    "chunk_checksum",
    "fsck",
    "recover",
    "resolve_pending_migrations",
    "build_fixed_layout",
    "construct_oracle_layout",
    "construct_padding_layout",
    "construct_stripes",
    "construct_stripes_first_fit",
    "fraction_of_chunks_split",
]
