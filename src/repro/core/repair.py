"""Background repair: rebuild lost and corrupt blocks onto live nodes.

The :class:`RepairManager` is the control loop between failure detection
and durability: it consumes scrub reports (``verify_object``) and node
failures, asks the store to repair the damaged stripes via EC
reconstruction, a round of stripes at a time (``repair_stripes_process``
on either store), and accounts the traffic separately from query
traffic — repair bytes land in ``ClusterMetrics.repair_bytes`` via
:meth:`ClusterMetrics.record_repair`, never in ``network_bytes``.

Corruption isolation lives here too: :func:`localise_stripe` localises
*which* readable shard is damaged by treating candidate shards as
erasures and checking whether the remainder re-encodes consistently —
the standard decode-trial localisation for MDS codes.  Repair is not
paced: it runs in the background priority lane under admission control,
and a stripe whose exchange a full queue refuses waits for a later run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import BACKGROUND_PRIORITY
from repro.core.wal import QuorumLost
from repro.ec.reed_solomon import CodeParams
from repro.ec.stripe import stripe_codeword, stripe_codewords

#: Stripes one repair round rebuilds (``RepairManager._repair_targets``).
#: A round pays each per-stripe step once: one gather exchange per
#: (source node, coordinator), one solve per erasure pattern, one write
#: per (coordinator, holder) and one republish per object.
REPAIR_ROUND_STRIPES = 64


class RepairError(RuntimeError):
    """A stripe is damaged beyond what the code can localise or rebuild."""


def localise_stripe(
    params: CodeParams,
    shards: list[np.ndarray | None],
    data_sizes: list[int],
) -> tuple[set[int], list[np.ndarray]]:
    """Positions of missing or corrupt shards in one stripe, and the
    codeword that proves it.

    ``shards`` holds the n stripe positions in order (data then parity)
    at their true sizes; ``None`` marks an unreadable position.  Returns
    the set of positions needing reconstruction: the missing ones plus
    any readable shard whose bytes are inconsistent with the rest of the
    codeword.  Corruption is localised by decode trials: each candidate
    subset of readable shards is treated as erased, and the smallest
    subset whose exclusion leaves a consistent codeword is the damage.
    The second value is that codeword's n shards
    (:func:`repro.ec.stripe.stripe_codeword`): what a repair writes back.

    Raises :class:`RepairError` when the stripe has lost more positions
    than the code tolerates, or when corruption cannot be localised
    within the remaining erasure budget.
    """
    n = params.n
    if len(shards) != n:
        raise ValueError(f"expected {n} stripe positions, got {len(shards)}")
    missing = {i for i, s in enumerate(shards) if s is None}
    if len(missing) > params.parity:
        raise RepairError(
            f"{len(missing)} positions unreadable; RS({params.n},{params.k}) "
            f"tolerates {params.parity}"
        )
    # Zero-size data blocks are padding the encoder synthesises — they
    # carry no bytes and cannot be corrupt.
    readable = [
        i
        for i, s in enumerate(shards)
        if s is not None and not (i < params.k and data_sizes[i] == 0)
    ]
    budget = params.parity - len(missing)
    for r in range(budget + 1):
        for combo in combinations(readable, r):
            codeword = stripe_codeword(
                params, shards, data_sizes, frozenset(missing) | frozenset(combo)
            )
            if codeword is not None:
                return missing | set(combo), codeword
    raise RepairError(
        "cannot localise corruption within the code's erasure budget "
        f"({len(missing)} unreadable, {params.parity} tolerated)"
    )


def localise_stripes(
    params: CodeParams, stripes: list[tuple[list[np.ndarray | None], list[int]]]
) -> list[tuple[set[int], list[np.ndarray]] | RepairError]:
    """:func:`localise_stripe` over a round's ``(shards, data_sizes)``
    stripes.  One batched solve (:func:`repro.ec.stripe.stripe_codewords`)
    accepts every stripe whose readable shards already form a codeword;
    a stripe it rejects goes through the decode trials alone.  A stripe
    beyond the code's reach comes back as its :class:`RepairError`."""
    out: list[tuple[set[int], list[np.ndarray]] | RepairError] = []
    for (shards, data_sizes), codeword in zip(stripes, stripe_codewords(params, stripes)):
        if codeword is not None:
            out.append(({i for i, s in enumerate(shards) if s is None}, codeword))
            continue
        try:
            out.append(localise_stripe(params, shards, data_sizes))
        except RepairError as exc:
            out.append(exc)
    return out


@dataclass
class RepairReport:
    """What one repair run did, and what it cost."""

    objects: list[str] = field(default_factory=list)
    stripes_examined: int = 0
    stripes_repaired: int = 0
    blocks_repaired: int = 0
    #: Stripes skipped because admission control refused the repair's
    #: (background-priority) traffic — retried by a later repair run.
    stripes_deferred: int = 0
    #: Stripes whose metadata republish was refused by the quorum guard
    #: (QuorumLost: a partition strands this coordinator with a minority
    #: of the object's meta-replica holders) — retried after heal.
    stripes_quorum_deferred: int = 0
    repair_bytes: int = 0  # simulated network bytes moved by repair
    started: float = 0.0
    finished: float = 0.0

    @property
    def time_to_repair(self) -> float:
        return self.finished - self.started


class RepairManager:
    """Consumes scrub reports and node failures; rebuilds onto live nodes.

    Wraps one store (``FusionStore`` or ``BaselineStore``) and repairs
    every object in it, whatever the object's layout.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.cluster = store.cluster
        self.sim = store.sim

    # -- public entry points (each has a run-the-sim convenience) ---------

    def repair_node(self, node_id: int) -> RepairReport:
        """Repair every stripe that had a block on ``node_id`` (runs sim)."""
        return self.store._run(self.repair_node_process(node_id))

    def repair_node_process(self, node_id: int):
        report = yield from self._repair_targets(self.store.stripes_on_node(node_id))
        return report

    def repair_from_scrub(self, scrub_report) -> RepairReport:
        """Repair the stripes a scrub flagged (runs the simulation)."""
        return self.store._run(self.repair_from_scrub_process(scrub_report))

    def repair_from_scrub_process(self, scrub_report):
        name = scrub_report.object_name
        damaged: set[int] = set()
        if name in self.store.objects:  # else deleted since the scrub ran
            damaged = set(scrub_report.corrupt_stripes) | set(scrub_report.incomplete_stripes)
        report = yield from self._repair_targets([(name, sid) for sid in sorted(damaged)])
        return report

    def repair_object(self, name: str) -> RepairReport:
        """Examine and repair every stripe of one object (runs the sim)."""
        return self.store._run(self.repair_object_process(name))

    def repair_object_process(self, name: str):
        obj = self.store.objects.get(name)  # None: deleted since requested
        targets = [] if obj is None else [(name, p.stripe_id) for p in obj.stripes]
        report = yield from self._repair_targets(targets)
        return report

    def repair_read_reported(self) -> RepairReport:
        """Drain the cluster's anti-entropy read-repair queue (runs sim).

        Stripes land on ``cluster.read_repairs`` when a foreground read
        had to reconstruct data (degraded or checksum-failed); draining
        them repairs the damage from traffic instead of waiting for the
        next scrub.  Any repair pass over a queued stripe (``repair_node``,
        ``repair_from_scrub``, ``repair_object``) answers its hint, so the
        drain covers only the stripes no pass has reached since their
        reads; a pass that defers puts its hint back.  Traffic is
        accounted as ``read_repair_bytes``, separate from both query and
        scrub-repair traffic.
        """
        return self.store._run(self.repair_read_reported_process())

    def repair_read_reported_process(self):
        queue = self.cluster.read_repairs
        targets = []
        for (kind, name, sid), store in list(queue.items()):
            if store is not self.store:
                continue  # another store's stripe; leave it queued
            del queue[(kind, name, sid)]
            targets.append((name, sid))
        report = yield from self._repair_targets(targets, accounting="read_repair")
        return report

    # -- internals --------------------------------------------------------

    def _repair_targets(self, targets, accounting: str = "repair"):
        """Process: repair the (object, stripe) targets in rounds of
        :data:`REPAIR_ROUND_STRIPES`, in order
        (``StoreKernel.repair_stripes_process``).

        One :class:`QueryMetrics` accumulates the whole run's traffic;
        it is *never* passed to ``record_query``, so repair bytes stay
        out of the query totals and land in ``record_repair`` — or, for
        ``accounting="read_repair"`` runs, ``record_read_repair`` —
        instead.

        Repair runs in the background priority lane.  Deferral is per
        stripe: a stripe whose exchange admission control refused, or
        whose rewrite was lost in flight, is left for a later run, and so
        are an object's stripes when its coordinator is cut off from the
        object's metadata majority.
        """
        metrics = QueryMetrics(priority=BACKGROUND_PRIORITY)
        report = RepairReport(started=self.sim.now)
        tracer = self.sim.tracer
        run_span_id = (
            tracer.begin("repair_run", cat="repair", targets=len(targets))
            if tracer is not None
            else None
        )
        store = self.store
        touched: set[str] = set()
        for start in range(0, len(targets), REPAIR_ROUND_STRIPES):
            # An object deleted (or crash-rolled-back) between scheduling
            # and its round has nothing left to repair.
            batch = [
                (name, sid)
                for name, sid in targets[start : start + REPAIR_ROUND_STRIPES]
                if name in store.objects
            ]
            if not batch:
                continue
            outcomes = yield from store.repair_stripes_process(batch, metrics)
            for (name, _sid), outcome in zip(batch, outcomes):
                if isinstance(outcome, Exception):
                    # QueueFull / LinkDown: the cluster is too busy for
                    # background traffic, or a rewrite was lost.
                    # QuorumLost: repairing now would install a
                    # minority-epoch snapshot (split-brain).
                    report.stripes_deferred += 1
                    report.stripes_quorum_deferred += isinstance(outcome, QuorumLost)
                    continue
                report.stripes_examined += 1
                if outcome:
                    report.stripes_repaired += 1
                    report.blocks_repaired += outcome
                    touched.add(name)
        report.objects = sorted(touched)
        report.repair_bytes = metrics.network_bytes
        report.finished = self.sim.now
        if run_span_id is not None:
            tracer.finish(
                run_span_id,
                stripes_repaired=report.stripes_repaired,
                blocks_repaired=report.blocks_repaired,
            )
        record = (
            self.cluster.metrics.record_read_repair
            if accounting == "read_repair"
            else self.cluster.metrics.record_repair
        )
        record(metrics.network_bytes, report.blocks_repaired, report.time_to_repair)
        return report
