"""Epoch-bumped cluster membership driving ring placement and routing.

The elastic layer between the fixed topology the seed was built on and
runtime topology churn: a :class:`MembershipManager` owns the
consistent-hash ring (:mod:`repro.cluster.ring`), the authoritative
:class:`MembershipRecord` (who is a member, who is draining), and the
replication of that record to every member's metadata store — the same
discipline object metadata follows, so a surviving node can always
answer "what was the newest membership epoch?".

Lifecycle of a node:

* **join** — :meth:`MembershipManager.join` (via ``Cluster.add_node``)
  plants the node's ring tokens and bumps the epoch.  New placements and
  coordination immediately include it; existing data migrates in the
  background (:class:`repro.core.rebalance.Rebalancer`).
* **drain** — the node stays *alive* and keeps serving reads for blocks
  it still holds, but its ring tokens are removed: no new placements,
  no new coordination.  Draining is how data is moved off a node safely
  before it leaves.
* **remove** — only valid for a drained node; it leaves the member set.
  The cluster keeps the node's slot (ids are stable indexes everywhere)
  and marks it dead.

Membership is orthogonal to liveness: a *crashed* node is still a
member (its data is repaired/awaited), while a *drained* node is alive
but no longer a placement target.

Everything here is metadata-plane — no simulated time, no RNG draws —
and the whole module is inert unless ``StoreConfig.membership_enabled``
turned it on, so default-knob runs stay event-identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.ring import HashRing

#: Reserved metadata names (``node.put_meta`` keys) that do not describe
#: user objects; fsck's dangling-replica scan skips this prefix.
RESERVED_META_PREFIX = "__"

#: The metadata key the membership record is replicated under.
MEMBERSHIP_META = "__membership__"


@dataclass(frozen=True)
class MembershipRecord:
    """One epoch's view of the member set (replicated to every member)."""

    epoch: int
    members: tuple[int, ...]
    draining: tuple[int, ...] = ()

    def active(self) -> tuple[int, ...]:
        """Members eligible for new placements and coordination."""
        draining = set(self.draining)
        return tuple(m for m in self.members if m not in draining)


class MembershipManager:
    """Owns the ring, the membership record, and its replication.

    Installed as ``cluster.membership`` by :func:`install_membership`;
    when present, ``Cluster.coordinator_for`` and ``Cluster.place_stripe``
    route through the ring instead of the seed's name-hash / RNG paths.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.ring = HashRing(cluster.config.placement_seed, node_ids=range(cluster.num_nodes))
        self.record = MembershipRecord(
            epoch=1, members=tuple(range(cluster.num_nodes))
        )
        self.republish()

    @property
    def epoch(self) -> int:
        return self.record.epoch

    def active_members(self) -> tuple[int, ...]:
        return self.record.active()

    def is_active(self, node_id: int) -> bool:
        return node_id in self.ring

    # -- membership transitions (each bumps the epoch and republishes) ------

    def join(self, node_id: int) -> None:
        """Admit ``node_id`` as a full placement/coordination target."""
        if node_id in self.record.members:
            raise ValueError(f"node {node_id} is already a member")
        self.ring.add_node(node_id)
        self._bump(
            members=tuple(sorted(self.record.members + (node_id,))),
            draining=self.record.draining,
        )

    def drain(self, node_id: int) -> None:
        """Stop placing new data on (or coordinating through) the node.

        The node keeps serving reads for blocks it already holds; the
        Rebalancer migrates those to ring-correct positions in the
        background, after which :meth:`remove` retires it.
        """
        if node_id not in self.record.members:
            raise ValueError(f"node {node_id} is not a member")
        if node_id in self.record.draining:
            raise ValueError(f"node {node_id} is already draining")
        if len(self.record.active()) <= 1:
            raise ValueError("cannot drain the last active member")
        self.ring.remove_node(node_id)
        self._bump(
            members=self.record.members,
            draining=tuple(sorted(self.record.draining + (node_id,))),
        )

    def remove(self, node_id: int) -> None:
        """Retire a drained node from the member set."""
        if node_id not in self.record.draining:
            raise ValueError(f"node {node_id} must be drained before removal")
        self._bump(
            members=tuple(m for m in self.record.members if m != node_id),
            draining=tuple(d for d in self.record.draining if d != node_id),
        )

    def _bump(self, members: tuple[int, ...], draining: tuple[int, ...]) -> None:
        self.record = MembershipRecord(
            epoch=self.record.epoch + 1, members=members, draining=draining
        )
        tracer = self.cluster.sim.tracer
        if tracer is not None:
            tracer.instant(
                "membership.epoch", cat="membership",
                epoch=self.record.epoch,
                members=len(members), draining=len(draining),
            )
        self.republish()

    def republish(self) -> None:
        """Mirror the current record to every alive member's meta store.

        Metadata-plane (no simulated bytes), like the fixed store's
        placement-map publish: the record is a handful of ints.
        """
        for nid in self.record.members:
            node = self.cluster.node(nid)
            if node.alive:
                node.put_meta(MEMBERSHIP_META, self.record)

    # -- routing and placement ---------------------------------------------

    def coordinator_for(self, object_name: str):
        """Route to the ring owner, walking on past dead nodes."""
        for nid in self.ring.preference(object_name):
            node = self.cluster.node(nid)
            if node.alive:
                return node
        # No active member alive: fall back to any alive member (a
        # draining node can still coordinate in extremis), then to the
        # seed's degenerate whole-cluster-down answer.
        for nid in self.record.members:
            node = self.cluster.node(nid)
            if node.alive:
                return node
        return self.cluster.node(self.record.members[0])

    def placement_for(self, key: str, count: int) -> list[int]:
        """Ring-deterministic node list for one stripe's (or one meta
        replica set's) blocks."""
        return self.ring.nodes_for(key, count)


def install_membership(cluster, config) -> None:
    """Install the membership manager when the knob is on.

    No-op with ``membership_enabled`` off (the default) or when a
    manager is already installed — every store built on one cluster
    calls this, and the first install wins.
    """
    if not config.membership_enabled:
        return
    if cluster.membership is not None:
        return
    cluster.membership = MembershipManager(cluster)
