"""Overload protection: deadlines, cancellation scopes, circuit breakers.

The Cost Equation (paper §4) decides *where* work runs under load, but a
store also needs defenses for when offered load exceeds capacity — else
retries amplify traffic exactly when nodes saturate (the
metastable-failure shape).  This module holds the mechanism layer:

* :class:`Deadline` / :class:`DeadlineExceeded` — a per-operation budget
  on the simulated clock, checked cooperatively at every scatter-gather
  hop and inside per-chunk evaluation.  Checks are pure clock reads; no
  timeline events are scheduled, so carrying a deadline that never
  expires leaves the scheduled-event stream bit-identical.
* :class:`CancelScope` — groups the processes fanned out for one
  operation so that when the deadline (or the parent op) dies, every
  in-flight child is cancelled rather than orphaned.
* :class:`CircuitBreakerBoard` — per-node closed→open→half-open state
  machines layered on :class:`~repro.cluster.health.NodeHealthTracker`:
  they trip on queue-reject/timeout *rates* inside a sliding window,
  route traffic around open nodes, and probe with a single half-open
  trial before closing again.
* :class:`PartialResult` — the typed answer a scan query returns when
  ``allow_partial_results`` let the coordinator shed chunks instead of
  failing the whole query.

Admission control itself (bounded queues that reject when full) lives on
:class:`repro.cluster.simcore.Resource`; :func:`install_admission_control`
applies a :class:`~repro.core.config.StoreConfig`'s knobs to every
storage-node service loop (CPU, disk, NIC ingress/egress).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator

from repro.cluster.simcore import Process, QueueFull, Simulator

__all__ = [
    "BACKGROUND_PRIORITY",
    "FOREGROUND_PRIORITY",
    "CancelScope",
    "CircuitBreakerBoard",
    "Deadline",
    "DeadlineExceeded",
    "PartialResult",
    "QueueFull",
    "arm_deadline",
    "check_deadline",
    "fail_query",
    "install_admission_control",
    "install_circuit_breakers",
]

#: Priority lanes for admission-controlled service queues.  Foreground
#: query traffic outranks background work (repair, scrubbing, injected
#: background bursts): a fair queue serves the higher lane first.
FOREGROUND_PRIORITY = 1
BACKGROUND_PRIORITY = 0


class DeadlineExceeded(RuntimeError):
    """An operation ran past its deadline and was abandoned."""


class Deadline:
    """An absolute expiry time on the simulated clock.

    Pure bookkeeping: checking a deadline reads the clock and raises;
    nothing is ever scheduled, so un-expired deadlines cannot perturb
    the event stream.
    """

    __slots__ = ("sim", "expires_at")

    def __init__(self, sim: Simulator, timeout_s: float) -> None:
        self.sim = sim
        self.expires_at = sim.now + timeout_s

    @property
    def remaining(self) -> float:
        return self.expires_at - self.sim.now

    @property
    def expired(self) -> bool:
        return self.sim.now > self.expires_at

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            suffix = f" at {where}" if where else ""
            raise DeadlineExceeded(
                f"deadline exceeded{suffix} "
                f"({self.sim.now - self.expires_at:.6f}s over budget)"
            )

    @staticmethod
    def from_config(sim: Simulator, config) -> "Deadline | None":
        """The operation deadline for ``config``, or ``None`` when off."""
        if config is None or config.default_deadline_s <= 0:
            return None
        return Deadline(sim, config.default_deadline_s)


def arm_deadline(sim: Simulator, config, metrics) -> None:
    """Attach the configured operation deadline to a request's metrics.

    A deadline already present wins: a caller that armed the metrics
    itself, or reuses them across requests, keeps that budget instead of
    having it reset.
    """
    if metrics is not None and metrics.deadline is None:
        metrics.deadline = Deadline.from_config(sim, config)


def check_deadline(metrics, where: str = "chunk") -> None:
    """Cooperative deadline check inside per-chunk evaluation bodies."""
    if metrics is not None and metrics.deadline is not None:
        metrics.deadline.check(where)


def fail_query(
    cluster,
    metrics,
    *,
    deadline: bool = False,
    quota: bool = False,
) -> None:
    """Account a query killed by a typed overload failure.

    Stamps the end time and records the metrics object so the failure's
    counters (deadline_exceeded / requests_rejected / quota_exceeded)
    reach the cluster aggregate even though the query
    produced no result.  ``quota`` refusals were already counted by
    ``TenantQos.admit`` on the metrics object, so only the recording
    happens here.
    """
    if metrics is None:
        return
    if quota:
        pass
    elif deadline:
        metrics.deadline_exceeded += 1
    else:
        metrics.requests_rejected += 1
    metrics.end_time = cluster.sim.now
    cluster.metrics.record_query(metrics)


class CancelScope:
    """The set of child processes fanned out for one operation.

    The owner spawns children through :meth:`spawn`; if the operation
    dies (deadline, parent failure) it calls :meth:`cancel` and every
    still-pending child is stopped — resources released, queue slots
    withdrawn — instead of being orphaned.  ``expired`` is a bare signal
    event: the first child that observes a blown deadline fires it, so
    the owner (racing it against the round barrier with ``any_of``) can
    cancel siblings promptly rather than waiting for the full barrier.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.expired = sim.event()
        self._noted = False
        self._procs: list[Process] = []

    def spawn(self, gen: Generator) -> Process:
        proc = self.sim.process(gen)
        self._procs.append(proc)
        return proc

    def note_deadline(self) -> None:
        """Signal the scope owner that a child hit the deadline.

        The firing is deferred through the event heap (same timestamp)
        rather than run synchronously: the noting child is mid-step, and
        resuming the owner inside its frame would make the owner's
        cancel/raise unwind through the child.  Scheduling here cannot
        perturb no-trip runs — by construction it only happens once a
        deadline has actually expired, i.e. after the run diverged.
        """
        if self._noted or self.expired.fired:
            return
        self._noted = True

        def fire(_arg) -> None:
            if not self.expired.fired:
                self.expired.succeed()

        self.sim._schedule(self.sim.now, fire, None)

    def cancel(self) -> int:
        """Cancel every pending child; returns how many were stopped."""
        cancelled = 0
        for proc in self._procs:
            if not proc.fired and proc is not self.sim.active_process:
                proc.cancel()
                cancelled += 1
        self._procs.clear()
        return cancelled


@dataclass
class PartialResult:
    """A scan answer with chunks missing, returned instead of an error.

    Produced only when ``StoreConfig.allow_partial_results`` is on and
    the query carries no aggregates or GROUP BY (dropping rows from
    those would be silently wrong rather than explicitly partial).
    ``result`` holds the rows that were assembled; ``shed_chunks``
    counts the remote ops that were shed; ``reason`` says why.  A shed
    chunk drops its whole row group: ``dropped_row_groups`` names them,
    so ``result`` holds exactly the matching rows of the other row
    groups.
    """

    result: object
    shed_chunks: int
    reason: str = "overload"
    dropped_row_groups: tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        return True


# Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreakerBoard:
    """Per-node circuit breakers layered on the health tracker.

    A node's breaker trips open when ``failure_threshold`` failures
    (timeouts, errors, queue rejections) land within a sliding
    ``window_s``.  While open, :meth:`allow` is ``False`` and callers
    route around the node (degraded read or chunk-fetch fallback).
    After ``reset_s`` the breaker moves to half-open and :meth:`allow`
    grants exactly one probe trial; a recorded success closes the
    breaker, a failure re-opens it for another ``reset_s``.

    All transitions are pure bookkeeping on the simulated clock — no
    timeline events — and are traced as ``breaker.open`` /
    ``breaker.half_open`` instants when a tracer is attached.
    """

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        failure_threshold: int,
        window_s: float,
        reset_s: float,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.window_s = window_s
        self.reset_s = reset_s
        self.state = [CLOSED] * num_nodes
        self.opens = [0] * num_nodes
        self._failures: list[deque[float]] = [deque() for _ in range(num_nodes)]
        self._reopen_at = [0.0] * num_nodes
        self._probe_inflight = [False] * num_nodes
        # A liveness restore that lands while a half-open probe is in
        # flight abandons that probe: its eventual outcome describes the
        # pre-restore node and must not re-trip (or re-close) the fresh
        # breaker.  The flag eats exactly one record_* call.
        self._probe_abandoned = [False] * num_nodes

    def ensure_size(self, num_nodes: int) -> None:
        """Grow the per-node state for nodes that joined at runtime
        (new nodes start with a closed breaker)."""
        while len(self.state) < num_nodes:
            self.state.append(CLOSED)
            self.opens.append(0)
            self._failures.append(deque())
            self._reopen_at.append(0.0)
            self._probe_inflight.append(False)
            self._probe_abandoned.append(False)

    def allow(self, node_id: int) -> bool:
        """May traffic be routed to ``node_id`` right now?

        In half-open state this grants the single probe slot as a side
        effect: the first caller gets ``True`` (its op is the trial),
        everyone else is refused until the trial resolves.
        """
        state = self.state[node_id]
        if state == CLOSED:
            return True
        if state == OPEN:
            if self.sim.now < self._reopen_at[node_id]:
                return False
            self.state[node_id] = HALF_OPEN
            self._probe_inflight[node_id] = False
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant("breaker.half_open", cat="overload", node=node_id)
        if self._probe_inflight[node_id]:
            return False
        self._probe_inflight[node_id] = True
        return True

    def record_failure(self, node_id: int) -> bool:
        """Account one failure; returns ``True`` if the breaker tripped."""
        if self._probe_abandoned[node_id]:
            # Stale outcome of a probe abandoned by a liveness restore:
            # it describes the node before it came back, so a single
            # failure report must not trip the clean breaker.
            self._probe_abandoned[node_id] = False
            return False
        state = self.state[node_id]
        if state == HALF_OPEN:
            self._trip(node_id)
            return True
        if state == OPEN:
            return False
        now = self.sim.now
        window = self._failures[node_id]
        window.append(now)
        floor = now - self.window_s
        while window and window[0] < floor:
            window.popleft()
        if len(window) >= self.failure_threshold:
            self._trip(node_id)
            return True
        return False

    def record_success(self, node_id: int) -> None:
        if self._probe_abandoned[node_id]:
            self._probe_abandoned[node_id] = False
            return
        if self.state[node_id] == HALF_OPEN:
            self.state[node_id] = CLOSED
            self._failures[node_id].clear()
            self._probe_inflight[node_id] = False

    def on_liveness(self, node_id: int, alive: bool) -> None:
        """A restored node starts with a clean (closed) breaker.

        The reset is atomic: state, the sliding failure window, the
        reopen timer, and the half-open probe slot all clear together.
        A probe that was mid-flight when the restore landed is marked
        abandoned so its stale outcome cannot flip the fresh breaker
        (restore-during-half-open race).
        """
        if alive:
            self.state[node_id] = CLOSED
            self._failures[node_id].clear()
            self._reopen_at[node_id] = 0.0
            if self._probe_inflight[node_id]:
                self._probe_abandoned[node_id] = True
            self._probe_inflight[node_id] = False

    def open_count(self) -> int:
        return sum(1 for s in self.state if s == OPEN)

    def _trip(self, node_id: int) -> None:
        self.state[node_id] = OPEN
        self._reopen_at[node_id] = self.sim.now + self.reset_s
        self._failures[node_id].clear()
        self._probe_inflight[node_id] = False
        self.opens[node_id] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("breaker.open", cat="overload", node=node_id)


def install_admission_control(cluster, config) -> None:
    """Apply a store config's admission knobs to every node service loop.

    Bounds the CPU pool, the disk device queue, and the NIC ingress and
    egress pipes of each storage node.  With ``admission_queue_depth``
    at 0 this is a no-op and queues stay unbounded (the
    pre-overload-protection behaviour).  Idempotent, so every store
    built on one cluster can install it.
    """
    depth = config.admission_queue_depth
    if depth <= 0:
        return
    # Remembered so nodes added at runtime get the same bound.
    cluster.admission = depth
    for node in cluster.nodes:
        for resource in (
            node.cpu,
            node.disk.device,
            node.endpoint.egress,
            node.endpoint.ingress,
        ):
            resource.max_queue = depth


def install_circuit_breakers(cluster, config) -> None:
    """Install the per-node breaker board on the cluster when enabled.

    No-op with ``breaker_failure_threshold`` at 0 (the default) or when
    a board is already installed — every store built on one cluster
    calls this, and the first install wins.
    """
    if config.breaker_failure_threshold <= 0 or cluster.breakers is not None:
        return
    board = CircuitBreakerBoard(
        cluster.sim,
        cluster.num_nodes,
        config.breaker_failure_threshold,
        config.breaker_window_s,
        config.breaker_reset_s,
    )
    cluster.breakers = board
    cluster.add_liveness_listener(board.on_liveness)
