"""Scatter-gather execution of per-chunk remote ops, one exchange per node.

Both stores execute query stages as fan-outs of small per-chunk ops
(push a filter or a projection, fetch a chunk, read a whole EC block).
This module groups each stage's ops by destination node: all ops bound
for the same storage node share *one* batched request message
(``Network.batch_transfer``), and their replies stream back per-op over
the open exchange (``Network.stream_transfer``) as each op finishes —
paying the fixed per-RPC overhead and the RTT once per node instead of
once per chunk, while payload bytes still serialise through the pipes
and node-side work keeps pipelining with the reply transfers.

An op is described declaratively by :class:`RemoteOp`:

* ``node`` / ``request_bytes`` / ``execute`` / ``finalize`` for the
  common healthy-node shape — ``execute`` runs on the node (disk reads,
  compute) and returns ``(reply_bytes, value)``; ``finalize`` optionally
  continues at the coordinator after the reply arrives;
* ``standalone`` for ops that cannot ride an exchange (degraded reads
  that reconstruct at the coordinator); they run as independent
  processes beside the node exchanges;
* ``fallback`` optionally names a degraded-path generator used when the
  primary attempt fails for good (see below).

Results come back in op order, so callers can ``zip`` them with their
keys exactly as they did with per-op process barriers.

Failure handling
----------------

The executor survives nodes that die, drop RPCs, or lose blocks
*mid-stage*:

1. every attempt is bounded by ``op_timeout_s`` — a dropped request or
   reply, one the network refuses (a severed link, or a node that dies
   before replying: :class:`~repro.cluster.simcore.LinkDown`), costs the
   coordinator the remaining timeout instead of hanging forever;
2. failed ops are retried (:data:`MAX_RETRIES` times, exponential
   backoff from :data:`RETRY_BACKOFF_S`), regrouped per node;
3. ops that exhaust their retries — or whose node the shared
   :class:`~repro.cluster.health.NodeHealthTracker` no longer considers
   usable — run their ``fallback`` (degraded-read reconstruction)
   instead; an op with no fallback raises :class:`RemoteOpError`.

Every op outcome feeds the health tracker, so a node that keeps failing
crosses the suspicion threshold and later stages stop sending ops to it
at construction time (the stores consult the tracker).  Node-side
exceptions from ``execute`` (e.g. a wiped block) are treated as an
immediate error reply — a fast failure, no timeout wait.

Cancellation and overload protection
------------------------------------

Every call spawns its children (node exchanges, their ops, standalone
and fallback reads) through one
:class:`~repro.cluster.overload.CancelScope`: when the executor raises
or its caller is cancelled, every child still in flight is cancelled
with it, so no op outlives the request that spawned it.

When the metrics object carries a :class:`~repro.cluster.overload.Deadline`
(set by the store from ``StoreConfig.default_deadline_s``), every hop
checks it: before each round, before each retry/backoff, and inside each
op attempt.  The first attempt to observe expiry signals the scope; the
executor then cancels every other in-flight child and raises the typed
:class:`~repro.cluster.overload.DeadlineExceeded`.  Retry backoff is
budgeted against the remaining deadline.  Admission
rejections (:class:`~repro.cluster.simcore.QueueFull` from a bounded
node queue) are counted, fed to the node's circuit breaker, and never
retried or reconstructed: in ``allow_shed`` mode (scan stages) the op
resolves at once to the :data:`SHED` sentinel so the store can return a
typed partial result, and in any other stage the stage raises a typed
``QueueFull`` at once.  Retry backoff
optionally carries seeded full-jitter (``rpc_retry_jitter``).  All of
this is pure bookkeeping until it acts: runs where nothing trips are
event-identical to runs without any of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.cluster import metrics as m
from repro.cluster.overload import CancelScope, DeadlineExceeded
from repro.cluster.simcore import LinkDown, QueueFull, all_of, any_of

from repro.core.location_map import ChecksumError

#: Retries a failed op gets before it falls back to degraded-read
#: reconstruction.
MAX_RETRIES = 2

#: First retry's backoff (seconds); attempt n waits ``2 ** (n - 1)`` times it.
RETRY_BACKOFF_S = 0.002

#: Internal sentinel: an attempt failed and the op is eligible for retry.
_FAILED = object()

#: Internal sentinel: the node's stored bytes failed checksum
#: verification.  Deterministically corrupt — retrying would re-read the
#: same bad bytes, so the op goes straight to its degraded fallback, and
#: the failure is not held against the node's health (one rotten block
#: does not make a node suspect).
_CORRUPT = object()

#: Internal sentinel: an admission-bounded queue refused the attempt.
#: Counts against the node's circuit breaker but not its suspicion score
#: (a saturated node is overloaded, not dead).
_REJECTED = object()

#: Internal sentinel: the attempt observed an expired deadline.  Never
#: retried; the whole stage aborts with DeadlineExceeded.
_DEADLINE = object()

#: Public sentinel returned (in ``allow_shed`` mode) in place of a shed
#: op's value; the store drops the chunk and answers partially.
SHED = object()


class RemoteOpError(RuntimeError):
    """A remote op failed permanently and had no fallback path."""


@dataclass
class RemoteOp:
    """One unit of remote work in a scatter-gather stage.

    Exactly one of ``execute`` (with ``node``) or ``standalone`` must be
    set.  ``request_bytes`` and the first element of ``execute``'s
    return value are *simulated* (already scaled) byte counts; byte
    accounting sums them per node exchange, so traffic equals the sum of
    the ops' payloads.  ``fallback`` (``execute`` ops only) is the
    degraded path run if every attempt fails.
    """

    node: object | None = None  # StorageNode holding the chunk
    request_bytes: int | None = None  # None: the stage sends no request message
    execute: Callable[[], Generator] | None = None  # -> (reply_bytes, value)
    finalize: Callable[[object], Generator] | None = None  # value -> final value
    standalone: Callable[[], Generator] | None = None  # full op, unbatchable
    fallback: Callable[[], Generator] | None = None  # degraded path on failure

    def __post_init__(self) -> None:
        if (self.execute is None) == (self.standalone is None):
            raise ValueError("RemoteOp needs exactly one of execute/standalone")
        if self.execute is not None and self.node is None:
            raise ValueError("batchable RemoteOp needs a destination node")
        if self.standalone is not None and self.fallback is not None:
            raise ValueError("standalone ops are their own fallback")


def _record_failure(cluster, node_id, metrics) -> None:
    """Feed one op failure to the health tracker and circuit breaker."""
    cluster.health.record_failure(node_id)
    board = cluster.breakers
    if board is not None and board.record_failure(node_id) and metrics is not None:
        metrics.breaker_open_total += 1


def _record_success(cluster, node_id, elapsed=None) -> None:
    """Feed one op success (and its service latency, for gray-failure
    detection) to the health tracker and circuit breaker."""
    cluster.health.record_success(node_id, elapsed)
    if cluster.breakers is not None:
        cluster.breakers.record_success(node_id)


def _record_rejection(cluster, node_id, metrics, ops=()) -> None:
    """Account an admission refusal and feed the circuit breaker.

    Rejections signal saturation, not death, so they count toward the
    breaker's failure window but not the health tracker's suspicion
    score.

    ``requests_rejected`` counts once per *logical request*: the first
    refusal of each :class:`RemoteOp` in ``ops`` increments it, and a
    retried op refused again bumps only
    ``refusal_attempts`` (every refusal, attempt by attempt, still feeds
    the breaker window — repeat refusals are exactly the saturation
    signal it exists to catch).  An empty ``ops`` means the refusal has
    no op identity to dedupe on (a coordinator-side refusal outside any
    scatter-gather stage) and counts as one fresh request.
    """
    if metrics is not None:
        fresh = 1
        if ops:
            metrics.refusal_attempts += len(ops)
            fresh = 0
            for op in ops:
                if not getattr(op, "_refusal_counted", False):
                    op._refusal_counted = True
                    fresh += 1
        else:
            metrics.refusal_attempts += 1
        metrics.requests_rejected += fresh
    board = cluster.breakers
    if board is not None and node_id is not None:
        if board.record_failure(node_id) and metrics is not None:
            metrics.breaker_open_total += 1


def _abort_deadline(cluster, metrics, scope, where: str):
    """Cancel every in-flight child and raise the typed deadline error."""
    cancelled = scope.cancel()
    if metrics is not None:
        metrics.cancellations += cancelled
    if cluster.sim.tracer is not None:
        cluster.sim.tracer.instant(
            "rpc.deadline", cat="overload", where=where, cancelled=cancelled
        )
    raise DeadlineExceeded(f"deadline exceeded at {where} ({cancelled} op(s) cancelled)")


def _shielded(cluster, gen, node_id, metrics, scope, op):
    """Run the child ``gen``, mapping its typed failures to op sentinels.

    The overload failures cannot be raised in a run without the overload
    knobs.  ``op`` is the RemoteOp the work belongs to, threaded through
    so a refusal is deduped per logical request (see
    :func:`_record_rejection`).  A degraded read runs its own nested
    remote ops, which can exhaust permanently and raise
    :class:`RemoteOpError` inside this child, where it would escape
    ``sim.run`` instead of resolving the op: it maps to ``_FAILED`` so
    the barrier decides (shed the op, or re-raise from the caller's own
    frame).
    """
    try:
        value = yield from gen
    except DeadlineExceeded:
        scope.note_deadline()
        return _DEADLINE
    except QueueFull:
        _record_rejection(cluster, node_id, metrics, (op,))
        return _REJECTED
    except RemoteOpError:
        return _FAILED
    return value


def _await_barrier(sim, barrier, scope, deadline, cluster, metrics, where):
    """Wait for a stage barrier.  Under a deadline, race it against the
    scope's deadline signal so in-flight siblings are cancelled promptly;
    without one the signal cannot fire, and the plain wait is cheaper."""
    if deadline is None:
        yield barrier
        return
    yield any_of(sim, [barrier, scope.expired])
    if not barrier.fired:
        _abort_deadline(cluster, metrics, scope, where)


def execute_remote_ops(
    cluster, coordinator, ops, metrics, config, allow_shed: bool = False,
):
    """Process: run ``ops``; returns their final values in op order.

    Ops are grouped by destination node: one coalesced request per node
    opens the exchange, then each op executes, streams its reply, and
    finalises independently — no barrier, so node-side work overlaps
    the reply transfers.

    Failed ops are retried then routed to their ``fallback`` (see module
    docstring) under ``config``'s timeout settings.

    With ``allow_shed`` set (scan stages under
    ``StoreConfig.allow_partial_results``), ops refused by admission
    control resolve to :data:`SHED`, so the store can drop their chunks
    and answer partially rather than amplify the overload.  Without it,
    a refused op raises :class:`QueueFull` once its round is in.
    """
    sim = cluster.sim
    results: list[object] = [None] * len(ops)
    pending = list(range(len(ops)))
    deadline = metrics.deadline if metrics is not None else None
    if deadline is not None:
        deadline.check("stage entry")
    with CancelScope(sim) as scope:
        attempts = 0
        exhausted: list[int] = []
        shed: set[int] = set()
        while True:
            failed, corrupt, rejected, deadlined = yield from _run_round(
                cluster, coordinator, ops, pending, results, metrics, config, scope, deadline,
            )
            exhausted.extend(corrupt)
            if deadlined or (deadline is not None and deadline.expired):
                _abort_deadline(cluster, metrics, scope, "round barrier")
            if rejected:
                # Shedding beats amplifying: a refused op is never retried
                # into the node that refused it, nor rebuilt from k peers
                # that are just as saturated.  It is dropped from the answer
                # where the stage may shed, and surfaces typed otherwise.
                if not allow_shed:
                    raise QueueFull(
                        f"{len(rejected)} op(s) refused by admission control "
                        f"{_where(ops, rejected)}"
                    )
                shed.update(rejected)
            if not failed:
                break
            attempts += 1
            retry: list[int] = []
            for i in failed:
                node = ops[i].node
                if (
                    attempts <= MAX_RETRIES
                    and node is not None
                    and node.alive
                    and cluster.routable(node.node_id)
                ):
                    retry.append(i)
                else:
                    # Out of attempts, or the health tracker / circuit breaker
                    # says to stop hammering this node: go straight to
                    # reconstruction.
                    exhausted.append(i)
            if not retry:
                break
            if metrics is not None:
                metrics.retries += len(retry)
            if sim.tracer is not None:
                sim.tracer.instant(
                    "rpc.retry", cat="rpc", ops=len(retry), attempt=attempts,
                    nodes=sorted({ops[i].node.node_id for i in retry}),
                )
            backoff = RETRY_BACKOFF_S * (2 ** (attempts - 1))
            jitter = config.rpc_retry_jitter
            if jitter > 0:
                # Seeded full-jitter: sleep uniformly in
                # [backoff * (1 - jitter), backoff] so synchronized retry
                # storms decorrelate.  jitter=0 draws nothing from the RNG.
                backoff -= backoff * jitter * cluster.jitter_rng.random()
            if deadline is not None and (deadline.expired or backoff >= deadline.remaining):
                # The remaining budget cannot cover the backoff, let alone
                # another attempt: give up now instead of sleeping past it.
                _abort_deadline(cluster, metrics, scope, "retry backoff")
            if backoff > 0:
                yield sim.timeout(backoff)
            pending = retry

        if exhausted:
            exhausted.sort()
            missing = [i for i in exhausted if ops[i].fallback is None]
            if missing and allow_shed:
                shed.update(missing)
                exhausted = [i for i in exhausted if ops[i].fallback is not None]
                missing = []
            if missing:
                raise RemoteOpError(
                    f"{len(missing)} remote op(s) failed permanently "
                    f"{_where(ops, missing)} and had no degraded fallback"
                )
        if exhausted:
            if sim.tracer is not None:
                sim.tracer.instant("rpc.fallback", cat="rpc", ops=len(exhausted))
            procs = [
                scope.spawn(
                    _boxed(_shielded(cluster, ops[i].fallback(), None, metrics, scope, ops[i]))
                )
                for i in exhausted
            ]
            barrier = all_of(sim, procs)
            yield from _await_barrier(
                sim, barrier, scope, deadline, cluster, metrics, "fallback barrier"
            )
            for i, boxed in zip(exhausted, barrier.value):
                value = boxed[0]
                if value is _DEADLINE:
                    _abort_deadline(cluster, metrics, scope, "fallback")
                if value is _REJECTED:
                    # The refusal rule holds for reconstruction reads too.
                    if allow_shed:
                        shed.add(i)
                        continue
                    raise QueueFull(
                        f"degraded fallback of the op {_where(ops, [i])} "
                        "refused by admission control"
                    )
                if value is _FAILED:
                    if allow_shed:
                        shed.add(i)
                        continue
                    raise RemoteOpError(
                        "degraded fallback failed permanently"
                    )
                results[i] = value
        for i in shed:
            results[i] = SHED
        return results


def _where(ops, indices) -> str:
    """Where the ops at ``indices`` ran: their nodes, and how many were
    standalone degraded reads at the coordinator (they have no node)."""
    nodes = sorted({ops[i].node.node_id for i in indices if ops[i].node is not None})
    local = sum(1 for i in indices if ops[i].node is None)
    where = [f"on node(s) {nodes}"] if nodes else []
    if local:
        where.append(f"in {local} degraded read(s) at the coordinator")
    return " and ".join(where)


def _run_round(cluster, coordinator, ops, indices, results, metrics, config, scope, deadline):
    """One attempt over ``indices``; fills ``results``, returns the
    (retryable, checksum-corrupt, admission-rejected, deadline-hit)
    failure index lists.

    Standalone ops only ever appear in the first round (they cannot
    fail-and-retry; genuine errors inside them propagate).
    """
    sim = cluster.sim
    failed: list[int] = []
    corrupt: list[int] = []
    rejected: list[int] = []
    deadlined: list[int] = []

    def classify(i, value):
        if value is _FAILED:
            failed.append(i)
        elif value is _CORRUPT:
            corrupt.append(i)
        elif value is _REJECTED:
            rejected.append(i)
        elif value is _DEADLINE:
            deadlined.append(i)
        else:
            results[i] = value

    waits: list[tuple[list[int], object]] = []
    groups: dict[int, list[int]] = {}
    for i in indices:
        op = ops[i]
        if op.standalone is not None:
            waits.append(
                ([i], scope.spawn(
                    _boxed(_shielded(cluster, op.standalone(), None, metrics, scope, op))
                ))
            )
        else:
            groups.setdefault(op.node.node_id, []).append(i)
    for group_indices in groups.values():
        group = [ops[i] for i in group_indices]
        waits.append(
            (group_indices, scope.spawn(_node_group(
                cluster, coordinator, group, metrics, config, scope, deadline
            )))
        )
    barrier = all_of(sim, [proc for _indices, proc in waits])
    yield from _await_barrier(sim, barrier, scope, deadline, cluster, metrics, "round barrier")
    for (group_indices, _proc), values in zip(waits, barrier.value):
        for i, value in zip(group_indices, values):
            classify(i, value)
    return sorted(failed), sorted(corrupt), sorted(rejected), sorted(deadlined)


def _boxed(gen):
    """Wrap a standalone op so its value arrives as a one-element list."""
    value = yield from gen
    return [value]


def _lost(cluster, node_id, op_start, metrics, config):
    """A lost RPC: wait out the rest of the op timeout, account it, and
    hold the failure against the node."""
    sim = cluster.sim
    remaining = max(0.0, op_start + config.op_timeout_s - sim.now)
    if remaining > 0:
        tracer = sim.tracer
        span_id = (
            tracer.begin("rpc.timeout_wait", cat="rpc", wait_s=remaining)
            if tracer is not None
            else None
        )
        yield sim.timeout(remaining)
        if span_id is not None:
            tracer.finish(span_id)
    if metrics is not None:
        metrics.timeouts += 1
        metrics.add(m.OTHER, remaining)
    _record_failure(cluster, node_id, metrics)


def _node_group(cluster, coordinator, group: list[RemoteOp], metrics, config, scope, deadline):
    """All of one node's ops for a stage, as one scatter-gather exchange.

    One batched request opens the exchange (one RPC overhead, half an
    RTT); each op then runs and streams its reply back as soon as it is
    ready, the first reply carrying the other half-RTT.  Stages whose
    ops send no request (Get fetches) open the exchange with the first
    reply instead.  A batched request that is dropped or refused by the
    network fails the whole group (one timeout wait); refused or dropped
    replies fail ops individually.
    """
    sim = cluster.sim
    net = cluster.network
    node = group[0].node
    # Loopback ops (coordinator-local chunks) cannot be dropped.
    faults = cluster.faults if node.endpoint is not coordinator.endpoint else None
    start = sim.now
    tracer = sim.tracer
    batch_span_id = (
        tracer.begin("rpc.batch", cat="rpc", node=node.node_id, ops=len(group))
        if tracer is not None
        else None
    )
    request_sizes = [op.request_bytes for op in group if op.request_bytes is not None]
    state = {"replies_sent": 0}
    if request_sizes:
        lost = faults is not None and faults.drop_rpc(node.node_id, coordinator.node_id)
        try:
            if not lost:
                yield from net.batch_transfer(
                    coordinator.endpoint, node.endpoint, request_sizes, metrics
                )
        except QueueFull:
            # The coalesced request could not be admitted: the whole
            # group is refused in one decision; each op in it is one
            # refused logical request.
            _record_rejection(cluster, node.node_id, metrics, group)
            if batch_span_id is not None:
                tracer.finish(batch_span_id, outcome="rejected")
            return [_REJECTED] * len(group)
        except LinkDown:
            lost = True
    else:
        # No request leg asked the network: never run ops on a dead node.
        lost = not node.alive
    if lost:
        yield from _lost(cluster, node.node_id, start, metrics, config)
        if batch_span_id is not None:
            tracer.finish(
                batch_span_id, outcome="request_dropped" if request_sizes else "node_dead"
            )
        return [_FAILED] * len(group)

    def run_op(op: RemoteOp):
        op_span_id = (
            tracer.begin("rpc.op", cat="rpc", node=node.node_id)
            if tracer is not None
            else None
        )
        try:
            value = yield from run_op_body(op)
            return value
        finally:
            if op_span_id is not None:
                tracer.finish(op_span_id)

    def run_op_body(op: RemoteOp):
        if deadline is not None:
            deadline.check("rpc.op")
        try:
            reply_bytes, value = yield from op.execute()
        except ChecksumError:
            # Stored bytes are rotten: detected at read time, answered by
            # reconstruction.  Not a node-health signal and not retryable.
            if metrics is not None:
                metrics.checksum_failures += 1
            return _CORRUPT
        except (DeadlineExceeded, QueueFull):
            raise
        except Exception:
            # The node answered with an error (e.g. block not found after
            # a wipe): a fast failure, no timeout wait.
            _record_failure(cluster, node.node_id, metrics)
            return _FAILED
        if faults is not None and faults.drop_rpc(node.node_id, coordinator.node_id):
            yield from _lost(cluster, node.node_id, start, metrics, config)
            return _FAILED
        first = state["replies_sent"] == 0
        state["replies_sent"] += 1
        try:
            if first and not request_sizes:
                # No request leg: the first reply is the RPC that opens
                # the exchange; later replies ride it.
                yield from net.transfer(
                    node.endpoint, coordinator.endpoint, reply_bytes, metrics
                )
            else:
                yield from net.stream_transfer(
                    node.endpoint, coordinator.endpoint, reply_bytes, metrics,
                    half_rtt=first,
                )
        except LinkDown:
            # Severed, or the node died mid-execute or mid-reply: the
            # reply never arrives.
            yield from _lost(cluster, node.node_id, start, metrics, config)
            return _FAILED
        _record_success(cluster, node.node_id, sim.now - start)
        if op.finalize is not None:
            value = yield from op.finalize(value)
        return value

    procs = [
        scope.spawn(_shielded(cluster, run_op(op), node.node_id, metrics, scope, op))
        for op in group
    ]
    barrier = all_of(sim, procs)
    # No deadline race here: this group runs as a spawned child, so the
    # scope owner (the stage executor) races the stage barrier and
    # cancels this process along with its ops.  Per-op deadline hits
    # surface as _DEADLINE values through the shields.
    yield barrier
    if batch_span_id is not None:
        tracer.finish(batch_span_id)
    return barrier.value

