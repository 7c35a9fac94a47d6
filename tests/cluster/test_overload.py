"""Overload-protection mechanism layer: admission-bounded resources,
deadlines, cancel scopes, and the per-node circuit breaker board."""

import gc
import sys

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    Simulator,
)
from repro.cluster.overload import (
    BACKGROUND_PRIORITY,
    CLOSED,
    FOREGROUND_PRIORITY,
    HALF_OPEN,
    OPEN,
    CancelScope,
    CircuitBreakerBoard,
    Deadline,
    DeadlineExceeded,
    PartialResult,
    install_admission_control,
    install_circuit_breakers,
)
from repro.cluster.simcore import Process, QueueFull, Resource, all_of
from repro.core.config import StoreConfig


# ---------------------------------------------------------------------------
# Admission-bounded Resource
# ---------------------------------------------------------------------------


class TestResourceAdmission:
    def _saturated(self, sim, max_queue):
        """A capacity-1 resource whose slot is held forever."""
        resource = Resource(sim, capacity=1, max_queue=max_queue)

        def hold():
            with (yield from resource.acquire()):
                yield sim.event()  # never fires

        # Anchor the holder: a parked process with no outside reference is
        # garbage-collected, which closes its generator and releases the slot.
        resource.holder = sim.process(hold())
        sim.run(until=0.0)
        assert resource.in_use == 1
        return resource

    def test_reject_at_depth(self):
        sim = Simulator()
        resource = self._saturated(sim, max_queue=1)
        outcomes = []

        def worker(tag, priority):
            try:
                with (yield from resource.acquire(priority)):
                    pass
            except QueueFull:
                outcomes.append(tag)

        sim.process(worker("first", BACKGROUND_PRIORITY))  # queues (depth 1)
        # Queue full -> rejected at the door; priority evicts nobody.
        sim.process(worker("second", FOREGROUND_PRIORITY))
        sim.run(until=1.0)
        assert outcomes == ["second"]
        assert resource.rejected_total == 1
        assert resource.queue_length == 1

    def test_foreground_rejected_when_no_lower_priority_waiter(self):
        sim = Simulator()
        resource = self._saturated(sim, max_queue=1)
        outcomes = []

        def worker(tag, priority):
            try:
                with (yield from resource.acquire(priority)):
                    pass
            except QueueFull:
                outcomes.append(tag)

        sim.process(worker("fg-old", FOREGROUND_PRIORITY))
        sim.process(worker("fg-new", FOREGROUND_PRIORITY))
        sim.run(until=1.0)
        assert outcomes == ["fg-new"]
        assert resource.rejected_total == 1

    def test_priority_none_is_exempt(self):
        sim = Simulator()
        resource = self._saturated(sim, max_queue=1)

        def internal():
            gate = yield from resource.acquire(None)
            gate.release()

        sim.process(internal())
        sim.process(internal())
        sim.run(until=1.0)
        # Both queued despite max_queue=1; nothing rejected.
        assert resource.rejected_total == 0
        assert resource.queue_length == 2

    def test_cancelled_waiter_withdraws_its_queue_slot(self):
        sim = Simulator()
        release_me = []
        resource = Resource(sim, capacity=1, max_queue=4)

        def hold():
            ctx = yield from resource.acquire()
            release_me.append(ctx)
            yield sim.timeout(2.0)
            ctx.release()

        def waiter():
            with (yield from resource.acquire(FOREGROUND_PRIORITY)):
                pass

        sim.process(hold())
        sim.run(until=0.0)
        doomed = sim.process(waiter())
        sim.run(until=1.0)
        assert resource.queue_length == 1
        doomed.cancel()
        assert resource.queue_length == 0
        sim.run()
        # The held slot was released normally; no leaked slot, no waiter.
        assert resource.in_use == 0
        assert not resource._waiters
        assert not sim._heap


# ---------------------------------------------------------------------------
# Deadline and CancelScope
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_check_raises_only_after_expiry(self):
        sim = Simulator()
        deadline = Deadline(sim, 1.0)
        deadline.check("start")  # fine at t=0
        sim.run(until=1.0)
        deadline.check("boundary")  # not strictly past the budget yet
        sim.run(until=1.5)
        assert deadline.expired
        assert deadline.remaining == pytest.approx(-0.5)
        with pytest.raises(DeadlineExceeded, match="at late"):
            deadline.check("late")

    def test_from_config_off_by_default(self):
        sim = Simulator()
        assert Deadline.from_config(sim, None) is None
        assert Deadline.from_config(sim, StoreConfig()) is None
        armed = Deadline.from_config(sim, StoreConfig(default_deadline_s=0.25))
        assert armed is not None and armed.expires_at == pytest.approx(0.25)


class TestCancelScope:
    def test_cancel_stops_pending_children_and_drains_heap(self):
        sim = Simulator()
        scope = CancelScope(sim)
        finished = []

        def child(tag, delay):
            yield sim.timeout(delay)
            finished.append(tag)

        procs = [scope.spawn(child(i, 10.0)) for i in range(3)]
        sim.run(until=1.0)
        cancelled = scope.cancel()
        assert cancelled == 3
        assert all(p.cancelled for p in procs)
        sim.run()
        assert finished == []
        assert not sim._heap  # lapsed timers drained; nothing orphaned

    def test_cancel_skips_finished_children(self):
        sim = Simulator()
        scope = CancelScope(sim)

        def quick():
            yield sim.timeout(0.1)

        scope.spawn(quick())
        sim.run()
        assert scope.cancel() == 0

    @staticmethod
    def _child(sim, finished, tag):
        yield sim.timeout(10.0)
        finished.append(tag)

    def test_owner_that_raises_cancels_pending_children(self):
        sim = Simulator()
        finished, children = [], []

        def owner():
            with CancelScope(sim) as scope:
                children.extend(scope.spawn(self._child(sim, finished, i)) for i in range(3))
                yield sim.timeout(1.0)
                raise RuntimeError("owner failed")

        sim.process(owner())
        with pytest.raises(RuntimeError, match="owner failed"):
            sim.run()
        assert all(p.cancelled for p in children)
        sim.run()
        assert finished == []
        assert not sim._heap

    def test_cancelled_owner_cancels_pending_children(self):
        sim = Simulator()
        finished, children = [], []

        def owner():
            with CancelScope(sim) as scope:
                children.extend(scope.spawn(self._child(sim, finished, i)) for i in range(3))
                yield all_of(sim, children)

        proc = sim.process(owner())
        sim.run(until=1.0)
        proc.cancel()
        assert all(p.cancelled for p in children)
        sim.run()
        assert finished == []
        assert not sim._heap

    def test_owner_that_returns_cancels_nothing(self):
        sim = Simulator()
        finished, children = [], []

        def owner():
            with CancelScope(sim) as scope:
                children.extend(scope.spawn(self._child(sim, finished, i)) for i in range(3))
                yield sim.timeout(1.0)
            return "returned"

        proc = sim.process(owner())
        sim.run()
        assert proc.value == "returned"
        assert not any(p.cancelled for p in children)
        assert finished == [0, 1, 2]

    def test_collected_owner_of_a_run_that_raised_cancels_nothing(self, monkeypatch):
        """A run that raised abandons its processes mid-wait; when the
        garbage collector closes the owner's generator the scope cancels
        none of its children, and nothing is raised from the collector."""
        cancels, closed, unraisable = [], [], []
        cancel = Process.cancel

        def recorded(proc):
            cancels.append(proc)
            cancel(proc)

        monkeypatch.setattr(Process, "cancel", recorded)
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        def abandoned_run():
            sim = Simulator()
            finished = []

            def owner():
                try:
                    with CancelScope(sim) as scope:
                        children = [scope.spawn(self._child(sim, finished, i)) for i in range(3)]
                        yield all_of(sim, children)
                finally:
                    closed.append("owner")

            def crash():
                yield sim.timeout(1.0)
                raise RuntimeError("run failed")

            sim.process(owner())
            sim.process(crash())
            try:
                sim.run()
            except RuntimeError:
                pass

        abandoned_run()
        gc.collect()
        assert closed == ["owner"]
        assert cancels == []
        assert unraisable == []

    def test_note_deadline_fires_expired_once_via_heap(self):
        sim = Simulator()
        scope = CancelScope(sim)
        scope.note_deadline()
        scope.note_deadline()  # second note is a no-op
        assert not scope.expired.fired  # deferred through the event heap
        sim.run()
        assert scope.expired.fired


# ---------------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------------


def _board(sim, threshold=3, window=1.0, reset=2.0, nodes=4):
    return CircuitBreakerBoard(sim, nodes, threshold, window, reset)


class TestCircuitBreaker:
    def test_trips_on_threshold_failures_within_window(self):
        sim = Simulator()
        board = _board(sim)
        assert board.record_failure(0) is False
        assert board.record_failure(0) is False
        assert board.record_failure(0) is True
        assert board.state[0] == OPEN
        assert board.opens[0] == 1
        assert board.open_count() == 1
        assert board.allow(0) is False
        # Other nodes are independent.
        assert board.state[1] == CLOSED and board.allow(1)

    def test_failures_outside_window_do_not_trip(self):
        sim = Simulator()
        board = _board(sim, threshold=3, window=1.0)
        board.record_failure(0)
        sim.run(until=0.6)
        board.record_failure(0)
        sim.run(until=1.2)  # first failure now older than the window
        assert board.record_failure(0) is False
        assert board.state[0] == CLOSED

    def test_half_open_grants_single_probe(self):
        sim = Simulator()
        board = _board(sim, threshold=1, reset=2.0)
        board.record_failure(0)
        assert board.state[0] == OPEN
        sim.run(until=2.5)  # past reset_s
        assert board.allow(0) is True  # the probe trial
        assert board.state[0] == HALF_OPEN
        assert board.allow(0) is False  # everyone else waits for the trial

    def test_probe_success_closes(self):
        sim = Simulator()
        board = _board(sim, threshold=1, reset=1.0)
        board.record_failure(0)
        sim.run(until=1.5)
        assert board.allow(0)
        board.record_success(0)
        assert board.state[0] == CLOSED
        assert board.allow(0)

    def test_probe_failure_reopens(self):
        sim = Simulator()
        board = _board(sim, threshold=1, reset=1.0)
        board.record_failure(0)
        sim.run(until=1.5)
        assert board.allow(0)
        assert board.record_failure(0) is True  # trial failed -> re-open
        assert board.state[0] == OPEN
        assert board.opens[0] == 2
        assert board.allow(0) is False
        sim.run(until=3.0)  # waits another full reset_s from the re-open
        assert board.allow(0)

    def test_liveness_restore_resets_breaker(self):
        sim = Simulator()
        board = _board(sim, threshold=1)
        board.record_failure(2)
        assert board.state[2] == OPEN
        board.on_liveness(2, alive=True)
        assert board.state[2] == CLOSED
        assert board.allow(2)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            _board(Simulator(), threshold=0)


# ---------------------------------------------------------------------------
# Installers
# ---------------------------------------------------------------------------


class TestInstallers:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_noop_configurations_leave_queues_unbounded(self, depth):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        install_admission_control(cluster, StoreConfig(admission_queue_depth=depth))
        for node in cluster.nodes:
            assert node.cpu.max_queue is None
            assert node.disk.device.max_queue is None

    def test_bounds_every_service_loop(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        install_admission_control(cluster, StoreConfig(admission_queue_depth=6))
        for node in cluster.nodes:
            for resource in (
                node.cpu,
                node.disk.device,
                node.endpoint.egress,
                node.endpoint.ingress,
            ):
                assert resource.max_queue == 6

    def test_breaker_install_is_idempotent_and_off_by_default(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        install_circuit_breakers(cluster, StoreConfig())
        assert cluster.breakers is None  # threshold 0 = off
        install_circuit_breakers(cluster, StoreConfig(breaker_failure_threshold=5))
        board = cluster.breakers
        assert board is not None and board.failure_threshold == 5
        install_circuit_breakers(cluster, StoreConfig(breaker_failure_threshold=9))
        assert cluster.breakers is board  # first install wins

    def test_open_breaker_makes_node_unroutable(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        install_circuit_breakers(cluster, StoreConfig(breaker_failure_threshold=1))
        assert cluster.routable(1)
        cluster.breakers.record_failure(1)
        assert not cluster.routable(1)
        # fail/restore notifies the board through the liveness listener.
        cluster.fail_node(1)
        cluster.restore_node(1)
        assert cluster.routable(1)


class TestPartialResult:
    def test_shape(self):
        partial = PartialResult(result="rows", shed_chunks=3)
        assert partial.partial is True
        assert partial.reason == "overload"
        assert partial.shed_chunks == 3
        assert partial.result == "rows"


class TestJitterRng:
    def test_seeded_and_isolated_from_placement(self):
        a = Cluster(Simulator(), ClusterConfig(num_nodes=3, placement_seed=5))
        b = Cluster(Simulator(), ClusterConfig(num_nodes=3, placement_seed=5))
        c = Cluster(Simulator(), ClusterConfig(num_nodes=3, placement_seed=6))
        seq_a = [a.jitter_rng.random() for _ in range(4)]
        seq_b = [b.jitter_rng.random() for _ in range(4)]
        seq_c = [c.jitter_rng.random() for _ in range(4)]
        assert seq_a == seq_b
        assert seq_a != seq_c


# ---------------------------------------------------------------------------
# Restore-during-half-open race and once-per-logical-request refusal
# accounting.
# ---------------------------------------------------------------------------


class TestRestoreDuringHalfOpenProbe:
    def test_stale_probe_failure_cannot_retrip_restored_node(self):
        """on_liveness restore mid half-open probe abandons the probe:
        its stale failure outcome must not flip the fresh breaker."""
        sim = Simulator()
        board = _board(sim, threshold=1, reset=1.0)
        board.record_failure(0)
        assert board.state[0] == OPEN
        sim.run(until=1.5)
        assert board.allow(0)  # half-open probe granted, now in flight
        assert board.state[0] == HALF_OPEN
        board.on_liveness(0, alive=True)  # node restored under the probe
        assert board.state[0] == CLOSED
        # The stale probe resolves as a failure: with threshold=1 this
        # would instantly re-trip a breaker that naively counted it.
        assert board.record_failure(0) is False
        assert board.state[0] == CLOSED
        # The abandoned-probe pardon is one-shot: a genuine new failure
        # trips as usual.
        assert board.record_failure(0) is True
        assert board.state[0] == OPEN

    def test_stale_probe_success_is_discarded_too(self):
        sim = Simulator()
        board = _board(sim, threshold=1, reset=1.0)
        board.record_failure(0)
        sim.run(until=1.5)
        assert board.allow(0)
        board.on_liveness(0, alive=True)
        board.record_success(0)  # stale success: consumed, no state change
        assert board.state[0] == CLOSED
        # Probe bookkeeping is clean: a later trip/half-open cycle works.
        board.record_failure(0)
        assert board.state[0] == OPEN
        sim.run(until=3.0)
        assert board.allow(0)
        board.record_success(0)
        assert board.state[0] == CLOSED

    def test_restore_resets_reopen_timer_atomically(self):
        """A trip after restore must wait its own full reset_s, not ride
        a stale _reopen_at from the pre-restore trip."""
        sim = Simulator()
        board = _board(sim, threshold=1, reset=10.0)
        board.record_failure(0)
        assert board.state[0] == OPEN
        sim.run(until=1.0)
        board.on_liveness(0, alive=True)
        # Fresh trip at t=1.0: reopen must be at 11.0.
        board.record_failure(0)
        assert board.state[0] == OPEN
        sim.run(until=5.0)
        assert board.allow(0) is False  # stale timer would have expired
        sim.run(until=11.5)
        assert board.allow(0) is True


class TestRefusalAccounting:
    def _env(self):
        from repro.core.scatter_gather import RemoteOp, _record_rejection
        from repro.cluster.metrics import QueryMetrics

        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        return cluster, QueryMetrics(), RemoteOp, _record_rejection

    def test_retried_refusal_counts_one_logical_request(self):
        cluster, metrics, RemoteOp, record = self._env()
        op = RemoteOp(node=cluster.node(0), execute=lambda: iter(()))
        record(cluster, 0, metrics, (op,))
        # The executor retries rejected ops; a second refusal of the
        # same op is a new attempt, not a new refused request.
        record(cluster, 0, metrics, (op,))
        assert metrics.requests_rejected == 1
        assert metrics.refusal_attempts == 2

    def test_group_refusal_counts_each_op_once(self):
        cluster, metrics, RemoteOp, record = self._env()
        group = [
            RemoteOp(node=cluster.node(0), execute=lambda: iter(()))
            for _ in range(3)
        ]
        record(cluster, 0, metrics, group)
        record(cluster, 0, metrics, group)
        assert metrics.requests_rejected == 3
        assert metrics.refusal_attempts == 6

    def test_opless_refusal_counts_once_per_call(self):
        # Coordinator-side refusals outside any scatter-gather stage have
        # no op identity; each call is its own logical request.
        cluster, metrics, _RemoteOp, record = self._env()
        record(cluster, None, metrics)
        record(cluster, None, metrics)
        assert metrics.requests_rejected == 2
        assert metrics.refusal_attempts == 2
