"""The DES kernel: clock, events, processes, resources."""

import pytest

from repro.cluster.simcore import (
    Event,
    Resource,
    SimulationError,
    Simulator,
    all_of,
    any_of,
    record_schedule,
)


class TestEvents:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(5.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [5.0]

    def test_timeout_value_delivery(self):
        sim = Simulator()
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="hello")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["hello"]

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_event_fires_once(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_callback_after_fire_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(3, "c"))
        sim.process(proc(1, "a"))
        sim.process(proc(2, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in "abcd":
            sim.process(proc(tag))
        sim.run()
        assert order == list("abcd")

    def test_run_until(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(10)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5)
        assert sim.now == 5 and not fired
        sim.run()
        assert fired


class TestProcesses:
    def test_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            return 42

        p = sim.process(proc())
        sim.run()
        assert p.value == 42

    def test_process_joins_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2)
            return "done"

        def parent():
            result = yield sim.process(child())
            return (result, sim.now)

        p = sim.process(parent())
        sim.run()
        assert p.value == ("done", 2)

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield"):
            sim.run()

    def test_immediate_return(self):
        sim = Simulator()

        def proc():
            return 7
            yield  # pragma: no cover

        p = sim.process(proc())
        sim.run()
        assert p.value == 7


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finish = []

        def worker(i):
            with (yield from res.acquire()):
                yield sim.timeout(1.0)
            finish.append((i, sim.now))

        for i in range(5):
            sim.process(worker(i))
        sim.run()
        times = [t for _, t in finish]
        assert times == [1.0, 1.0, 2.0, 2.0, 3.0]

    def test_fifo_ordering(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def worker(i):
            with (yield from res.acquire()):
                order.append(i)
                yield sim.timeout(1)

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def worker():
            with (yield from res.acquire()):
                yield sim.timeout(1)

        for _ in range(3):
            sim.process(worker())
        sim.run(until=0.5)
        assert res.in_use == 1
        assert res.queue_length == 2

    def test_bad_capacity_raises(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_utilization_accounting(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def worker():
            with (yield from res.acquire()):
                yield sim.timeout(4)

        sim.process(worker())
        sim.run()
        # One of two slots busy for 4 of 4 seconds -> 50%.
        assert res.utilization(sim.now) == pytest.approx(0.5)

    def test_release_is_idempotent(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def worker():
            ctx = yield from res.acquire()
            ctx.release()
            ctx.release()  # second release must be a no-op

        sim.process(worker())
        sim.run()
        assert res.in_use == 0


class TestAllOf:
    def test_gathers_values_in_order(self):
        sim = Simulator()

        def proc(delay, value):
            yield sim.timeout(delay)
            return value

        procs = [sim.process(proc(3, "a")), sim.process(proc(1, "b"))]
        gathered = []

        def waiter():
            values = yield all_of(sim, procs)
            gathered.append((values, sim.now))

        sim.process(waiter())
        sim.run()
        assert gathered == [(["a", "b"], 3)]

    def test_empty_list_fires_immediately(self):
        sim = Simulator()
        done = all_of(sim, [])
        assert done.fired and done.value == []

    def test_already_fired_events(self):
        sim = Simulator()
        e1 = sim.event()
        e1.succeed(1)
        e2 = sim.event()
        combined = all_of(sim, [e1, e2])
        assert not combined.fired
        e2.succeed(2)
        assert combined.fired and combined.value == [1, 2]


class TestTimeoutValueThroughTheHeap:
    @pytest.mark.parametrize("value", [None, 0, "", "payload", (1, 2)])
    def test_value_rides_the_heap_entry(self, value):
        sim = Simulator()
        event = sim.timeout(2.0, value)
        assert not event.fired
        got = []

        def proc():
            got.append((yield event))

        sim.process(proc())
        sim.run()
        assert event.fired and event.value == value and got == [value]

    def test_waiters_fire_in_registration_order(self):
        """The callback slot holds one waiter and becomes a list on the second."""
        sim = Simulator()
        event = sim.timeout(1.0, "v")
        seen = []
        for tag in "abc":
            event.add_callback(lambda e, tag=tag: seen.append((tag, e.value)))
        event.add_callback(lambda e: e.add_callback(lambda e: seen.append(("late", sim.now))))
        sim.run()
        assert seen == [("a", "v"), ("b", "v"), ("c", "v"), ("late", 1.0)]


class TestRunUntil:
    def test_until_in_the_past_never_moves_the_clock_backwards(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.timeout(5.0)
        sim.run(until=6)
        assert sim.now == 6
        sim.timeout(5.0)  # pending at t=11: the early-exit branch is the one taken
        sim.run(until=3)
        assert sim.now == 6
        sim.run()
        assert sim.now == 11
        sim.run(until=4)  # drained-heap exit
        assert sim.now == 11

    def test_listeners_fire_once_per_distinct_time_step_on_both_exits(self):
        sim = Simulator()
        steps = []
        sim.add_clock_listener(steps.append)
        sim.timeout(1.0)
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run(until=1.5)  # leaves through the early exit, one event pending
        assert steps == [1.0, 1.5] and sim.now == 1.5
        sim.run(until=1.5)
        sim.run(until=0.5)
        assert steps == [1.0, 1.5]  # no advance, no call
        sim.run()
        assert steps == [1.0, 1.5, 2.0]
        sim.run(until=4.0)  # leaves through the drained-heap exit
        sim.run(until=3.0)
        assert steps == [1.0, 1.5, 2.0, 4.0] and sim.now == 4.0


class TestCancel:
    @staticmethod
    def _holder(sim, res, log, tag, seconds):
        with (yield from res.acquire()):
            log.append((tag, sim.now))
            yield sim.timeout(seconds)

    def test_cancel_of_a_queued_process_withdraws_the_waiter(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []
        procs = [sim.process(self._holder(sim, res, log, tag, 1.0)) for tag in "abc"]
        sim.run(until=0.5)
        assert res.queue_length == 2
        procs[1].cancel()
        assert procs[1].cancelled and procs[1].fired and procs[1].value is None
        assert res.queue_length == 1
        sim.run()
        assert log == [("a", 0.0), ("c", 1.0)]  # the slot never went to the corpse
        assert res.in_use == 0 and res.busy_time == 2.0

    def test_cancel_just_after_the_slot_transfer_passes_it_on(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []
        procs = [sim.process(self._holder(sim, res, log, tag, 1.0)) for tag in "abc"]

        def canceller():
            yield sim.timeout(1.0)  # scheduled after a's timeout: b holds the slot by now
            assert log == [("a", 0.0), ("b", 1.0)]
            procs[1].cancel()
            assert res.in_use == 1 and res.queue_length == 0  # handed straight to c

        sim.process(canceller())
        sim.run()
        assert log == [("a", 0.0), ("b", 1.0), ("c", 1.0)]
        assert sim.now == 2.0 and res.in_use == 0

    def test_close_landing_after_the_grant_does_not_leak_the_slot(self):
        """A waiter whose gate already fired when its generator is closed
        (the transfer won the race) hands the slot on instead of keeping it."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first = res.acquire()
        with pytest.raises(StopIteration) as granted:
            next(first)
        waiter = res.acquire()
        gate = next(waiter)  # queued; nobody is listening on the gate
        granted.value.value.release()
        assert gate.fired and res.in_use == 1  # transferred, not yet consumed
        waiter.close()
        assert res.in_use == 0 and res.queue_length == 0

    def test_cancelled_process_ignores_the_event_it_waited_on(self):
        sim = Simulator()
        resumed = []

        def proc():
            yield sim.timeout(1.0)
            resumed.append(sim.now)

        p = sim.process(proc())
        sim.run(until=0.5)
        p.cancel()
        p.cancel()  # idempotent
        sim.run()
        assert resumed == [] and sim.now == 1.0  # the timeout still drains


class TestAnyOf:
    def test_first_input_wins_and_later_inputs_are_ignored(self):
        sim = Simulator()
        slow, fast = sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")
        got = []

        def waiter():
            winner = yield any_of(sim, [slow, fast])
            got.append((winner.value, sim.now))

        sim.process(waiter())
        sim.run()  # the slow input fires later; the race is already decided
        assert got == [("fast", 1.0)] and slow.fired

    def test_creates_no_timeline_entries(self):
        sim = Simulator()
        stream = record_schedule(sim)
        signal, timer = sim.event(), sim.timeout(1.0)
        pushed = len(stream)
        race = any_of(sim, [signal, timer])
        signal.succeed("now")
        assert race.fired and race.value is signal and len(stream) == pushed
        sim.run()

    def test_already_fired_input_and_empty_input(self):
        sim = Simulator()
        done = sim.event()
        done.succeed(1)
        assert any_of(sim, [sim.event(), done]).value is done
        with pytest.raises(SimulationError):
            any_of(sim, [])
