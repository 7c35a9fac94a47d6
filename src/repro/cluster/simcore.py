"""A small discrete-event simulation kernel.

The paper evaluates Fusion on a 10-machine cluster with 25 Gbps NICs and
NVMe disks; we reproduce the latency *shape* with a discrete-event
simulation in which network links, disks and CPU cores are contended
resources.  This module is the kernel: a virtual clock, an event heap, and
generator-based processes in the style of SimPy.

A process is a Python generator that yields :class:`Event` objects; the
process resumes when the yielded event fires.  Key primitives:

* :meth:`Simulator.timeout` — an event that fires after a delay.
* :class:`Resource` — FIFO resource with integer capacity (a NIC pipe, a
  disk, a pool of CPU cores).
* :meth:`Simulator.process` — spawn a process; the returned
  :class:`Process` is itself an event that fires when the generator
  returns, carrying its return value.
* :func:`all_of` — barrier over a set of events.

Example::

    sim = Simulator()
    disk = Resource(sim, capacity=1)

    def read(nbytes):
        with (yield from disk.acquire()):
            yield sim.timeout(nbytes / 2e9)
        return nbytes

    proc = sim.process(read(1_000_000))
    sim.run()
    assert proc.value == 1_000_000
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable


class SimulationError(Exception):
    """Raised on kernel misuse (e.g. running a finished simulation step)."""


class QueueFull(Exception):
    """An admission-controlled :class:`Resource` refused a request: it
    arrived while the queue was at ``max_queue``."""


class LinkDown(Exception):
    """The network's delivery rule refused a transfer, at dispatch or at
    delivery (see :mod:`repro.cluster.network`)."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events start pending, then fire exactly once (with an optional value);
    callbacks added after firing run immediately.
    """

    __slots__ = ("sim", "_fired", "value", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._fired = False
        self.value: object = None
        #: The waiter's callback; a list only once a second waiter appears.
        self._callbacks: Callable[[Event], None] | list | None = None

    @property
    def fired(self) -> bool:
        return self._fired

    def succeed(self, value: object = None) -> "Event":
        """Fire the event now, delivering ``value`` to waiters."""
        if self._fired:
            raise SimulationError("event already fired")
        self._fired = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks.__class__ is list:
            for cb in callbacks:
                cb(self)
        elif callbacks is not None:
            callbacks(self)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._fired:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = cb
        elif self._callbacks.__class__ is list:
            self._callbacks.append(cb)
        else:
            self._callbacks = [self._callbacks, cb]


class Process(Event):
    """A running generator; fires (as an Event) when the generator returns."""

    __slots__ = ("_gen", "_ctx", "_cancelled")

    def __init__(self, sim: "Simulator", gen: Generator) -> None:
        Event.__init__(self, sim)
        self._gen = gen
        self._cancelled = False
        # Trace context: a process inherits the span that was current when
        # it was spawned (its id; 0 = none), and carries its own span stack
        # across steps so interleaved processes don't corrupt each other's
        # parentage.
        tracer = sim.tracer
        self._ctx = tracer._current if tracer is not None else 0
        sim._schedule(sim.now, self._step, None)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop the process without waiting for it to finish.

        Closing the generator raises ``GeneratorExit`` at its suspension
        point, so ``with`` blocks release held resources and pending
        :class:`Resource` queue slots are withdrawn.  The process then
        fires with value ``None`` so barriers waiting on it unblock.  Any
        timeline events it was waiting on still fire and drain from the
        heap; their callbacks become no-ops.  Cancelling a finished or
        currently-executing process is a no-op.
        """
        if self._fired or self._cancelled:
            return
        if self.sim.active_process is self or self._gen.gi_running:
            return  # cannot unwind a generator that is mid-step
        self._cancelled = True
        self._gen.close()
        self.succeed(None)

    def _step(self, event: Event | None) -> None:
        if self._cancelled:
            return
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            prev = tracer._current
            tracer._current = self._ctx
        prev_active = sim.active_process
        sim.active_process = self
        try:
            try:
                target = self._gen.send(None if event is None else event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded {target!r}; processes must yield Event objects"
                )
            # Event.add_callback, inlined: one frame less per resume.
            if target._callbacks is None and not target._fired:
                target._callbacks = self._step
            else:
                target.add_callback(self._step)
        finally:
            sim.active_process = prev_active
            if tracer is not None:
                self._ctx = tracer._current
                tracer._current = prev


class Simulator:
    """The event loop: a clock and a time-ordered event heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, object]] = []
        self._seq = 0
        #: Optional :class:`repro.obs.Tracer`; ``None`` means tracing is
        #: off and instrumented code pays one attribute load + None check.
        self.tracer = None
        #: The :class:`Process` whose generator is currently executing a
        #: step (``None`` between steps).  Used by cancellation scopes to
        #: avoid closing a generator from within its own frame.
        self.active_process: Process | None = None
        #: Clock listeners (see :meth:`add_clock_listener`) and, per
        #: listener, the time it is next due; ``_clock_due`` is the
        #: earliest of those (``inf`` with none registered).
        self._clock_listeners: list[Callable[[float], float | None]] = []
        self._listener_dues: list[float] = []
        self._clock_due = math.inf

    def add_clock_listener(self, callback: Callable[[float], float | None]) -> None:
        """Register an observe-only callback for clock advances.

        ``callback(to)`` runs in :meth:`run` when the clock is about to
        advance from ``now`` to ``to`` (before the event at ``to``
        executes), from the next advance on, even one inside the current
        :meth:`run`.  It returns the time it is next due: it is skipped on
        every advance to a ``to`` below that time, and a return of
        ``None`` asks for the next advance, whatever its ``to``.
        Listeners are observers only: they must never schedule events or
        mutate simulation state, which keeps the event stream
        bit-identical with or without them (the telemetry scraper's
        zero-perturbation contract).
        """
        self._clock_listeners.append(callback)
        self._listener_dues.append(-math.inf)
        self._clock_due = -math.inf

    def _advance_clock(self, to: float) -> None:
        """Call every clock listener due at ``to``; note when each is next due."""
        dues = self._listener_dues
        for i, listener in enumerate(self._clock_listeners):
            if dues[i] <= to:
                due = listener(to)
                dues[i] = -math.inf if due is None else due
        self._clock_due = min(dues)

    def _schedule(self, at: float, callback: Callable, arg: object) -> None:
        """Push ``callback(arg)`` onto the heap.  Every heap push goes through
        this method, looked up on the instance each time, so hooking it
        (:func:`record_schedule`) shows the whole scheduled-event stream."""
        if at < self.now:
            raise SimulationError(f"cannot schedule in the past ({at} < {self.now})")
        heappush(self._heap, (at, self._seq, callback, arg))
        self._seq += 1

    def timeout(self, delay: float, value: object = None) -> Event:
        """An event firing ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        event = Event(self)
        self._schedule(self.now + delay, event.succeed, value)
        return event

    def event(self) -> Event:
        """A bare event to be fired manually."""
        return Event(self)

    def process(self, gen: Generator) -> Process:
        """Spawn a process from a generator; starts at the current time."""
        return Process(self, gen)

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains (or the clock passes ``until``; an
        ``until`` in the past runs nothing and leaves the clock alone)."""
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            at, _seq, callback, arg = heappop(heap)
            if at > self.now:
                if at >= self._clock_due:
                    self._advance_clock(at)
                self.now = at
            callback(arg)
        if until is not None and until > self.now:
            if until >= self._clock_due:
                self._advance_clock(until)
            self.now = until


def record_schedule(sim: Simulator) -> list[tuple[float, int]]:
    """Record every heap push on ``sim`` from now on; returns the live list
    of ``(at, seq)`` pairs.  Two runs are event-for-event identical exactly
    when their lists are equal (the "does not perturb the timeline" probe)."""
    stream: list[tuple[float, int]] = []
    schedule = sim._schedule

    def recording(at, callback, arg):
        stream.append((at, sim._seq))
        schedule(at, callback, arg)

    sim._schedule = recording
    return stream


class _ReleaseContext:
    """Context manager returned by ``Resource.acquire`` for scoped holds."""

    __slots__ = ("_resource", "_released")

    def __init__(self, resource: "Resource") -> None:
        self._resource = resource
        self._released = False

    def release(self, *_exc) -> None:
        if not self._released:
            self._released = True
            self._resource._release()

    def __enter__(self) -> "_ReleaseContext":
        return self

    __exit__ = release


class Resource:
    """A FIFO-queued resource with integer capacity.

    Usage inside a process::

        with (yield from resource.acquire()):
            yield sim.timeout(service_time)

    Admission control: when ``max_queue`` is set (``None`` = unbounded),
    an admission-controlled acquisition (``priority`` given as an int)
    arriving while ``queue_length >= max_queue`` raises
    :class:`QueueFull` instead of waiting.  Acquisitions with
    ``priority=None`` (internal/control traffic) always queue and are
    never rejected.
    """

    def __init__(
        self, sim: Simulator, capacity: int = 1, max_queue: int | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.max_queue = max_queue
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        #: Optional per-tenant DRR dispatcher (repro.cluster.qos.FairQueue),
        #: attached by install_qos.  None keeps the legacy FIFO lanes the
        #: only queue, so untenanted runs never touch the fair path.
        self.fair = None
        #: Optional trace labels (set by StorageNode for its service
        #: resources) stamped onto ``queue.wait`` spans so the critical-
        #: path analyzer can attribute waiting to a node and device.
        self.trace_name: str | None = None
        self.trace_node: int | None = None
        # Accounting for utilisation metrics and admission decisions.
        self.busy_time = 0.0
        self._last_change = 0.0
        self.rejected_total = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        n = len(self._waiters)
        if self.fair is not None:
            n += self.fair.total
        return n

    def _account(self) -> None:
        now = self.sim.now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def _reject(self, tenant: str | None = None) -> None:
        """Refuse an arrival at a full queue with :class:`QueueFull`.

        With a ``tenant`` the full queue is that tenant's own sub-queues:
        one tenant's backlog never refuses another tenant's admissions.
        """
        self.rejected_total += 1
        if tenant is None:
            args = {}
            message = f"admission queue full ({len(self._waiters)}/{self.max_queue})"
        else:
            args = {"tenant": tenant}
            message = (
                f"tenant {tenant!r} admission queue full "
                f"({self.fair.depth(tenant)}/{self.fair.depth_limit})"
            )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("admission.reject", cat="overload", **args)
        raise QueueFull(message)

    def acquire(
        self,
        priority: int | None = None,
        tenant: str | None = None,
        cost: float = 1.0,
    ) -> Generator[Event, None, _ReleaseContext]:
        """Generator-style acquisition; yields until a slot is granted."""
        self._account()
        if self._in_use < self.capacity:
            self._in_use += 1
        elif self.fair is not None and tenant is not None:
            limit = self.fair.depth_limit
            if (
                priority is not None
                and limit is not None
                and self.fair.depth(tenant) >= limit
            ):
                self._reject(tenant)
            gate = Event(self.sim)
            fair_entry = self.fair.push(tenant, priority, gate, cost)
            wait_id = self._begin_wait()
            try:
                yield gate
            except GeneratorExit:
                self._finish_wait(wait_id, cancelled=True)
                if not self.fair.remove(fair_entry) and gate.fired:
                    self._release()
                raise
            self._finish_wait(wait_id)
        else:
            gate, wait_id = self._enqueue(priority)
            try:
                yield gate
            except GeneratorExit:
                self._finish_wait(wait_id, cancelled=True)
                # The owning process was cancelled while queued: withdraw
                # the request so _release never hands a slot to a corpse.
                try:
                    self._waiters.remove(gate)
                except ValueError:
                    if gate.fired:
                        # The slot was transferred just before the close
                        # landed; pass it on so it is not leaked.
                        self._release()
                raise
            self._finish_wait(wait_id)
            # Slot was transferred to us by _release; nothing to increment.
        return _ReleaseContext(self)

    def _enqueue(self, priority: int | None):
        """Join the legacy FIFO lane (admission-checked when ``priority`` is
        given); returns the waiter's gate and its ``queue.wait`` span id."""
        if (
            priority is not None
            and self.max_queue is not None
            and len(self._waiters) >= self.max_queue
        ):
            self._reject()
        gate = Event(self.sim)
        self._waiters.append(gate)
        return gate, self._begin_wait()

    def _begin_wait(self):
        """Open a ``queue.wait`` span around a queued acquisition and return
        its id (``None`` with tracing off).

        Metadata-plane: spans never schedule events, so tracing a wait
        cannot perturb the timeline.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return None
        return tracer.begin(
            "queue.wait", cat="queue",
            resource=self.trace_name, node=self.trace_node,
        )

    def _finish_wait(self, span_id, **args) -> None:
        if span_id is not None:
            self.sim.tracer.finish(span_id, **args)

    def occupy(self, seconds: float, priority: int | None = None) -> None:
        """Detached hold: take a slot for ``seconds``; nobody waits for it.

        Event for event what a spawned process running ``with (yield from
        self.acquire(priority)): yield sim.timeout(seconds)`` and swallowing
        :class:`QueueFull` does (a refused hold drops its charge),
        as two heap callbacks: it starts at ``now`` behind everything
        already scheduled, queues FIFO with the other waiters, and its
        ``queue.wait`` span opens under the caller's trace context.
        """
        tracer = self.sim.tracer
        ctx = tracer._current if tracer is not None else 0
        self.sim._schedule(self.sim.now, self._occupy_start, (seconds, priority, ctx))

    def _occupy_start(self, hold: tuple) -> None:
        seconds, priority, ctx = hold
        sim = self.sim
        self._account()
        if self._in_use < self.capacity:
            self._in_use += 1
            sim._schedule(sim.now + seconds, self._release, None)
            return
        tracer = sim.tracer
        if tracer is not None:
            prev, tracer._current = tracer._current, ctx
        try:
            gate, wait_id = self._enqueue(priority)
        except QueueFull:
            return
        finally:
            if tracer is not None:
                tracer._current = prev

        def granted(gate: Event) -> None:
            self._finish_wait(wait_id)
            sim._schedule(sim.now + seconds, self._release, None)

        gate.add_callback(granted)

    def _release(self, _end_of_hold: object = None) -> None:
        """Free one slot or hand it on (also the heap callback ending a hold)."""
        now = self.sim.now  # _account(), inlined
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # Legacy FIFO (untenanted/internal traffic) drains first so
            # control-plane work never starves behind tenant backlogs.
            self._waiters.popleft().succeed()
        elif self.fair is not None and self.fair.total:
            self.fair.pop().gate.succeed()
        else:
            self._in_use -= 1

    def utilization(self, elapsed: float) -> float:
        """Average fraction of capacity in use over ``elapsed`` seconds."""
        self._account()
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.capacity)


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that fires once every input event has fired.

    Its value is the list of input event values in input order.
    """
    events = list(events)
    done = sim.event()
    if not events:
        done.succeed([])
        return done
    remaining = [len(events)]

    def on_fire(_event: Event) -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            done.succeed([e.value for e in events])

    for e in events:
        e.add_callback(on_fire)
    return done


def any_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that fires when the *first* input event fires.

    Its value is the winning event object.  Later inputs firing are
    ignored.  Creates no timeline entries, so racing an event against a
    pure signal does not perturb the scheduled-event stream.
    """
    events = list(events)
    if not events:
        raise SimulationError("any_of needs at least one event")
    done = sim.event()

    def on_fire(event: Event) -> None:
        if not done.fired:
            done.succeed(event)

    for e in events:
        e.add_callback(on_fire)
    return done
