"""Differential test: ``Resource.occupy`` against the process it replaced.

One schedule of competing ``acquire`` holders, cancellations and detached
holds is run twice on one ``Resource``: once with every detached hold as
the reference generator process (``_process_reference.occupy_process``),
once with the flagged ones as ``occupy`` callbacks.  Everything observable
must be equal: the scheduled-event stream, the accounting, who was granted
a slot when, and (with a tracer) every span and instant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import QueueFull, Resource, Simulator, record_schedule
from repro.obs import Tracer
from tests.cluster._process_reference import occupy_process

#: Few distinct values, so arrivals, grants and releases tie often, and
#: holds that outlast the arrival window, so the queue is rarely empty.
TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5])
DURATIONS = st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0])
PRIORITIES = st.sampled_from([None, 0, 0, 1, 2])
MAX_QUEUE = st.sampled_from([None, 0, 1, 2, 3])

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), TIMES, DURATIONS, PRIORITIES),
        st.tuples(st.just("hold"), TIMES, DURATIONS, PRIORITIES, st.booleans()),  # last: via the lane
        st.tuples(st.just("hold"), TIMES, DURATIONS, PRIORITIES, st.just(True)),
        st.tuples(st.just("cancel"), TIMES, st.integers(0, 30)),  # which holder, modulo
    ),
    min_size=2,
    max_size=30,
)


def run_schedule(actions, capacity, max_queue, traced, lane: bool):
    """Everything observable about one run of ``actions``."""
    sim = Simulator()
    stream = record_schedule(sim)
    tracer = None
    if traced:
        tracer = sim.tracer = Tracer(sim)
    resource = Resource(sim, capacity=capacity, max_queue=max_queue)
    resource.trace_name, resource.trace_node = "cpu", 3
    log: list[tuple] = []
    holders = []

    def holder(index, seconds, priority):
        try:
            with (yield from resource.acquire(priority)):
                log.append(("granted", index, sim.now, resource.in_use, resource.queue_length))
                yield sim.timeout(seconds)
        except QueueFull:
            log.append(("refused", index, sim.now))

    def driver(index, action):
        """Arrives at its time; a detached hold inherits *its* trace context."""
        kind, at = action[:2]
        yield sim.timeout(at)
        span = tracer.begin(f"driver-{index}") if tracer is not None else None
        if kind == "acquire":
            holders.append(sim.process(holder(index, *action[2:])))
        elif kind == "cancel":
            if holders:
                holders[action[2] % len(holders)].cancel()
        elif lane and action[4]:
            resource.occupy(action[2], action[3])
        else:
            sim.process(occupy_process(sim, resource, action[2], action[3]))
        if span is not None:
            tracer.finish(span)

    for index, action in enumerate(actions):
        sim.process(driver(index, action))
    sim.run()
    resource._account()
    spans = instants = None
    if tracer is not None:
        spans = [
            (s.span_id, s.parent_id, s.name, s.start, s.end, sorted(s.args.items(), key=repr))
            for s in tracer.spans
        ]
        instants = tracer.instants
    return {
        "stream": stream,
        "now": sim.now,
        "busy_time": resource.busy_time,
        "rejected_total": resource.rejected_total,
        "in_use": resource.in_use,
        "queue_length": resource.queue_length,
        "log": log,
        "spans": spans,
        "instants": instants,
    }


@settings(max_examples=300, deadline=None)
@given(
    actions=ACTIONS,
    capacity=st.sampled_from([1, 1, 2, 3, 4]),
    max_queue=MAX_QUEUE,
    traced=st.booleans(),
)
def test_lane_is_event_for_event_the_process(actions, capacity, max_queue, traced):
    oracle = run_schedule(actions, capacity, max_queue, traced, lane=False)
    lane = run_schedule(actions, capacity, max_queue, traced, lane=True)
    for key, expected in oracle.items():
        assert lane[key] == expected, key
    assert oracle["in_use"] == 0 and oracle["queue_length"] == 0  # every slot came back


def _contended(max_queue, traced=True):
    """Capacity 1, one long holder, then detached holds and a late foreground
    arrival: exercises queueing and rejection of lane holds."""
    actions = [
        ("acquire", 0.0, 2.5, None),
        ("hold", 0.0, 1.0, 0, True),
        ("hold", 0.5, 1.0, 0, True),
        ("hold", 0.5, 0.5, 0, True),
        ("acquire", 1.0, 0.5, 2),
    ]
    oracle = run_schedule(actions, 1, max_queue, traced, lane=False)
    lane = run_schedule(actions, 1, max_queue, traced, lane=True)
    assert lane == oracle
    return lane


def test_queued_holds_wait_fifo_and_trace_their_wait():
    run = _contended(max_queue=None)
    waits = [s for s in run["spans"] if s[2] == "queue.wait"]
    assert len(waits) == 4  # three holds and the late holder queued
    # Each hold's wait span hangs under the driver that issued it.
    drivers = {s[0]: s[2] for s in run["spans"] if s[2].startswith("driver-")}
    assert [drivers[s[1]] for s in waits[:3]] == ["driver-1", "driver-2", "driver-3"]
    assert run["busy_time"] == 2.5 + 1.0 + 1.0 + 0.5 + 0.5


def test_full_queue_drops_the_charge_and_counts_the_rejection():
    run = _contended(max_queue=1)
    # One hold queues; the next two and the late holder are refused at the door.
    assert run["rejected_total"] == 3
    assert [name for _t, name, *_ in run["instants"]] == ["admission.reject"] * 3
    assert run["busy_time"] == 2.5 + 1.0

