"""Tracer semantics: simulated-clock spans, per-process parent context,
Chrome trace_event export, and the zero-cost-when-disabled contract."""

import pytest

from repro.cluster.simcore import Simulator
from repro.obs.tracer import Tracer, traced
from repro.obs.validate import validate_chrome_trace


def test_begin_finish_uses_simulated_clock():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def work():
        span = tracer.begin("outer", cat="test", who="me")
        yield sim.timeout(2.5)
        tracer.finish(span, done=True)

    sim.process(work())
    sim.run()
    (span,) = tracer.spans
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration == 2.5
    assert span.args == {"who": "me", "done": True}


def test_nesting_within_one_process():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def work():
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        yield sim.timeout(1.0)
        tracer.finish(inner)
        tracer.finish(outer)

    sim.process(work())
    sim.run()
    outer, inner = tracer.spans
    assert inner.parent_id == outer.span_id
    assert tracer.ancestors(inner) == [outer]
    assert tracer.path(inner) == "outer/inner"


def test_interleaved_processes_keep_separate_parent_context():
    """Two concurrent processes must not adopt each other's open spans."""
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def worker(name, delay):
        span = tracer.begin(name)
        yield sim.timeout(delay)
        child = tracer.begin(f"{name}.child")
        yield sim.timeout(delay)
        tracer.finish(child)
        tracer.finish(span)

    sim.process(worker("a", 1.0))
    sim.process(worker("b", 0.7))  # interleaves with a's steps
    sim.run()
    for name in ("a", "b"):
        (child,) = tracer.find(f"{name}.child")
        (parent,) = tracer.find(name)
        assert child.parent_id == parent.span_id


def test_child_process_inherits_spawners_open_span():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def child():
        span = tracer.begin("child")
        yield sim.timeout(0.1)
        tracer.finish(span)

    def parent():
        span = tracer.begin("parent")
        yield sim.process(child())
        tracer.finish(span)

    sim.process(parent())
    sim.run()
    (c,) = tracer.find("child")
    (p,) = tracer.find("parent")
    assert c.parent_id == p.span_id


def test_tracer_installed_after_a_process_was_spawned():
    """A process spawned with tracing off carries no trace context; its
    spans become roots once a tracer appears."""
    sim = Simulator()

    def work():
        yield sim.timeout(1.0)
        span = sim.tracer.begin("late")
        yield sim.timeout(1.0)
        sim.tracer.finish(span)

    sim.process(work())
    sim.run(until=0.5)
    sim.tracer = Tracer(sim)
    sim.run()
    (span,) = sim.tracer.spans
    assert (span.parent_id, span.start, span.end) == (None, 1.0, 2.0)
    assert sim.tracer.current is None


def test_spans_view_is_a_read_only_sequence_of_handles():
    sim = Simulator()
    tracer = Tracer(sim)
    assert not tracer.spans and len(tracer.spans) == 0
    assert (tracer.begin("a", k=1), tracer.begin("b")) == (1, 2)  # span ids
    a, b = tracer.spans
    assert tracer.current == b and tracer.current is not b
    tracer.finish(b.span_id)
    spans = tracer.spans
    assert len(spans) == 2 and list(spans) == [a, b] == spans[:] == spans[-2:]
    assert spans[0] == a and spans[-1] == b and spans[1].parent_id == a.span_id
    assert spans.index(b) == 1 and b in spans and {a, spans[0]} == {a}
    assert a != b and a != Tracer(sim).span("a").span
    assert (a.end, a.duration, b.end) == (None, 0.0, 0.0)
    with pytest.raises(IndexError):
        spans[2]
    with pytest.raises(TypeError):
        spans[0] = a
    with pytest.raises(AttributeError):
        a.name = "renamed"
    a.set(k=2)
    assert spans[0].args == {"k": 2}


def test_traced_wraps_generator_and_passes_value_through():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def body():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(traced(sim, body(), "wrapped", cat="test", k=1))
    sim.run()
    assert proc.value == 42
    (span,) = tracer.find("wrapped")
    assert span.duration == 1.0
    assert span.args == {"k": 1}


def test_traced_without_tracer_is_bare_passthrough():
    sim = Simulator()  # sim.tracer is None

    def body():
        yield sim.timeout(1.0)
        return "ok"

    proc = sim.process(traced(sim, body(), "wrapped"))
    sim.run()
    assert proc.value == "ok"


def test_instants_record_time_and_parent():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def work():
        span = tracer.begin("outer")
        yield sim.timeout(0.5)
        tracer.instant("tick", cat="test", n=1)
        tracer.finish(span)

    sim.process(work())
    sim.run()
    ((when, name, cat, parent_id, args),) = tracer.instants
    assert when == 0.5
    assert name == "tick"
    assert parent_id == tracer.spans[0].span_id
    assert args == {"n": 1}


def test_chrome_trace_is_valid_and_balanced():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def worker(name, delay):
        span = tracer.begin(name)
        yield sim.timeout(delay)
        inner = tracer.begin(f"{name}.inner")
        yield sim.timeout(delay)
        tracer.instant(f"{name}.instant")
        tracer.finish(inner)
        tracer.finish(span)

    for i in range(5):
        sim.process(worker(f"w{i}", 0.3 + 0.1 * i))
    sim.run()
    trace = tracer.chrome_trace(pid=3, process_name="test-proc")
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "B") == sum(
        1 for e in events if e["ph"] == "E"
    )
    assert any(
        e["ph"] == "M" and e["name"] == "process_name"
        and e["args"]["name"] == "test-proc"
        for e in events
    )
    assert sum(1 for e in events if e["ph"] == "i") == 5
    assert all(e["pid"] == 3 for e in events)


def test_chrome_trace_renders_open_spans_at_horizon_without_mutating():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def work():
        tracer.begin("never_finished")
        yield sim.timeout(4.0)

    sim.process(work())
    sim.run()
    trace = tracer.chrome_trace()
    assert validate_chrome_trace(trace) == []
    # Export renders the open span as ending at the horizon and marks it
    # truncated, but the Span object itself stays open (a later finish()
    # still records the real end).
    (span,) = tracer.find("never_finished")
    assert span.end is None
    begin = next(
        e for e in trace["traceEvents"]
        if e["ph"] == "B" and e["name"] == "never_finished"
    )
    assert begin["args"]["truncated"] is True
    end = next(
        e for e in trace["traceEvents"]
        if e["ph"] == "E" and e["ts"] == 4.0 * 1e6
    )
    assert end is not None


def test_text_summary_aggregates_by_path():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer

    def work():
        for _ in range(3):
            outer = tracer.begin("op")
            inner = tracer.begin("step")
            yield sim.timeout(1.0)
            tracer.finish(inner)
            tracer.finish(outer)

    sim.process(work())
    sim.run()
    summary = tracer.text_summary()
    lines = {line.split()[-1]: line for line in summary.splitlines()[1:]}
    assert lines["op"].split()[0] == "3"
    assert lines["op;step"].split()[0] == "3"
    # op's time is all in its child, so its self time is ~0.
    assert float(lines["op"].split()[2]) == 0.0
    assert float(lines["op;step"].split()[2]) == 3.0
