"""Span-based tracing on the simulated clock.

A :class:`Tracer` hangs off :attr:`Simulator.tracer` (default ``None``,
i.e. tracing disabled: hot paths pay one attribute load and a ``None``
check).  Components open spans with the context manager::

    tr = self.sim.tracer
    with tr.span("filter_pushdown", node=3, obj=name) if tr else _noop():
        ...

or, in the instrumented code of this repo, the equivalent explicit
pattern where a ``with`` block is awkward: ``begin`` returns the new
span's id and ``finish`` takes it, so the hot path builds no
:class:`Span` handle.  Handles are for readers (``spans``, ``find``,
``current``, the ``span()`` context manager).

Correct parent/child attribution across interleaved simulation
processes comes from the kernel: each :class:`~repro.cluster.simcore.Process`
remembers the span that was current when it was spawned and
swaps it in around every step, so a span opened inside one process
never becomes the parent of work done by a concurrently-running one.

Export targets:

* :meth:`Tracer.chrome_trace` — Chrome ``trace_event`` JSON (``B``/``E``
  duration pairs, ``i`` instants, ``M`` metadata).  Simulated
  concurrency means sibling spans overlap freely; the exporter packs
  spans onto synthetic tracks (``tid``\\ s) such that every track's
  ``B``/``E`` stream is balanced and properly nested, which is what
  Perfetto and ``chrome://tracing`` require.
* :meth:`Tracer.text_summary` — a flamegraph-style aggregation by span
  path (count, total and self time), for terminals.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence

#: Event categories understood by the exporters.
_US = 1e6  # seconds -> microseconds (trace_event's ts unit)

_OPEN = float("nan")  # the end column's value while a span is open


def _cell(column: str) -> property:
    """A read-only :class:`Span` attribute: its row of one tracer column."""
    return property(lambda self: getattr(self._tracer, column)[self.span_id - 1])


class Span:
    """One timed operation: a handle ``(tracer, span_id)`` on one row of
    the tracer's span columns; ``end`` is ``None`` while the span is open.
    Handles are made on demand and compare equal by id."""

    __slots__ = ("_tracer", "span_id")

    def __init__(self, tracer: "Tracer", span_id: int) -> None:
        self._tracer = tracer
        self.span_id = span_id

    name = _cell("_name")
    cat = _cell("_cat")
    args = _cell("_args")
    start = _cell("_start")

    @property
    def end(self) -> float | None:
        end = self._tracer._end[self.span_id - 1]
        return end if end == end else None

    @property
    def parent_id(self) -> int | None:
        return self._tracer._parent[self.span_id - 1] or None

    @property
    def duration(self) -> float:
        end = self.end
        return end - self.start if end is not None else 0.0

    def set(self, **args) -> None:
        """Attach (or overwrite) argument key/values on an open span."""
        self.args.update(args)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.span_id == other.span_id and self._tracer is other._tracer

    def __hash__(self) -> int:
        return hash(self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.start:.6f}..{self.end}, id={self.span_id})"


class _SpanHandle:
    """Context manager that closes its span and restores the parent."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, **args) -> None:
        self.span.set(**args)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.finish(self.span.span_id)


class _SpanView(Sequence):
    """``tracer.spans``: every recorded span in id order, read-only."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._name)

    def __iter__(self):
        return (Span(self._tracer, span_id) for span_id in range(1, len(self) + 1))

    def __getitem__(self, index):
        ids = range(1, len(self) + 1)[index]
        if isinstance(index, slice):
            return [Span(self._tracer, span_id) for span_id in ids]
        return Span(self._tracer, ids)


class Tracer:
    """Collects spans and instant events against a simulator's clock.

    Spans are rows of six columns indexed by ``span_id - 1``, so however
    many a long run records, none of them is an object the garbage
    collector has to walk (an ``args`` dict of scalars is not tracked).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._name: list[str] = []
        self._cat: list[str] = []
        self._args: list[dict] = []
        self._start = array("d")
        self._end = array("d")  # NaN while open
        self._parent = array("q")  # 0 = no parent
        self.spans = _SpanView(self)
        #: (time, name, cat, parent_id, args) instant events.
        self.instants: list[tuple[float, str, str, int | None, dict]] = []
        #: Id of the innermost open span of the running process (0: none).
        #: The kernel saves and restores it around every process step.
        self._current = 0

    # -- recording ---------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span of the currently-running process."""
        return Span(self, self._current) if self._current else None

    def span(self, name: str, cat: str = "sim", **args) -> _SpanHandle:
        """Open a span as a context manager (closed on ``__exit__``)."""
        return _SpanHandle(self, Span(self, self.begin(name, cat=cat, **args)))

    def begin(self, name: str, cat: str = "sim", **args) -> int:
        """Open a span explicitly and return its id; pair with :meth:`finish`."""
        self._name.append(name)
        self._cat.append(cat)
        self._args.append(args)
        self._start.append(self.sim.now)
        self._end.append(_OPEN)
        self._parent.append(self._current)
        span_id = self._current = len(self._name)
        return span_id

    def finish(self, span_id: int, **args) -> None:
        """Close the span ``begin`` returned ``span_id`` for, at the current
        simulated time."""
        row = span_id - 1
        if args:
            self._args[row].update(args)
        end = self._end
        if end[row] != end[row]:
            end[row] = self.sim.now
        if self._current == span_id:
            self._current = self._parent[row]

    def instant(self, name: str, cat: str = "sim", **args) -> None:
        """Record a point event (WAL commit, retry, crash point, ...)."""
        self.instants.append((self.sim.now, name, cat, self._current or None, args))

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in open order."""
        return [Span(self, i) for i, n in enumerate(self._name, 1) if n == name]

    def ancestors(self, span: Span) -> list[Span]:
        """Parent chain, innermost first."""
        chain = []
        parent = self._parent[span.span_id - 1]
        while parent:
            chain.append(Span(self, parent))
            parent = self._parent[parent - 1]
        return chain

    def path(self, span: Span) -> str:
        """Root-to-span names joined with '/'."""
        names = [a.name for a in reversed(self.ancestors(span))] + [span.name]
        return "/".join(names)

    def _effective_ends(self) -> list[float]:
        """Per-row end times, open spans rendered as ending now (not recorded)."""
        horizon = self.sim.now
        return [e if e == e else max(horizon, s) for s, e in zip(self._start, self._end)]

    # -- Chrome trace_event export ----------------------------------------

    def chrome_trace(self, pid: int = 1, process_name: str | None = None) -> dict:
        """The trace as a Chrome ``trace_event`` object (``traceEvents``).

        Still-open spans are *rendered* as closed at the current simulated
        time and marked ``"truncated": true`` — the recorded rows are not
        mutated, so exporting mid-run is side-effect free and a later
        ``finish()`` still records the real end.  Spans are packed onto
        synthetic ``tid`` tracks so each track's ``B``/``E`` stream is
        balanced and properly nested: a span goes on its parent's track
        when the parent's interval still contains it, otherwise onto the
        first track whose innermost open interval does (or a fresh track).
        """
        # Everything below works on rows (``span_id - 1``).
        names, cats, start, parents = self._name, self._cat, self._start, self._parent
        end_of = self._effective_ends()
        ordered = sorted(range(len(names)), key=lambda r: (start[r], -end_of[r], r))

        tracks: list[list[int]] = []  # per-track stack of open rows
        forest: dict[int, list[int]] = {}  # track -> root rows
        children: dict[int, list[int]] = {}  # row -> nested rows
        placed: dict[int, int] = {}  # row -> track index

        def fits(track: list[int], row: int) -> bool:
            # A zero-duration span sitting exactly at the innermost open
            # span's end stays nested inside it (popping on `<=` used to
            # evict the parent and strand the instant-like span on the
            # track's root level).
            s_start, s_end = start[row], end_of[row]
            while track and (
                end_of[track[-1]] < s_start
                or (end_of[track[-1]] == s_start and s_end > s_start)
            ):
                track.pop()
            return not track or (
                start[track[-1]] <= s_start and s_end <= end_of[track[-1]]
            )

        for row in ordered:
            tid = None
            parent_tid = placed.get(parents[row] - 1)
            if parent_tid is not None and fits(tracks[parent_tid], row):
                tid = parent_tid
            else:
                for i, track in enumerate(tracks):
                    if fits(track, row):
                        tid = i
                        break
                if tid is None:
                    tid = len(tracks)
                    tracks.append([])
                    forest[tid] = []
            stack = tracks[tid]
            if stack:
                children.setdefault(stack[-1], []).append(row)
            else:
                forest.setdefault(tid, []).append(row)
            stack.append(row)
            placed[row] = tid

        events: list[dict] = []
        if process_name is not None:
            events.append(
                {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                 "args": {"name": process_name}}
            )
        for tid in sorted(forest):
            events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                 "args": {"name": f"track-{tid}"}}
            )

        def emit(row: int, tid: int) -> None:
            args = {"span_id": row + 1}
            if parents[row]:
                args["parent_id"] = parents[row]
            if self._end[row] != self._end[row]:
                args["truncated"] = True
            args.update(_jsonable(self._args[row]))
            events.append(
                {"name": names[row], "cat": cats[row], "ph": "B", "ts": start[row] * _US,
                 "pid": pid, "tid": tid, "args": args}
            )
            for child in children.get(row, []):
                emit(child, tid)
            events.append(
                {"name": names[row], "cat": cats[row], "ph": "E",
                 "ts": end_of[row] * _US, "pid": pid, "tid": tid}
            )

        for tid in sorted(forest):
            for root in forest[tid]:
                emit(root, tid)

        for when, name, cat, parent_id, args in self.instants:
            tid = placed.get(parent_id - 1, 0) if parent_id is not None else 0
            events.append(
                {"name": name, "cat": cat, "ph": "i", "ts": when * _US,
                 "pid": pid, "tid": tid, "s": "t", "args": _jsonable(args)}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, **kwargs) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(**kwargs), fh)

    # -- flamegraph-style text summary ------------------------------------

    def text_summary(self, min_seconds: float = 0.0) -> str:
        """Aggregate spans by path: count, total and self time per path."""
        totals: dict[str, list[float]] = {}  # path -> [count, total, child_total]
        paths = [""]  # by span id; a parent's id is always below its child's
        rows = zip(self._name, self._parent, self._start, self._effective_ends())
        for name, parent, start, end in rows:
            parent_path = paths[parent]
            path = f"{parent_path};{name}" if parent_path else name
            paths.append(path)
            dur = max(0.0, end - start)
            agg = totals.setdefault(path, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            if parent_path:
                totals[parent_path][2] += dur
        lines = [f"{'count':>8s}  {'total_s':>12s}  {'self_s':>12s}  path"]
        for path in sorted(totals, key=lambda p: (-totals[p][1], p)):
            count, total, child_total = totals[path]
            if total < min_seconds:
                continue
            self_time = max(0.0, total - child_total)
            lines.append(f"{count:8d}  {total:12.6f}  {self_time:12.6f}  {path}")
        return "\n".join(lines)


def traced(sim, gen, name: str, cat: str = "sim", metrics=None, **args):
    """Drive generator ``gen`` to completion inside a span.

    The zero-cost-when-disabled wrapper for simulation processes: with no
    tracer installed this is a bare ``yield from``.  Used by the stores to
    wrap whole Put/Get/Query processes without restructuring them.

    ``metrics`` (a :class:`~repro.cluster.metrics.QueryMetrics`) gets the
    span's id stamped as ``trace_id``, linking the recorded metrics — and
    any histogram exemplars derived from them — back to the trace.
    """
    tracer = sim.tracer
    if tracer is None:
        value = yield from gen
        return value
    span_id = tracer.begin(name, cat=cat, **args)
    if metrics is not None:
        metrics.trace_id = span_id
    try:
        value = yield from gen
        return value
    finally:
        tracer.finish(span_id)


def _jsonable(args: dict) -> dict:
    """Span args coerced to JSON-safe values (tuples become strings)."""
    out = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out
