"""Outside-in tracer: the benchmark wraps each layer's public entry points.

Nothing under ``src/`` is edited.  For every :class:`Target` the tracer
resolves the function through the package's public export and rebinds, by
object identity, every ``repro.*`` module attribute and class attribute that
holds it, so ``from x import f`` call sites are caught too.  Spans stay in
memory; :func:`self_times` turns the span tree into per-span self time
(duration minus the part its direct children cover).  A target that cannot
be resolved is reported in :attr:`Tracer.unresolved` and warned about; the
metrics that depend on it come out as ``null`` rather than crashing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hostclock import HostClock, now

#: Column order of one span row, in memory and in the span JSON file.
SPAN_COLUMNS = ("name", "layer", "start", "end", "parent", "op", "in_bytes", "out_bytes")
_NAME, _LAYER, _START, _END, _PARENT = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap."""

    layer: str
    name: str
    owner: Callable[[], object]  # the package module or class exporting it
    attr: str
    #: Too hot for spans (kernel primitives): only the calls are counted.
    count_only: bool = False
    #: ``Simulator.run`` called from a store's run-the-sim convenience
    #: method (put/get/repair_node) is part of that call, not a span of
    #: its own; only top-level runs (the concurrent drivers) get a span.
    inline_under_core: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


def _package(name: str) -> Callable[[], object]:
    return lambda: importlib.import_module(name)


def _class(package: str, cls: str) -> Callable[[], object]:
    return lambda: getattr(importlib.import_module(package), cls)


def _codec_class(codec: str) -> Callable[[], object]:
    return lambda: type(importlib.import_module("repro.format").get_codec(codec))


def default_targets() -> list[Target]:
    """The entry points named in the README's layer table."""
    targets = [
        Target("format", "write_table", _package("repro.format"), "write_table"),
        Target("format", "encode_column_chunk", _package("repro.format"), "encode_column_chunk"),
        Target("format", "decode_column_chunk", _package("repro.format"), "decode_column_chunk"),
        Target("ec", "encode_stripe", _package("repro.ec"), "encode_stripe"),
        Target("ec", "decode_stripe", _package("repro.ec"), "decode_stripe"),
        Target("core", "construct_stripes", _package("repro.core"), "construct_stripes"),
        Target("core", "repair_node", _class("repro.core", "RepairManager"), "repair_node"),
        Target("sql", "parse", _package("repro.sql"), "parse"),
        Target("sql", "plan", _package("repro.sql"), "plan"),
        Target("sql", "eval_leaf", _package("repro.sql"), "eval_leaf"),
        Target("sql", "to_wire", _class("repro.sql", "Bitmap"), "to_wire"),
        Target("cluster", "run", _class("repro.cluster", "Simulator"), "run", inline_under_core=True),
        Target("bench", "calibrate", lambda: HostClock, "calibrate"),
    ]
    for store in ("FusionStore", "BaselineStore"):
        for method in ("put", "get"):
            targets.append(Target("core", method, _class("repro.core", store), method))
    for primitive in ("timeout", "event", "process"):
        targets.append(
            Target("cluster", primitive, _class("repro.cluster", "Simulator"), primitive, count_only=True)
        )
    try:
        codecs = importlib.import_module("repro.format").codec_names()
    except (ImportError, AttributeError) as exc:
        warnings.warn(f"perf tracer: codec list unavailable ({exc}); codecs not traced")
        codecs = []
    for codec in codecs:
        for method in ("compress", "decompress"):
            targets.append(Target("format", f"{method}.{codec}", _codec_class(codec), method))
    return targets


def _size(obj) -> int:
    """Payload bytes of an argument or result; 0 for anything unsized."""
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (memoryview, np.ndarray)):
        return obj.nbytes
    if isinstance(obj, (list, tuple)) and len(obj) <= 64:
        return sum(
            len(x) if isinstance(x, (bytes, bytearray)) else x.nbytes
            for x in obj
            if isinstance(x, (bytes, bytearray, memoryview, np.ndarray))
        )
    return 0


_HERE = os.path.dirname(os.path.abspath(__file__))


def _repro_sites(function) -> list[tuple[object, str]]:
    """Every module global and class attribute that *is* ``function``, in
    repro.* and in the benchmark's own modules (they import the same names)."""
    sites = []
    for mod_name, module in list(sys.modules.items()):
        ours = os.path.dirname(getattr(module, "__file__", None) or "") == _HERE
        if not (ours or mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                sites.append((module, name))
            elif isinstance(value, type) and value.__module__ == mod_name:
                sites.extend((value, n) for n, v in list(vars(value).items()) if v is function)
    return sites


class Tracer:
    """Installs the wrappers, records spans and counts, removes the wrappers."""

    def __init__(self, targets: list[Target] | None = None) -> None:
        self.targets = default_targets() if targets is None else targets
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unresolved: set[str] = set()
        #: Operation id stamped on spans (serial workloads set it per op;
        #: inside a concurrent ``Simulator.run`` it stays ``None``).
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target and open the root span."""
        for target in self.targets:
            try:
                owner = target.owner()
                original = getattr(owner, target.attr)
            except (ImportError, AttributeError, KeyError) as exc:
                warnings.warn(f"perf tracer: cannot resolve {target.key} ({exc}); metric is null")
                self.unresolved.add(target.key)
                continue
            wrapper = self._counter(target, original) if target.count_only else self._spanner(target, original)
            if isinstance(owner, type):
                sites = [(owner, target.attr)]
            else:
                sites = _repro_sites(original) or [(owner, target.attr)]
            for site, attr in sites:
                own = attr in vars(site)
                self._patched.append((site, attr, original, own))
                setattr(site, attr, wrapper)
        self._open("root", "bench")

    def remove(self) -> None:
        """Close the root span and restore every patched attribute."""
        self.spans[self._stack.pop()][_END] = now()
        for site, attr, original, own in reversed(self._patched):
            if own:
                setattr(site, attr, original)
            else:
                delattr(site, attr)
        self._patched.clear()

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        """Start a span under the innermost open one."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, now(), 0.0, parent, self.op, 0, 0])
        self._stack.append(index)
        return index

    def _spanner(self, target: Target, original):
        spans, stack = self.spans, self._stack
        name, layer, inline = target.name, target.layer, target.inline_under_core

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if inline and stack and spans[stack[-1]][_LAYER] == "core":
                return original(*args, **kwargs)
            index = self._open(name, layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                # Stamp the end before sizing, so sizing costs the parent
                # (as tracing overhead) and not this span.
                span = spans[index]
                span[_END] = now()
                stack.pop()
                span[6] = sum(_size(a) for a in args)
                span[7] = _size(result)

        return wrapper

    def _counter(self, target: Target, original):
        counts, key = self.counts, target.key

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def to_json(self, **header) -> dict:
        """The span file: a header plus one row per span (see SPAN_COLUMNS)."""
        return {
            **header,
            "columns": list(SPAN_COLUMNS),
            "unresolved": sorted(self.unresolved),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


# -- span-tree arithmetic ------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the duration of direct children.

    Because spans are well nested (one host thread), the self times of a
    tree sum to the duration of its root exactly.
    """
    own = [span[_END] - span[_START] for span in spans]
    for span in spans:
        if span[_PARENT] >= 0:
            own[span[_PARENT]] -= span[_END] - span[_START]
    return own


def nesting_errors(spans: list[list]) -> int:
    """Spans that leave their parent's interval or overlap an elder sibling."""
    errors = 0
    last_child_end: dict[int, float] = {}
    for span in spans:
        parent = span[_PARENT]
        if span[_END] < span[_START]:
            errors += 1
        if parent < 0:
            continue
        outer = spans[parent]
        if span[_START] < outer[_START] or span[_END] > outer[_END]:
            errors += 1
        if span[_START] < last_child_end.get(parent, outer[_START]):
            errors += 1
        last_child_end[parent] = span[_END]
    return errors


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    in_bytes: int = 0
    out_bytes: int = 0


def aggregate(spans: list[list]) -> dict[str, SpanStats]:
    """Totals per ``layer.name``; ``busy_s`` is inclusive, ``self_s`` is not."""
    out: dict[str, SpanStats] = {}
    for span, own in zip(spans, self_times(spans)):
        stats = out.setdefault(f"{span[_LAYER]}.{span[_NAME]}", SpanStats())
        stats.calls += 1
        stats.busy_s += span[_END] - span[_START]
        stats.self_s += own
        stats.in_bytes += span[6]
        stats.out_bytes += span[7]
    return out
