"""Self-test of the benchmark itself.

Not part of the tier-1 suite (``testpaths`` stays ``tests/``); run it with::

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from hostclock import NOMINAL_KERNEL_S, HostClock  # noqa: E402
from tracer import Target, Tracer, aggregate, nesting_errors, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_names_units_directions_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload, "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_emits_every_declared_metric_and_nothing_else():
    clock = HostClock()
    clock.calibrate()
    began = time.perf_counter()
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == 0:
                assert all(v["value"] != 0 for v in result["metrics"].values())
    # 15 s on a host at nominal speed; a slow phase of the sandbox stretches it.
    elapsed = time.perf_counter() - began
    clock.calibrate()
    assert elapsed / max(1.0, max(clock.readings) / NOMINAL_KERNEL_S) < 15.0


def _span(name, start, end, parent, layer="x"):
    return [name, layer, start, end, parent, None, 0, 0]


def test_self_time_is_duration_minus_direct_children():
    #  root 0..10
    #    a 1..5      (child b 2..3, child c 3..4.5)
    #    d 6..9      (child e 6..9, grandchild f 7..8)
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 3.0, 4.5, 1),
        _span("d", 6.0, 9.0, 0),
        _span("e", 6.0, 9.0, 4),
        _span("f", 7.0, 8.0, 5),
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 1.5, 1.0, 1.5, 0.0, 2.0, 1.0])
    assert sum(own) == pytest.approx(10.0)  # self times tile the root exactly
    assert nesting_errors(spans) == 0
    stats = aggregate(spans + [_span("b", 9.2, 9.7, 0)])
    assert stats["x.b"].calls == 2 and stats["x.b"].busy_s == pytest.approx(1.5)


def test_nesting_errors_catch_escaping_and_overlapping_spans():
    escaping = [_span("root", 0.0, 5.0, -1), _span("a", 4.0, 6.0, 0)]
    overlapping = [_span("root", 0.0, 5.0, -1), _span("a", 1.0, 3.0, 0), _span("b", 2.0, 4.0, 0)]
    assert nesting_errors(escaping) == 1
    assert nesting_errors(overlapping) == 1


def test_tracer_wraps_every_import_site_and_restores_them():
    import repro.core.store as store_module
    import repro.sql as sql

    original = sql.eval_leaf
    tracer = Tracer([Target("sql", "eval_leaf", lambda: sql, "eval_leaf")])
    tracer.install()
    try:
        assert sql.eval_leaf is not original
        assert store_module.eval_leaf is sql.eval_leaf  # the `from x import f` site is rebound too
    finally:
        tracer.remove()
    assert sql.eval_leaf is original and store_module.eval_leaf is original
    assert [s[0] for s in tracer.spans] == ["root"] and nesting_errors(tracer.spans) == 0


def test_unresolved_target_is_reported_not_raised():
    import repro.sql as sql

    tracer = Tracer([Target("sql", "moved_away", lambda: sql, "no_such_function")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
        tracer.remove()
    assert tracer.unresolved == {"sql.moved_away"}
    assert any("sql.moved_away" in str(w.message) for w in caught)
