"""Shared envelope schema for the acceptance benchmarks' BENCH_*.json.

Every plane of ``python -m repro.bench bench`` (:mod:`repro.bench.acceptance`)
writes its report in this envelope, so CI and ``bench summary`` can
aggregate them without per-plane knowledge::

    {
      "schema": "bench-envelope/v1",
      "benchmark": "<name>",
      "wall_seconds": <host seconds the benchmark took>,
      "acceptance": {
        "pass": true|false,
        "floors": { "<threshold name>": <value>, ... }
      },
      "detail": { ...the plane's table and, per system, its raw
                  numbers and named check verdicts... }
    }

``floors`` documents the named thresholds the pass/fail verdict was
computed against (speedup floors, goodput fractions, alert bounds);
the per-check evidence stays inside ``detail``.
"""

from __future__ import annotations

import json

SCHEMA = "bench-envelope/v1"


def bench_report(
    benchmark: str,
    wall_seconds: float,
    passed: bool,
    floors: dict,
    detail: dict,
) -> dict:
    """The envelope document for one benchmark run."""
    return {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "wall_seconds": wall_seconds,
        "acceptance": {"pass": bool(passed), "floors": dict(floors)},
        "detail": detail,
    }


def write_bench_report(
    path: str,
    benchmark: str,
    wall_seconds: float,
    passed: bool,
    floors: dict,
    detail: dict,
) -> dict:
    """Write the envelope as deterministic JSON; returns the document."""
    doc = bench_report(benchmark, wall_seconds, passed, floors, detail)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_bench_report(path: str) -> dict:
    """Read one BENCH_*.json; raises ``ValueError`` naming ``path`` when
    the document is not an envelope."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} report")
    return doc


__all__ = ["SCHEMA", "bench_report", "load_bench_report", "write_bench_report"]
