"""Aggregate BENCH_*.json acceptance reports into one summary table.

Every benchmark under ``benchmarks/*_bench.py`` writes its result
through :mod:`repro.bench.envelope`, so the files share a top level
(``benchmark``, ``wall_seconds``, ``acceptance.pass``,
``acceptance.floors``).

Usage::

    PYTHONPATH=src python benchmarks/bench_summary.py [DIR] [--out PATH]

Scans ``DIR`` (default: the repository root) for ``BENCH_*.json``,
prints a verdict table, writes ``BENCH_SUMMARY.json`` (or ``--out``),
and exits nonzero if any benchmark failed.
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.bench.envelope import load_bench_report  # noqa: E402

SUMMARY_NAME = "BENCH_SUMMARY.json"


def summarize(directory: str) -> dict:
    """Load every BENCH_*.json in ``directory`` into one summary doc."""
    rows = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        if os.path.basename(path) == SUMMARY_NAME:
            continue
        doc = load_bench_report(path)
        rows.append(
            {
                "file": os.path.basename(path),
                "benchmark": doc["benchmark"],
                "schema": doc["schema"],
                "wall_seconds": doc["wall_seconds"],
                "pass": doc["acceptance"]["pass"],
                "floors": doc["acceptance"]["floors"],
            }
        )
    verdicts = [row["pass"] for row in rows]
    return {
        "benchmarks": rows,
        "total": len(rows),
        "passed": sum(verdicts),
        "failed": len(verdicts) - sum(verdicts),
        "all_pass": bool(rows) and all(verdicts),
    }


def main(argv: list[str]) -> int:
    out_path = None
    if "--out" in argv:
        at = argv.index("--out")
        if at + 1 >= len(argv):
            print("--out needs a path", file=sys.stderr)
            return 2
        out_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    directory = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."
    )
    summary = summarize(directory)
    if not summary["benchmarks"]:
        print(f"no BENCH_*.json found in {directory}", file=sys.stderr)
        return 2

    width = max(len(row["benchmark"]) for row in summary["benchmarks"])
    print(f"{'benchmark':{width}s}  verdict  wall(s)  floors")
    for row in summary["benchmarks"]:
        floors = ", ".join(f"{k}={v}" for k, v in sorted(row["floors"].items()))
        print(
            f"{row['benchmark']:{width}s}  "
            f"{'PASS' if row['pass'] else 'FAIL':7s}  "
            f"{row['wall_seconds']:7.1f}  "
            f"{floors or '-'}"
        )
    print(f"{summary['passed']}/{summary['total']} passed, {summary['failed']} failed")

    if out_path is None:
        out_path = os.path.join(directory, SUMMARY_NAME)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
