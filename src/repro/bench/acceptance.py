"""Acceptance planes: one scenario, its checks and floors, one runner.

A plane is a scenario from :mod:`repro.bench.experiments` whose
``raw`` maps each system it ran to a JSON-ready dict, a
``check(system_raw) -> {name: bool}``, and the named floors those checks
hold it to.  Usage::

    python -m repro.bench bench list
    python -m repro.bench bench <plane>|all
    python -m repro.bench bench summary [DIR]

``bench <plane>`` runs the scenario, prints its table and each system's
verdict with its failed checks, writes ``BENCH_<plane>.json``
(:mod:`repro.bench.envelope`) in the working directory, and exits 1 on
a floor violation.  ``bench summary`` aggregates every ``BENCH_*.json``
in ``DIR`` (default: the working directory) into ``BENCH_SUMMARY.json``
and exits 1 if any report failed.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench import experiments as ex
from repro.bench import scorecard
from repro.bench.envelope import load_bench_report, write_bench_report
from repro.bench.experiments import ExperimentResult


@dataclass(frozen=True)
class Plane:
    """A scenario, the check applied to each system's ``raw`` entry, and
    the named floors those checks hold it to (recorded in the report)."""

    scenario: Callable[[], ExperimentResult]
    check: Callable[[dict], dict[str, bool]]
    floors: dict


def _fault_tolerance(raw: dict) -> dict[str, bool]:
    repair = raw["repair"]
    return {
        "availability": raw["availability"] == 1.0,
        "results_identical_to_no_fault": raw["results_identical_to_no_fault"],
        "scrub_clean_after_repair": repair["scrub_clean_after_repair"],
        "placements_all_on_live_nodes": repair["placements_all_on_live_nodes"],
        "no_post_repair_degraded_reads": repair["post_repair_degraded_reads"] == 0,
        "post_repair_results_match_oracle": repair["post_repair_results_match_oracle"],
    }


def _membership(raw: dict) -> dict[str, bool]:
    rebalance = raw["rebalance"]
    return {
        "availability": raw["availability"] == 1.0,
        "results_identical_to_churn_free": raw["results_identical_to_churn_free"],
        "ring_converged": rebalance["ring_converged"],
        "convergence_bounded": rebalance["convergence_bounded"],
        "drained_node_empty": rebalance["drained_node_empty"],
        "fsck_clean_after_remove": rebalance["fsck_clean_after_remove"],
        "rebalance_bytes_accounted": rebalance["rebalance_bytes"] > 0,
        "no_repair_bytes": rebalance["repair_bytes"] == 0,
    }


def _metadata_chaos(raw: dict) -> dict[str, bool]:
    return {
        "every_round_fsck_clean": raw["clean_rounds"] == raw["rounds"],
        "gets_identical": raw["gets_identical"],
        "no_lost_objects": raw["lost_objects"] == 0,
    }


ADMISSION_DEPTH = 16  # what the overload experiment's protected config uses
GOODPUT_FLOOR = 0.7
GROWTH_TOLERANCE = 0.9  # a quarter may dip 10% and still count as growing


def _mean_depth(samples, lo: float, hi: float, duration: float) -> float:
    vals = [d for t, d in samples if lo * duration <= t < hi * duration]
    return sum(vals) / len(vals) if vals else 0.0


def _overload(raw: dict) -> dict[str, bool]:
    off, on = raw["off"], raw["on"]
    q, samples, duration = off["quarter_p99"], off["depth_samples"], off["duration_s"]
    return {
        "off_p99_growing_by_quarter": all(
            q[i + 1] >= q[i] * GROWTH_TOLERANCE for i in range(3)
        )
        and q[3] > 1.5 * q[0],
        "off_queue_depth_growing": _mean_depth(samples, 0.75, 1.0, duration)
        > _mean_depth(samples, 0.0, 0.25, duration),
        "off_queue_depth_unbounded": off["max_depth"] > 2 * ADMISSION_DEPTH,
        "off_no_failures": off["counts"]["controlled"] == 0,
        "on_all_arrivals_accounted": sum(on["counts"].values()) == raw["arrivals"],
        "on_queue_depth_bounded": on["max_depth"] <= ADMISSION_DEPTH,
        "on_p99_within_deadline": raw["on_p99"] <= raw["deadline_s"] * 1.2,
        "on_goodput_at_least_70pct_of_capacity": raw["goodput_frac"] >= GOODPUT_FLOOR,
    }


B_GOODPUT_FLOOR = 0.8  # of B's isolated-run goodput
SYMMETRY_FLOOR = 0.9  # min/max goodput ratio for equal-weight tenants


def _qos(raw: dict) -> dict[str, bool]:
    storm_a, storm_b = raw["storm"]["A"], raw["storm"]["B"]
    iso_b = raw["isolated"]["B"]
    return {
        "storm_b_p99_within_deadline": storm_b["p99"] <= raw["deadline_s"],
        "storm_b_goodput_at_least_80pct_of_isolated": iso_b["goodput_qps"] > 0
        and storm_b["goodput_qps"] >= B_GOODPUT_FLOOR * iso_b["goodput_qps"],
        "storm_b_refused_nothing": storm_b["controlled"] == 0,
        "storm_a_absorbs_typed_refusals": storm_a["controlled"] > 0,
        "storm_a_all_arrivals_accounted": storm_a["issued"] == raw["arrivals"],
        "storm_a_quota_refusals_typed": raw["qos_stats"].get("A", {}).get(
            "quota_rejected", 0
        )
        > 0,
        "symmetric_tenants_within_10pct": raw["symmetric_ratio"] >= SYMMETRY_FLOOR,
    }


#: Each check's name states its floor, so the floors are the names.
PARTITION_CHECKS: dict[str, Callable[[dict, dict], bool]] = {
    "wrong_reads == 0": lambda g, p: g["wrong_reads"] + p["wrong_reads"] == 0,
    "split_brain_epoch_installs == 0": lambda g, p: p["split_brain_epoch_installs"] == 0,
    "every republish reached quorum or raised QuorumLost": lambda g, p: (
        p["republish_succeeded"] + p["republish_quorum_lost"] == p["objects"]
    ),
    "quorum_lost raised at least once": lambda g, p: p["republish_quorum_lost"] >= 1,
    "majority availability >= 0.9": lambda g, p: p["majority_availability"] >= 0.9,
    "fail-slow victim greylisted": lambda g, p: g["victim_greylisted"],
    "p99 with detection <= 2x healthy": lambda g, p: g["p99_ratio_detection_on"] <= 2.0,
    "p99 without detection >= 10x healthy": lambda g, p: (
        g["p99_ratio_detection_off"] >= 10.0
    ),
    "post-heal fsck clean": lambda g, p: p["post_heal_fsck_clean"],
    "post-heal epochs converged": lambda g, p: p["post_heal_epochs_converged"],
    "read_repair_bytes > 0": lambda g, p: p["read_repair_bytes"] > 0,
}


def _partition(raw: dict) -> dict[str, bool]:
    return {
        name: bool(check(raw["gray_tail"], raw["partition"]))
        for name, check in PARTITION_CHECKS.items()
    }


QUEUE_WAIT_FLOOR = 0.8  # of the affected queries' added latency


def _obs(raw: dict) -> dict[str, bool]:
    delay = raw["alert_delay_s"]
    exemplar = raw["exemplar"]
    return {
        "storm_produced_over_threshold_completions": raw["first_bad_completion_s"]
        is not None,
        "p99_alert_fired": raw["alert_time_s"] is not None,
        "alert_within_scrape_intervals": delay is not None
        and delay <= raw["alert_bound_s"] + 1e-9,
        "affected_query_spans_found": raw["affected_queries"] > 0,
        "queue_wait_share_at_least_floor": raw["queue_wait_share_of_added"]
        >= QUEUE_WAIT_FLOOR,
        "p99_exemplar_resolves_to_exported_query_span": exemplar.get("span_name")
        == "query"
        and bool(exemplar.get("in_exported_trace")),
    }


#: Committed speedup floors (scalar-reference time / vectorised time),
#: ~25% or more under the ratios measured when they were set (roughly
#: 22x snappy, 14x RLE, 1.6x string plain, 5x / 10x / 4x RS encode /
#: 1-loss / 3-loss rebuild), so scheduler noise passes but a vectorised
#: path silently falling back to its scalar loop fails.
DATAPLANE_FLOORS = {
    "snappy_roundtrip": 5.0,
    "rle_roundtrip": 5.0,
    "string_plain_roundtrip": 1.2,
    "rs_encode": 2.0,
    "rs_rebuild_1loss": 5.0,
    "rs_rebuild_3loss": 2.0,
}


def _dataplane(raw: dict) -> dict[str, bool]:
    rs = raw["reed_solomon"]
    speedups = {
        name: raw[name]["speedup"]
        for name in ("snappy_roundtrip", "rle_roundtrip", "string_plain_roundtrip")
    }
    for op in ("encode", "rebuild_1loss", "rebuild_3loss"):
        speedups[f"rs_{op}"] = rs[f"{op}_speedup"]
    return {
        f"{name}_speedup": speedups[name] >= floor
        for name, floor in DATAPLANE_FLOORS.items()
    }


PLANES: dict[str, Plane] = {
    "dataplane": Plane(
        ex.dataplane_components,
        _dataplane,
        {f"{name}_speedup": floor for name, floor in DATAPLANE_FLOORS.items()},
    ),
    "fault_tolerance": Plane(
        ex.chaos_fault_tolerance,
        _fault_tolerance,
        {"availability": 1.0, "crash_fraction_of_no_fault_run": ex.CRASH_FRACTION},
    ),
    "membership": Plane(
        ex.membership_chaos,
        _membership,
        {
            "availability": 1.0,
            "convergence_bound_x_transfer_floor": ex.CONVERGENCE_BOUND,
        },
    ),
    "metadata_chaos": Plane(
        ex.metadata_chaos, _metadata_chaos, {"clean_rounds": 10, "lost_objects": 0}
    ),
    "obs_overhead": Plane(
        ex.obs_chaos,
        _obs,
        {
            "alert_within_scrape_intervals": ex.ALERT_WITHIN_INTERVALS,
            "queue_wait_share_floor": QUEUE_WAIT_FLOOR,
        },
    ),
    "overload": Plane(
        ex.overload_protection,
        _overload,
        {"goodput_floor": GOODPUT_FLOOR, "admission_queue_depth": ADMISSION_DEPTH},
    ),
    "paper": Plane(scorecard.scorecard, scorecard.check, scorecard.FLOORS),
    "partition": Plane(
        ex.partition_tolerance, _partition, dict.fromkeys(PARTITION_CHECKS, True)
    ),
    "qos": Plane(
        ex.tenant_qos,
        _qos,
        {"b_goodput_floor": B_GOODPUT_FLOOR, "symmetry_floor": SYMMETRY_FLOOR},
    ),
}


def run_plane(name: str) -> bool:
    """Run one plane, print its verdicts, write ``BENCH_<name>.json``."""
    plane = PLANES[name]
    start = time.perf_counter()
    result = plane.scenario()
    result.show()
    systems = {}
    for system, raw in result.raw.items():
        checks = plane.check(raw)
        failed = [check for check, ok in checks.items() if not ok]
        systems[system] = {**raw, "checks": checks}
        print(f"{system}: {'FAIL' if failed else 'PASS'}")
        for check in failed:
            print(f"  FAILED check: {check}")
    passed = all(all(s["checks"].values()) for s in systems.values())
    path = f"BENCH_{name}.json"
    write_bench_report(
        path,
        benchmark=name,
        wall_seconds=time.perf_counter() - start,
        passed=passed,
        floors=plane.floors,
        detail={**result.to_dict(), "systems": systems},
    )
    print(f"wrote {path}")
    return passed


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


def _summary(directory: str) -> int:
    summary = summarize(directory)
    if not summary["benchmarks"]:
        print(f"no BENCH_*.json found in {directory}", file=sys.stderr)
        return 1
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
    out_path = os.path.join(directory, SUMMARY_NAME)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if summary["failed"] == 0 else 1


def main(argv: list[str]) -> int:
    """``bench`` subcommand of ``python -m repro.bench``."""
    target = argv[0] if argv else "list"
    if target == "list":
        for name, plane in PLANES.items():
            doc = (plane.scenario.__doc__ or "").strip().splitlines()[0]
            print(f"{name:16s} {doc}")
        return 0
    if target == "summary":
        return _summary(argv[1] if len(argv) > 1 else ".")
    if target != "all" and target not in PLANES:
        print(f"unknown plane {target!r}; try 'bench list'", file=sys.stderr)
        return 1
    names = list(PLANES) if target == "all" else [target]
    verdicts = [run_plane(name) for name in names]
    return 0 if all(verdicts) else 1
