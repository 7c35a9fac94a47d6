"""Chaos benchmark: mid-workload node crash, degraded service, repair.

Drives the interleaved TPC-H Q1 + taxi Q3 workload through Fusion and
the baseline while a scripted :class:`FaultInjector` crashes a
data-holding node ~30% into the run, then repairs the damage with the
:class:`RepairManager` and re-scrubs.  Writes
``BENCH_fault_tolerance.json`` with availability, retry/hedge counts,
degraded-read counts, repair bytes, time-to-repair and the latency
penalty for both systems.

Acceptance (exit 1 on failure): every query completes (availability
1.0), faulted results are bit-identical to a no-fault run, the
post-repair scrub is clean, every placement points at a live node, and
post-repair queries need zero degraded reads.

Run from the repo root::

    PYTHONPATH=src python benchmarks/fault_tolerance_bench.py [output.json]
"""

from __future__ import annotations

import json
import sys
import time

from repro.bench.experiments import dataset, dataset_scale
from repro.bench.envelope import write_bench_report
from repro.bench.harness import WorkloadStats, build_system, run_workload
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.cluster.metrics import QueryMetrics
from repro.core.config import StoreConfig
from repro.core.repair import RepairManager
from repro.workloads import real_world_queries

NUM_CLIENTS = 10
NUM_QUERIES = 40
CRASH_FRACTION = 0.3  # of the no-fault run's wall-clock
FAULT_SEED = 7


def _workload_sqls() -> dict[str, str]:
    _ldata, ltable = dataset("lineitem")
    _tdata, ttable = dataset("taxi")
    queries = {q.name: q for q in real_world_queries(ltable, ttable)}
    return {"tpch_q1": queries["Q1"].sql, "taxi_q3": queries["Q3"].sql}


def _build(kind: str):
    ldata, _lt = dataset("lineitem")
    tdata, _tt = dataset("taxi")
    cfg = StoreConfig(size_scale=dataset_scale("lineitem"))
    return build_system(kind, {"lineitem": ldata, "taxi": tdata}, store_config=cfg)


def _victim(system) -> int:
    return next(n.node_id for n in system.cluster.nodes if n.stored_bytes)


def _run(kind: str, crash_after_s: float | None, clients: int, queries: int):
    """One workload run; ``crash_after_s`` schedules a flaky window and
    then a crash that far into it (None = fault-free).  Returns
    (stats, system, victim or None)."""
    system = _build(kind)
    victim = None
    if crash_after_s is not None:
        victim = _victim(system)
        now = system.sim.now
        schedule = [
            # The link gets flaky first (exercises timeout + retry), then
            # the node dies outright (exercises fallback + degraded reads).
            FaultEvent(
                at=now + 0.2 * crash_after_s,
                kind="drop",
                node_id=victim,
                duration=0.6 * crash_after_s,
                rate=0.25,
            ),
            FaultEvent(at=now + crash_after_s, kind="crash", node_id=victim),
        ]
        FaultInjector(system.cluster, schedule, seed=FAULT_SEED).install()
    sqls = list(_workload_sqls().values())
    stats = run_workload(system, sqls, num_clients=clients, num_queries=queries)
    return stats, system, victim


def _summarise(stats: WorkloadStats) -> dict:
    return {
        "mean_latency_s": stats.mean_latency(),
        "p50_latency_s": stats.p50(),
        "p99_latency_s": stats.p99(),
        "network_bytes": stats.network_bytes,
        "num_queries": len(stats.metrics),
        "retries": sum(qm.retries for qm in stats.metrics),
        "timeouts": sum(qm.timeouts for qm in stats.metrics),
        "hedges": sum(qm.hedges for qm in stats.metrics),
        "degraded_reads": sum(qm.degraded_reads for qm in stats.metrics),
    }


def _post_repair_clean(system, victim: int) -> dict:
    """Repair the crashed node's blocks, then prove the damage is gone."""
    store = system.store
    report = RepairManager(store).repair_node(victim)
    scrub_clean = all(
        store.verify_object(name).clean for name in ("lineitem", "taxi")
    )
    alive = set(system.cluster.alive_nodes())
    placements_alive = _placements_all_in(store, alive)

    degraded_after = 0
    correct_after = True
    for sql in _workload_sqls().values():
        qm = QueryMetrics()
        proc = system.sim.process(store.query_process(sql, qm))
        system.sim.run()
        degraded_after += qm.degraded_reads
        correct_after &= proc.value.matched_rows > 0
    return {
        "repair_bytes": report.repair_bytes,
        "blocks_repaired": report.blocks_repaired,
        "stripes_repaired": report.stripes_repaired,
        "time_to_repair_s": report.time_to_repair,
        "cluster_repair_bytes": system.cluster.metrics.repair_bytes,
        "scrub_clean_after_repair": scrub_clean,
        "placements_all_on_live_nodes": placements_alive,
        "post_repair_degraded_reads": degraded_after,
        "post_repair_queries_nonempty": correct_after,
    }


def _placements_all_in(store, alive: set[int]) -> bool:
    """Every stripe placement and location-map entry names a live node."""
    for obj in store.objects.values():
        if hasattr(obj, "location_map"):  # FAC object
            for placement in obj.stripes:
                if not set(placement.node_ids) <= alive:
                    return False
            for loc in obj.location_map.entries.values():
                if loc.node_id not in alive:
                    return False
        else:  # fixed-block object
            if not set(obj.data_block_nodes.values()) <= alive:
                return False
            if not set(obj.parity_block_nodes.values()) <= alive:
                return False
    return True


def main(out_path: str = "BENCH_fault_tolerance.json") -> None:
    bench_start = time.perf_counter()
    report: dict = {
        "benchmark": "fault_tolerance",
        "workload": _workload_sqls(),
        "clients": NUM_CLIENTS,
        "queries_per_run": NUM_QUERIES,
        "crash_fraction_of_no_fault_run": CRASH_FRACTION,
        "fault_seed": FAULT_SEED,
        "systems": {},
    }
    ok = True
    for kind in ("fusion", "baseline"):
        nofault, _sys0, _ = _run(kind, None, NUM_CLIENTS, NUM_QUERIES)
        crash_after = CRASH_FRACTION * nofault.wall_seconds
        faulted, system, victim = _run(kind, crash_after, NUM_CLIENTS, NUM_QUERIES)
        availability = len(faulted.metrics) / NUM_QUERIES

        # Correctness: completion order under 10 clients differs between
        # runs, so bit-identity is checked on a sequential pair (issue
        # order == completion order) with the crash scaled to its run.
        seq_ref, _s1, _ = _run(kind, None, 1, 8)
        seq_fault, _s2, _ = _run(kind, CRASH_FRACTION * seq_ref.wall_seconds, 1, 8)
        identical = all(
            a.equals(b) for a, b in zip(seq_ref.results, seq_fault.results)
        ) and len(seq_ref.results) == len(seq_fault.results)

        repair = _post_repair_clean(system, victim)
        entry = {
            "no_fault": _summarise(nofault),
            "faulted": _summarise(faulted),
            "availability": availability,
            "crash_node": victim,
            "crash_after_s": crash_after,
            "results_identical_to_no_fault": identical,
            "p99_penalty_pct": (
                (faulted.p99() - nofault.p99()) / nofault.p99() * 100.0
                if nofault.p99() > 0
                else 0.0
            ),
            "repair": repair,
        }
        report["systems"][kind] = entry
        passed = (
            availability == 1.0
            and identical
            and repair["scrub_clean_after_repair"]
            and repair["placements_all_on_live_nodes"]
            and repair["post_repair_degraded_reads"] == 0
            and repair["post_repair_queries_nonempty"]
        )
        ok &= passed
        print(
            f"{kind}: availability {availability:.2f}, "
            f"degraded reads {entry['faulted']['degraded_reads']}, "
            f"retries {entry['faulted']['retries']}, "
            f"p99 +{entry['p99_penalty_pct']:.1f}%, "
            f"repaired {repair['blocks_repaired']} blocks "
            f"({repair['repair_bytes'] / 1e9:.2f} GB) "
            f"in {repair['time_to_repair_s']:.2f}s, "
            f"clean={repair['scrub_clean_after_repair']}, "
            f"identical={identical} -> {'PASS' if passed else 'FAIL'}"
        )

    write_bench_report(
        out_path,
        benchmark="fault_tolerance",
        wall_seconds=time.perf_counter() - bench_start,
        passed=ok,
        floors={"availability": 1.0, "crash_fraction_of_no_fault_run": CRASH_FRACTION},
        detail=report,
    )
    print(f"wrote {out_path}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main(*sys.argv[1:2])
