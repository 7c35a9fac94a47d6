"""Partition-chaos benchmark: gray failure, majority/minority partition,
quorum-guarded metadata, and anti-entropy read-repair.

Two phases against Fusion:

* **Gray tail** — the TPC-H Q1 + taxi Q3 workload with one fail-slow
  node (50x disk and NIC service times, never timing out — the classic
  gray failure).  With greylist detection armed the health tracker
  deprioritizes the slow node and the workload's p99 must stay within
  2x of the healthy baseline; with detection off the same fault must
  cost at least 10x, demonstrating the detector earns its keep.
* **Partition** — 9 nodes, RS(5,3), 3 metadata replicas, a seeded
  majority/minority partition (plus a fail-slow node on the majority
  side).  Every metadata republish must either reach a majority of its
  replica holders or raise the typed ``QuorumLost`` — zero split-brain
  epoch installs — while majority-side Gets stay >= 90% available and
  bit-correct.  After heal, ``recover()`` converges stale minority
  replicas, the read-repair queue drains with separately-accounted
  ``read_repair_bytes``, and fsck comes back clean.

Writes ``BENCH_partition.json`` (bench-envelope/v1; exit 1 on floor
failure).  Run from the repo root::

    PYTHONPATH=src python benchmarks/partition_bench.py [output.json]
"""

from __future__ import annotations

import sys
import time

from repro.bench.envelope import write_bench_report
from repro.bench.experiments import dataset, dataset_scale
from repro.bench.harness import build_system, run_workload
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.core.config import StoreConfig
from repro.core.repair import RepairManager
from repro.core.wal import QuorumLost
from repro.ec.reed_solomon import CodeParams
from repro.workloads import real_world_queries

NUM_CLIENTS = 10
NUM_QUERIES = 40
WARMUP_QUERIES = 16
GRAY_FACTOR = 400.0
GREYLIST_FACTOR = 3.0
FAULT_SEED = 7

# Phase B topology: 9 nodes and a 2-node minority; RS(5,3) keeps every
# stripe decodable (>= k shards) on the majority side.
PARTITION_NODES = 9
PARTITION_OBJECTS = 8
GETS_PER_OBJECT = 2


def _workload_sqls() -> list[str]:
    _ldata, ltable = dataset("lineitem")
    _tdata, ttable = dataset("taxi")
    queries = {q.name: q for q in real_world_queries(ltable, ttable)}
    return [queries["Q1"].sql, queries["Q3"].sql]


# ---------------------------------------------------------------------------
# Phase A — gray-failure tail latency
# ---------------------------------------------------------------------------


def _gray_config(greylist_factor: float) -> StoreConfig:
    # op_timeout_s is raised so the fail-slow node *answers* every op —
    # the gray failure mode by definition never trips the timeout-based
    # failure detector, isolating what latency detection buys.
    return StoreConfig(
        size_scale=dataset_scale("lineitem"),
        op_timeout_s=10.0,
        greylist_latency_factor=greylist_factor,
    )


def _gray_system(greylist_factor: float, fail_slow: bool):
    ldata, _lt = dataset("lineitem")
    tdata, _tt = dataset("taxi")
    system = build_system(
        "fusion",
        {"lineitem": ldata, "taxi": tdata},
        store_config=_gray_config(greylist_factor),
    )
    victim = None
    if fail_slow:
        # Persistent gray failure: applied directly (a timer-healed
        # fault would be undone by run-to-quiescence between phases).
        victim = next(n.node_id for n in system.cluster.nodes if n.stored_bytes)
        node = system.cluster.node(victim)
        node.disk.gray_factor = GRAY_FACTOR
        node.endpoint.gray_factor = GRAY_FACTOR
    return system, victim


def _gray_run(greylist_factor: float, fail_slow: bool):
    """Warmup (feeds the latency EWMAs), then a measured workload."""
    system, victim = _gray_system(greylist_factor, fail_slow)
    sqls = _workload_sqls()
    run_workload(system, sqls, num_clients=NUM_CLIENTS, num_queries=WARMUP_QUERIES)
    stats = run_workload(system, sqls, num_clients=NUM_CLIENTS, num_queries=NUM_QUERIES)
    return stats, system, victim


def _phase_gray() -> dict:
    healthy, _sys0, _ = _gray_run(GREYLIST_FACTOR, fail_slow=False)
    detected, sys_on, victim = _gray_run(GREYLIST_FACTOR, fail_slow=True)
    undetected, _sys_off, _ = _gray_run(0.0, fail_slow=True)

    # Correctness: sequential single-client pairs have deterministic
    # completion order, so results must be bit-identical to healthy.
    seq_ref, _s, _ = _gray_run_seq(GREYLIST_FACTOR, fail_slow=False)
    seq_on, _s, _ = _gray_run_seq(GREYLIST_FACTOR, fail_slow=True)
    seq_off, _s, _ = _gray_run_seq(0.0, fail_slow=True)
    wrong_reads = sum(
        0 if a.equals(b) else 1
        for run in (seq_on, seq_off)
        for a, b in zip(seq_ref.results, run.results)
    )

    ratio_on = detected.p99() / healthy.p99()
    ratio_off = undetected.p99() / healthy.p99()
    return {
        "victim": victim,
        "victim_greylisted": sys_on.cluster.health.is_greylisted(victim),
        "greylist_events": sum(
            1
            for nid in range(sys_on.cluster.num_nodes)
            if sys_on.cluster.health.is_greylisted(nid)
        ),
        "healthy_p99_s": healthy.p99(),
        "detection_on_p99_s": detected.p99(),
        "detection_off_p99_s": undetected.p99(),
        "p99_ratio_detection_on": ratio_on,
        "p99_ratio_detection_off": ratio_off,
        "detection_on_degraded_reads": sum(
            qm.degraded_reads for qm in detected.metrics
        ),
        "wrong_reads": wrong_reads,
        "gray_factor": GRAY_FACTOR,
    }


def _gray_run_seq(greylist_factor: float, fail_slow: bool):
    system, victim = _gray_system(greylist_factor, fail_slow)
    sqls = _workload_sqls()
    stats = run_workload(system, sqls, num_clients=1, num_queries=8)
    return stats, system, victim


# ---------------------------------------------------------------------------
# Phase B — majority/minority partition with quorum-guarded metadata
# ---------------------------------------------------------------------------


def _max_holder_epoch(cluster, name: str, holders) -> int:
    epochs = [
        replica.epoch
        for nid in holders
        if (replica := cluster.node(nid).get_meta(name)) is not None
    ]
    return max(epochs, default=-1)


def _phase_partition() -> dict:
    data, _table = dataset("ukpp")
    names = [f"obj{i:02d}" for i in range(PARTITION_OBJECTS)]
    system = build_system(
        "fusion",
        {name: data for name in names},
        cluster_config=ClusterConfig(num_nodes=PARTITION_NODES),
        store_config=StoreConfig(
            size_scale=dataset_scale("ukpp"),
            code=CodeParams(n=5, k=3),
            metadata_replicas=3,
            op_timeout_s=0.2,
            greylist_latency_factor=GREYLIST_FACTOR,
        ),
    )
    store, cluster, sim = system.store, system.cluster, system.sim

    # Deterministic minority: the coordinator of obj00 plus one node
    # holding none of obj00's metadata replicas — so at most one of that
    # object's three holders is reachable from its coordinator and at
    # least one republish is guaranteed to lose quorum.
    c0 = cluster.coordinator_for(names[0]).node_id
    holders0 = set(store.objects[names[0]].replica_nodes)
    partner = next(
        nid for nid in range(PARTITION_NODES) if nid != c0 and nid not in holders0
    )
    minority = sorted({c0, partner})
    majority = [nid for nid in range(PARTITION_NODES) if nid not in minority]
    fail_slow_node = majority[0]

    # duration=0 means no auto-heal timer: run-to-quiescence between the
    # Gets below must not silently repair the network mid-phase.
    schedule = [
        FaultEvent(
            at=sim.now + 1e-6,
            kind="partition",
            node_id=minority[0],
            nodes=tuple(minority),
            duration=0.0,
        ),
    ]
    FaultInjector(cluster, schedule, seed=FAULT_SEED).install()
    sim.run()  # apply the schedule
    slow = cluster.node(fail_slow_node)
    slow.disk.gray_factor = GRAY_FACTOR
    slow.endpoint.gray_factor = GRAY_FACTOR

    # Foreground Gets during the partition, from majority-side
    # coordinators (the availability floor's population).  Minority-side
    # coordinators cannot reach k shard holders, so their Gets fail by
    # construction — issuing them would only leave half-failed op
    # processes parked on simulator resources; they are counted as
    # expected-unavailable instead.
    majority_total = majority_ok = minority_skipped = 0
    wrong_reads = 0
    for _round in range(GETS_PER_OBJECT):
        for name in names:
            if cluster.coordinator_for(name).node_id in minority:
                minority_skipped += 1
                continue
            try:
                got = store.get(name)
            except Exception:
                got = None
            ok = got is not None
            if ok and got != data:
                wrong_reads += 1
                ok = False
            majority_total += 1
            majority_ok += ok

    # Every republish during the partition must reach a majority of its
    # meta-replica holders or raise the typed QuorumLost.
    republish_ok = republish_lost = 0
    for name in names:
        try:
            store._republish_meta(store.objects[name])
            republish_ok += 1
        except QuorumLost:
            republish_lost += 1
    split_brain = sum(
        1
        for name in names
        if _max_holder_epoch(cluster, name, store.objects[name].replica_nodes)
        > store.objects[name].meta_epoch
    )
    read_repairs_queued = len(cluster.read_repairs)

    # Heal, converge, drain the anti-entropy queue, and verify.
    cluster.network.links.clear()
    for node in cluster.nodes:
        node.disk.gray_factor = 1.0
        node.endpoint.gray_factor = 1.0
    recovery = store.recover()
    repair = RepairManager(store).repair_read_reported()
    fsck_clean = store.fsck().clean
    post_heal_wrong = sum(1 for name in names if store.get(name) != data)
    converged = all(
        _max_holder_epoch(cluster, name, store.objects[name].replica_nodes)
        == store.objects[name].meta_epoch
        for name in names
    )

    return {
        "num_nodes": PARTITION_NODES,
        "code": "RS(5,3)",
        "metadata_replicas": 3,
        "minority": minority,
        "fail_slow_node": fail_slow_node,
        "majority_gets": majority_total,
        "majority_get_successes": majority_ok,
        "majority_availability": majority_ok / majority_total,
        "minority_gets_skipped_expected_unavailable": minority_skipped,
        "wrong_reads": wrong_reads + post_heal_wrong,
        "republish_succeeded": republish_ok,
        "republish_quorum_lost": republish_lost,
        "quorum_lost_total": cluster.metrics.quorum_lost_total,
        "split_brain_epoch_installs": split_brain,
        "read_repairs_queued_during_partition": read_repairs_queued,
        "read_repair_bytes": cluster.metrics.read_repair_bytes,
        "blocks_read_repaired": cluster.metrics.blocks_read_repaired,
        "read_repair_stripes_repaired": repair.stripes_repaired,
        "meta_replicas_synced_on_recover": recovery.meta_replicas_synced,
        "post_heal_fsck_clean": fsck_clean,
        "post_heal_epochs_converged": converged,
    }


# ---------------------------------------------------------------------------


def main(out_path: str = "BENCH_partition.json") -> None:
    bench_start = time.perf_counter()
    gray = _phase_gray()
    partition = _phase_partition()

    floors = {
        "wrong_reads == 0": gray["wrong_reads"] + partition["wrong_reads"] == 0,
        "split_brain_epoch_installs == 0": partition["split_brain_epoch_installs"]
        == 0,
        "every republish reached quorum or raised QuorumLost": (
            partition["republish_succeeded"] + partition["republish_quorum_lost"]
            == PARTITION_OBJECTS
        ),
        "quorum_lost raised at least once": partition["republish_quorum_lost"] >= 1,
        "majority availability >= 0.9": partition["majority_availability"] >= 0.9,
        "fail-slow victim greylisted": gray["victim_greylisted"],
        "p99 with detection <= 2x healthy": gray["p99_ratio_detection_on"] <= 2.0,
        "p99 without detection >= 10x healthy": gray["p99_ratio_detection_off"]
        >= 10.0,
        "post-heal fsck clean": partition["post_heal_fsck_clean"],
        "post-heal epochs converged": partition["post_heal_epochs_converged"],
        "read_repair_bytes > 0": partition["read_repair_bytes"] > 0,
    }
    passed = all(floors.values())
    detail = {
        "system": "fusion",
        "fault_seed": FAULT_SEED,
        "gray_tail": gray,
        "partition": partition,
    }
    write_bench_report(
        out_path,
        "partition",
        time.perf_counter() - bench_start,
        passed,
        floors,
        detail,
    )
    status = "PASS" if passed else "FAIL"
    print(f"[partition_bench] {status} -> {out_path}")
    for name, ok in floors.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_partition.json")
