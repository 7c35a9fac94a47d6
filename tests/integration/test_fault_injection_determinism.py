"""Reproducible chaos: the same fault-schedule seed and workload must
replay bit-identically, a mid-workload crash must not fail or corrupt a
single query, and a chunk's pushdown outcome is counted once however
many attempts its op took."""

from repro.check import fingerprint
from repro.cluster import FaultEvent, FaultInjector, random_schedule
from repro.sql import execute_local
from tests.closed_loop import (
    NUM_QUERIES,
    SQLS,
    TABLE,
    build,
    each_store,
    recorded,
    run,
    same_answers,
)


def _replay_fields(stats, cluster) -> list:
    """What a faulted run adds to its fingerprint: per-query and total
    retries, timeouts and degraded reads."""
    totals = cluster.metrics
    return [
        [(qm.retries, qm.timeouts, qm.degraded_reads) for qm in stats.metrics],
        (totals.network_bytes, totals.retries, totals.timeouts),
        (totals.degraded_reads, totals.rpcs_issued),
    ]


@each_store
def test_same_fault_seed_replays_bit_identically(kind):
    # Calibrate the horizon so the schedule lands inside the workload.
    horizon = run(build(kind)).wall_seconds
    assert horizon > 0

    def one_run():
        schedule = random_schedule(
            12,
            horizon,
            seed=33,
            crashes=2,
            blips=1,
            slow_windows=1,
            drop_windows=1,
            corruptions=0,
            max_concurrent_down=2,
        )
        system, stream = recorded(kind)
        injector = FaultInjector(system.cluster, schedule, seed=33).install()
        stats = run(system)
        log = [(a.at, a.event.kind, a.event.node_id) for a in injector.log]
        replay = fingerprint(stream, system.store, stats.metrics)
        return stats, replay, _replay_fields(stats, system.cluster), log

    stats_a, fp_a, fields_a, log_a = one_run()
    stats_b, fp_b, fields_b, log_b = one_run()
    assert len(stats_a.results) == NUM_QUERIES
    assert same_answers(stats_a, stats_b)
    assert fp_a == fp_b and fields_a == fields_b
    assert log_a == log_b and log_a  # faults actually fired


@each_store
def test_mid_workload_crash_zero_failed_queries(kind):
    # The crash lands halfway through a fault-free run's span.
    horizon = run(build(kind)).wall_seconds

    system = build(kind)
    cluster = system.cluster
    victim = next(n.node_id for n in cluster.nodes if n.stored_bytes)
    schedule = [FaultEvent(at=system.sim.now + 0.5 * horizon, kind="crash", node_id=victim)]
    injector = FaultInjector(cluster, schedule, seed=1).install()
    results = run(system).results

    assert len(results) == NUM_QUERIES  # zero failed queries
    assert injector.log and not cluster.node(victim).alive  # crash fired
    expected = [execute_local(sql, TABLE) for sql in SQLS]
    # Completion order may differ from the clean run, but every result
    # must match the ground truth for one of the workload's queries.
    for result in results:
        assert any(result.equals(exp) for exp in expected)
    for sql, exp in zip(SQLS, expected):
        assert any(r.equals(exp) for r in results), sql


def _drop_window(node_id: int, rate: float, seed: int):
    """The Fusion scenario with RPCs to ``node_id`` dropped at ``rate``
    from t=0; returns the system and its injector."""
    system = build("fusion")
    injector = FaultInjector(
        system.cluster,
        [FaultEvent(at=0.0, kind="drop", node_id=node_id, duration=1e9, rate=rate)],
        seed=seed,
    ).install()
    return system, injector


def test_different_fault_seed_changes_drop_outcomes():
    """The schedule seed is load-bearing: different seeds give different
    drop decisions (sanity check that randomness is not ignored)."""
    outcomes = {}
    for seed in (1, 2):
        system, injector = _drop_window(0, 0.5, seed)
        system.sim.run()  # let the driver open the drop window
        outcomes[seed] = tuple(injector.drop_rpc(0) for _ in range(64))
    assert outcomes[1] != outcomes[2]


def test_retried_ops_count_each_chunk_once():
    """Under a drop window an op is attempted up to three times and may
    end on its degraded path; its chunk still counts once, as pushed or
    as fallback, and the audit log holds one record per chunk.  Seed 15
    retries fused ops on node 0; seed 1 retries projection ops on node
    1 until three fall back."""
    for sql, node_id, seed in ((SQLS[1], 0, 15), (SQLS[0], 1, 1)):
        _result, clean = build("fusion").store.query(sql)
        system, _injector = _drop_window(node_id, 0.6, seed)
        _result, faulted = system.store.query(sql)
        assert faulted.retries > 0
        assert (faulted.pushed_down_chunks + faulted.fallback_chunks
                == clean.pushed_down_chunks + clean.fallback_chunks), sql
        keys = [rec.chunk_key for rec in system.store.audit.records]
        assert len(keys) == len(set(keys)), sql
