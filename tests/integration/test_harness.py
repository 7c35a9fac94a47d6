"""The bench harness itself: workload drivers and comparison stats."""

import dataclasses

import pytest

from repro.bench import (
    Comparison,
    build_pair,
    build_system,
    reduction_pct,
    run_open_loop,
    run_workload,
)
from repro.bench.experiments import _placements_all_in
from repro.core import StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table


@pytest.fixture(scope="module")
def objects():
    table = make_small_table(num_rows=2000, seed=41)
    return {"tbl": write_table(table, row_group_rows=500)}, table


@pytest.fixture(scope="module")
def config():
    return StoreConfig(size_scale=200.0, storage_overhead_threshold=0.1, block_size=2_000_000)


class TestBuildSystem:
    def test_build_fusion_and_baseline(self, objects, config):
        data, _table = objects
        fusion = build_system("fusion", data, store_config=config)
        baseline = build_system("baseline", data, store_config=config)
        assert "tbl" in fusion.store.objects
        assert "tbl" in baseline.store.objects

    def test_unknown_kind_raises(self, objects, config):
        data, _ = objects
        with pytest.raises(ValueError):
            build_system("minio", data, store_config=config)

    def test_pair_shares_nothing(self, objects, config):
        data, _ = objects
        fusion, baseline = build_pair(data, store_config=config)
        assert fusion.sim is not baseline.sim
        assert fusion.cluster is not baseline.cluster


class TestRunWorkload:
    def test_closed_loop_counts(self, objects, config):
        data, table = objects
        system = build_system("fusion", data, store_config=config)
        sql = "SELECT id FROM tbl WHERE qty < 5"
        stats = run_workload(system, [sql], num_clients=4, num_queries=10)
        assert len(stats.metrics) == 10
        assert len(stats.results) == 10
        assert stats.network_bytes > 0
        assert stats.wall_seconds > 0

    def test_results_are_correct(self, objects, config):
        data, table = objects
        system = build_system("fusion", data, store_config=config)
        sql = "SELECT id FROM tbl WHERE qty < 5"
        stats = run_workload(system, [sql], num_clients=3, num_queries=6)
        expected = execute_local(sql, table)
        assert all(r.equals(expected) for r in stats.results)

    def test_percentiles_ordered(self, objects, config):
        data, _ = objects
        system = build_system("fusion", data, store_config=config)
        stats = run_workload(
            system, ["SELECT id FROM tbl WHERE qty < 5"], num_clients=5, num_queries=20
        )
        assert stats.p50() <= stats.p99()

    def test_concurrency_inflates_latency(self, objects, config):
        data, _ = objects
        sql = "SELECT note FROM tbl WHERE qty < 25"
        solo = run_workload(
            build_system("baseline", data, store_config=config), [sql], 1, 8
        )
        crowd = run_workload(
            build_system("baseline", data, store_config=config), [sql], 8, 8
        )
        assert crowd.p99() > solo.p99()

    def test_empty_inputs_rejected(self, objects, config):
        data, _ = objects
        system = build_system("fusion", data, store_config=config)
        with pytest.raises(ValueError):
            run_workload(system, [], 1, 1)
        with pytest.raises(ValueError):
            run_workload(system, ["SELECT id FROM tbl"], 0, 1)

    def test_cpu_accounting_positive(self, objects, config):
        data, _ = objects
        system = build_system("fusion", data, store_config=config)
        stats = run_workload(
            system, ["SELECT note FROM tbl WHERE qty < 25"], num_clients=2, num_queries=4
        )
        assert stats.cpu_busy_seconds > 0
        assert stats.cpu_seconds_per_query > 0


class TestOpenLoop:
    def test_open_loop_issues_rate_times_duration(self, objects, config):
        data, _ = objects
        system = build_system("fusion", data, store_config=config)
        stats = run_open_loop(
            system, ["SELECT id FROM tbl WHERE qty < 5"], rate_qps=10, duration_s=1.0
        )
        assert len(stats.metrics) == 10

    def test_invalid_rate(self, objects, config):
        data, _ = objects
        system = build_system("fusion", data, store_config=config)
        with pytest.raises(ValueError):
            run_open_loop(system, ["SELECT id FROM tbl"], rate_qps=0, duration_s=1)


class TestComparison:
    def test_reduction_pct(self):
        assert reduction_pct(10.0, 5.0) == pytest.approx(50.0)
        assert reduction_pct(10.0, 12.0) == pytest.approx(-20.0)
        assert reduction_pct(0.0, 5.0) == 0.0

    def test_comparison_properties(self, objects, config):
        data, _ = objects
        fusion, baseline = build_pair(data, store_config=config)
        sql = "SELECT note FROM tbl WHERE qty < 3"
        f = run_workload(fusion, [sql], 4, 8)
        b = run_workload(baseline, [sql], 4, 8)
        comp = Comparison(label="t", fusion=f, baseline=b)
        assert comp.traffic_ratio > 0
        assert -100 <= comp.p50_reduction <= 100


class TestPlacementCheck:
    """The fault-tolerance plane's "placements on live nodes" check."""

    @pytest.mark.parametrize("kind", ["fusion", "baseline"])
    def test_live_until_a_holder_dies(self, objects, config, kind):
        data, _ = objects
        system = build_system(kind, data, store_config=config)
        store = system.store
        alive = set(system.cluster.alive_nodes())
        assert _placements_all_in(store, alive)
        holder = store.objects["tbl"].stripes[0].node_ids[0]
        assert not _placements_all_in(store, alive - {holder})

    def test_never_written_fixed_blocks_have_no_home(self, objects, config):
        data, _ = objects
        system = build_system("baseline", data, store_config=config)
        obj = system.store.objects["tbl"]
        homes = [nid for p in obj.stripes for nid in p.node_ids]
        assert None in homes
        assert _placements_all_in(system.store, set(system.cluster.alive_nodes()))

    def test_a_dangling_location_entry_fails(self, objects, config):
        data, _ = objects
        system = build_system("fusion", data, store_config=config)
        obj = system.store.objects["tbl"]
        key, loc = next(iter(obj.location_map.entries.items()))
        other = next(n for n in system.cluster.alive_nodes() if n != loc.node_id)
        obj.location_map.entries[key] = dataclasses.replace(loc, node_id=other)
        assert not _placements_all_in(system.store, set(system.cluster.alive_nodes()))
