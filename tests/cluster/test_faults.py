"""Fault injector and health tracker: scripted schedules, seeded
randomness, and failure-detection bookkeeping."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultInjector,
    LinkDown,
    NodeHealthTracker,
    Simulator,
    random_schedule,
)


def _cluster(num_nodes: int = 9):
    sim = Simulator()
    return Cluster(sim, ClusterConfig(num_nodes=num_nodes)), sim


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at=1.0, kind="meteor", node_id=0)

    def test_windowed_kinds_need_duration(self):
        for kind in ("blip", "slow", "drop"):
            with pytest.raises(ValueError):
                FaultEvent(at=1.0, kind=kind, node_id=0, duration=0.0, rate=0.5)

    def test_drop_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="drop", node_id=0, duration=1.0, rate=0.0)
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="drop", node_id=0, duration=1.0, rate=1.5)


class TestScriptedSchedule:
    def test_crash_and_restore_at_scheduled_times(self):
        cluster, sim = _cluster()
        schedule = [
            FaultEvent(at=1.0, kind="crash", node_id=3),
            FaultEvent(at=3.0, kind="restore", node_id=3),
        ]
        FaultInjector(cluster, schedule, seed=1).install()
        seen = {}

        def probe():
            yield sim.timeout(0.5)
            seen[0.5] = cluster.node(3).alive
            yield sim.timeout(1.5)  # t = 2.0
            seen[2.0] = cluster.node(3).alive
            yield sim.timeout(2.0)  # t = 4.0
            seen[4.0] = cluster.node(3).alive

        sim.process(probe())
        sim.run()
        assert seen == {0.5: True, 2.0: False, 4.0: True}

    def test_blip_restores_automatically(self):
        cluster, sim = _cluster()
        FaultInjector(
            cluster, [FaultEvent(at=1.0, kind="blip", node_id=2, duration=1.0)], seed=1
        ).install()
        seen = {}

        def probe():
            yield sim.timeout(1.5)
            seen["during"] = cluster.node(2).alive
            yield sim.timeout(1.0)  # t = 2.5
            seen["after"] = cluster.node(2).alive

        sim.process(probe())
        sim.run()
        assert seen == {"during": False, "after": True}

    def test_slow_window_sets_and_resets_factors(self):
        cluster, sim = _cluster()
        FaultInjector(
            cluster,
            [FaultEvent(at=1.0, kind="slow", node_id=4, duration=2.0, factor=5.0)],
            seed=1,
        ).install()
        seen = {}

        def probe():
            yield sim.timeout(2.0)
            node = cluster.node(4)
            seen["during"] = (node.disk.slow_factor, node.endpoint.slow_factor)
            yield sim.timeout(2.0)  # t = 4.0
            seen["after"] = (node.disk.slow_factor, node.endpoint.slow_factor)

        sim.process(probe())
        sim.run()
        assert seen["during"] == (5.0, 5.0)
        assert seen["after"] == (1.0, 1.0)

    def test_slow_disk_actually_slower(self):
        cluster, sim = _cluster()
        node = cluster.node(0)
        node.put_block("b", np.zeros(1_000_000, dtype=np.uint8))

        def timed_read():
            t0 = sim.now
            yield from node.read_block("b", 1.0)
            return sim.now - t0

        p1 = sim.process(timed_read())
        sim.run()
        node.disk.slow_factor = 4.0
        p2 = sim.process(timed_read())
        sim.run()
        assert p2.value > p1.value * 3

    def test_corrupt_flips_bytes_in_place(self):
        cluster, sim = _cluster()
        node = cluster.node(1)
        payload = np.arange(256, dtype=np.uint8)
        node.put_block("blk", payload.copy())
        injector = FaultInjector(
            cluster, [FaultEvent(at=0.5, kind="corrupt", node_id=1)], seed=3
        ).install()
        sim.run()
        stored = node._blocks["blk"]
        assert stored.size == payload.size
        assert not np.array_equal(stored, payload)
        assert injector.log[0].detail == "blk"

    def test_crash_with_wipe_discards_blocks(self):
        cluster, sim = _cluster()
        node = cluster.node(5)
        node.put_block("blk", np.ones(10, dtype=np.uint8))
        FaultInjector(
            cluster, [FaultEvent(at=1.0, kind="crash", node_id=5, wipe=True)], seed=1
        ).install()
        sim.run()
        assert not node.alive
        assert not node.has_block("blk")

    def test_drop_window_is_seed_deterministic(self):
        def decisions(seed):
            cluster, sim = _cluster()
            injector = FaultInjector(
                cluster,
                [FaultEvent(at=0.0, kind="drop", node_id=0, duration=10.0, rate=0.5)],
                seed=seed,
            ).install()
            out = []

            def probe():
                yield sim.timeout(1.0)
                for _ in range(50):
                    out.append(injector.drop_rpc(0))

            sim.process(probe())
            sim.run()
            return out

        first, second = decisions(42), decisions(42)
        assert first == second
        assert any(first) and not all(first)  # rate in (0, 1) drops some
        assert decisions(43) != first

    def test_drop_window_expires(self):
        cluster, sim = _cluster()
        injector = FaultInjector(
            cluster,
            [FaultEvent(at=0.0, kind="drop", node_id=0, duration=1.0, rate=1.0)],
            seed=1,
        ).install()
        seen = {}

        def probe():
            yield sim.timeout(0.5)
            seen["during"] = injector.drop_rpc(0)
            yield sim.timeout(1.0)  # t = 1.5, window over
            seen["after"] = injector.drop_rpc(0)

        sim.process(probe())
        sim.run()
        assert seen == {"during": True, "after": False}


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        a = random_schedule(9, 100.0, seed=11)
        b = random_schedule(9, 100.0, seed=11)
        assert a == b
        assert random_schedule(9, 100.0, seed=12) != a

    def test_respects_max_concurrent_down(self):
        events = random_schedule(
            9, 100.0, seed=5, crashes=4, blips=4, max_concurrent_down=2
        )
        # Reconstruct downtime intervals from the schedule.
        intervals = []
        restores = {ev.node_id: ev.at for ev in events if ev.kind == "restore"}
        for ev in events:
            if ev.kind == "crash":
                intervals.append((ev.at, restores.get(ev.node_id, 100.0)))
            elif ev.kind == "blip":
                intervals.append((ev.at, ev.at + ev.duration))
        for start, end in intervals:
            concurrent = sum(1 for s, e in intervals if s < end and start < e)
            assert concurrent <= 2

    def test_applies_cleanly_end_to_end(self):
        cluster, sim = _cluster()
        schedule = random_schedule(9, 10.0, seed=21)
        injector = FaultInjector(cluster, schedule, seed=21).install()
        sim.run()
        assert len(injector.log) == len(schedule)
        # Blips all restored by end of schedule driver + waiters.
        assert all(
            cluster.node(ev.node_id).alive
            for ev in schedule
            if ev.kind in ("blip", "restore")
        )


class TestHealthTracker:
    def test_failures_accumulate_to_suspicion(self):
        tracker = NodeHealthTracker(4, suspicion_threshold=3)
        for _ in range(2):
            tracker.record_failure(1)
        assert not tracker.is_suspect(1)
        tracker.record_failure(1)
        assert tracker.is_suspect(1)
        assert not tracker.usable(1)
        assert tracker.usable(0)

    def test_success_resets_suspicion(self):
        tracker = NodeHealthTracker(4, suspicion_threshold=2)
        tracker.record_failure(2)
        tracker.record_failure(2)
        assert tracker.is_suspect(2)
        tracker.record_success(2)
        assert not tracker.is_suspect(2)
        assert tracker.usable(2)

    def test_cluster_liveness_feeds_tracker(self):
        cluster, _sim = _cluster()
        cluster.fail_node(3)
        assert not cluster.health.usable(3)
        cluster.restore_node(3)
        assert cluster.health.usable(3)

    def test_restore_clears_suspicion(self):
        cluster, _sim = _cluster()
        for _ in range(cluster.health.suspicion_threshold):
            cluster.health.record_failure(4)
        assert not cluster.health.usable(4)
        cluster.fail_node(4)
        cluster.restore_node(4)
        assert cluster.health.usable(4)

    def test_listeners_notified_on_transitions_only(self):
        cluster, _sim = _cluster()
        calls = []
        cluster.add_liveness_listener(lambda nid, alive: calls.append((nid, alive)))
        cluster.fail_node(1)
        cluster.fail_node(1)  # already dead: no second notification
        cluster.restore_node(1)
        cluster.restore_node(1)  # already alive: no notification
        assert calls == [(1, False), (1, True)]


class TestLinkFaultKinds:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="partition", node_id=0, duration=1.0)  # no nodes
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="asym_link", node_id=0, peer=0, duration=1.0, rate=0.5)
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="asym_link", node_id=0, peer=1, duration=1.0)  # no axis
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="fail_slow", node_id=0, duration=1.0, factor=0.5)

    def test_partition_severs_and_heals(self):
        cluster, sim = _cluster(num_nodes=4)
        schedule = [
            FaultEvent(at=1.0, kind="partition", node_id=0, nodes=(0, 1), duration=2.0),
        ]
        FaultInjector(cluster, schedule, seed=1).install()
        seen = {}

        def probe():
            yield sim.timeout(1.5)
            seen["cut"] = (
                cluster.delivers(0, 2),
                cluster.delivers(0, 1),
                cluster.network.severed_link_count(),
            )
            yield sim.timeout(2.0)  # t = 3.5, past the heal
            seen["healed"] = (
                cluster.delivers(0, 2),
                cluster.network.severed_link_count(),
                len(cluster.network.links),
            )

        sim.process(probe())
        sim.run()
        # Both directed legs of each of the 2x2 cross pairs are severed;
        # intra-side links stay up.  Heal empties the matrix entirely.
        assert seen["cut"] == (False, True, 8)
        assert seen["healed"] == (True, 0, 0)

    def test_severed_link_drops_rpc_deterministically(self):
        cluster, sim = _cluster(num_nodes=4)
        schedule = [
            FaultEvent(at=0.0, kind="partition", node_id=0, nodes=(0,), duration=5.0),
        ]
        injector = FaultInjector(cluster, schedule, seed=1).install()

        def probe():
            # The network refuses every RPC across the cut, either leg;
            # the drop hook does not decide it a second time.
            yield sim.timeout(1.0)
            ends = [node.endpoint for node in cluster.nodes]
            seen = []
            for src, dst in [(0, 1)] * 5 + [(1, 0)] * 5 + [(1, 2)]:  # reverse leg, same side
                try:
                    yield from cluster.network.transfer(ends[src], ends[dst], 100)
                    seen.append(False)
                except LinkDown:
                    seen.append(True)
            assert seen == [True] * 10 + [False]
            assert not injector.drop_rpc(1, src_id=0)

        sim.process(probe())
        sim.run()

    def test_asym_link_adds_latency_one_direction(self):
        cluster, sim = _cluster(num_nodes=3)
        schedule = [
            FaultEvent(
                at=0.0, kind="asym_link", node_id=0, peer=1,
                duration=5.0, latency_s=0.5,
            ),
        ]
        FaultInjector(cluster, schedule, seed=1).install()
        a = cluster.node(0).endpoint
        b = cluster.node(1).endpoint
        durations = {}

        def probe():
            yield sim.timeout(1.0)
            start = sim.now
            yield from cluster.network.transfer(a, b, 1000)
            durations["degraded"] = sim.now - start
            start = sim.now
            yield from cluster.network.transfer(b, a, 1000)
            durations["reverse"] = sim.now - start
            yield sim.timeout(10.0)  # past the reset
            start = sim.now
            yield from cluster.network.transfer(a, b, 1000)
            durations["healed"] = sim.now - start

        sim.process(probe())
        sim.run()
        assert durations["degraded"] >= durations["reverse"] + 0.5
        assert durations["healed"] == pytest.approx(durations["reverse"])
        assert not cluster.network.links  # pruned after reset

    def test_asym_link_drops_are_link_rng_only(self):
        """Directed drop draws come from the link RNG: the main stream's
        replay (windowed drops) is unperturbed by link consultations."""
        cluster, sim = _cluster(num_nodes=3)
        schedule = [
            FaultEvent(at=0.0, kind="asym_link", node_id=0, peer=1, duration=50.0, rate=0.5),
        ]
        injector = FaultInjector(cluster, schedule, seed=7).install()
        main_state_before = None
        results = {}

        def probe():
            yield sim.timeout(1.0)
            state = injector.rng.getstate()
            outcomes = [injector.drop_rpc(1, src_id=0) for _ in range(64)]
            results["dropped"] = sum(outcomes)
            results["main_rng_untouched"] = injector.rng.getstate() == state

        sim.process(probe())
        sim.run()
        assert results["main_rng_untouched"]
        assert 10 < results["dropped"] < 55  # ~50% drop rate, seeded

    def test_fail_slow_sets_and_resets_gray_factors(self):
        cluster, sim = _cluster(num_nodes=3)
        schedule = [
            FaultEvent(at=1.0, kind="fail_slow", node_id=2, duration=2.0, factor=16.0),
        ]
        FaultInjector(cluster, schedule, seed=1).install()
        seen = {}

        def probe():
            yield sim.timeout(1.5)
            node = cluster.node(2)
            seen["gray"] = (node.disk.gray_factor, node.endpoint.gray_factor)
            seen["slow_untouched"] = (node.disk.slow_factor, node.endpoint.slow_factor)
            yield sim.timeout(2.0)
            seen["reset"] = (node.disk.gray_factor, node.endpoint.gray_factor)

        sim.process(probe())
        sim.run()
        assert seen["gray"] == (16.0, 16.0)
        assert seen["slow_untouched"] == (1.0, 1.0)
        assert seen["reset"] == (1.0, 1.0)


class TestScheduleSeedCompatibility:
    """Adding the link-fault families must not shift any existing draw."""

    OLD_KW = dict(
        crashes=3, blips=2, slow_windows=2, drop_windows=2, corruptions=2,
        overloads=1, slow_bursts=1, membership=1, tenant_storms=1,
    )

    def test_old_args_bit_identical(self):
        a = random_schedule(12, 10.0, seed=42, **self.OLD_KW)
        b = random_schedule(12, 10.0, seed=42, **self.OLD_KW)
        assert a == b
        # Zero-count new families draw nothing: identical to never
        # passing them at all.
        c = random_schedule(
            12, 10.0, seed=42, **self.OLD_KW, partitions=0, asym_links=0, fail_slows=0
        )
        assert c == a

    def test_new_families_append_after_old_draws(self):
        old = random_schedule(12, 10.0, seed=42, **self.OLD_KW)
        new = random_schedule(
            12, 10.0, seed=42, **self.OLD_KW, partitions=2, asym_links=2, fail_slows=1
        )
        prefix = [e for e in new if e.kind not in ("partition", "asym_link", "fail_slow")]
        assert prefix == old
        assert len(new) - len(prefix) == 5

    def test_new_family_events_well_formed(self):
        events = random_schedule(
            9, 10.0, seed=3, crashes=0, blips=0, slow_windows=0, drop_windows=0,
            corruptions=0, partitions=2, asym_links=3, fail_slows=2,
        )
        kinds = [e.kind for e in events]
        assert kinds.count("partition") == 2
        assert kinds.count("asym_link") == 3
        assert kinds.count("fail_slow") == 2
        for e in events:
            if e.kind == "partition":
                assert e.nodes and len(e.nodes) <= 9 // 2
            elif e.kind == "asym_link":
                assert e.peer != e.node_id and 0 <= e.peer < 9
            elif e.kind == "fail_slow":
                assert e.factor >= 8.0 and e.duration > 0

    def test_asym_links_skip_single_node_cluster(self):
        events = random_schedule(
            1, 10.0, seed=3, crashes=0, blips=0, slow_windows=0, drop_windows=0,
            corruptions=0, asym_links=3,
        )
        assert events == []
