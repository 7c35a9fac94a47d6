"""Per-tenant QoS mechanism layer: token buckets, DRR fair queues,
quota admission, and the tenant_storm fault family."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.cluster.faults import FaultEvent, FaultInjector, random_schedule
from repro.cluster.metrics import QueryMetrics
from repro.cluster import qos as qos_module
from repro.cluster.overload import BACKGROUND_PRIORITY, FOREGROUND_PRIORITY
from repro.cluster.qos import (
    FairQueue,
    QuotaExceeded,
    TenantQos,
    TokenBucket,
    install_qos,
)
from repro.cluster.simcore import QueueFull, Resource
from repro.core.config import StoreConfig


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_refills_on_simulated_clock(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0, burst_s=1.0)  # capacity 10
        for _ in range(10):
            assert bucket.try_consume(1.0)
        assert not bucket.try_consume(1.0)  # dry
        sim.run(until=0.5)  # refills 5 tokens
        for _ in range(5):
            assert bucket.try_consume(1.0)
        assert not bucket.try_consume(1.0)

    def test_capacity_clamps_refill(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0, burst_s=1.0)
        sim.run(until=100.0)  # a long idle period cannot bank tokens
        assert bucket.try_consume(10.0)
        assert not bucket.try_consume(1.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenBucket(Simulator(), rate=0.0)


# ---------------------------------------------------------------------------
# FairQueue on a Resource: DRR dispatch, per-tenant depth
# ---------------------------------------------------------------------------


def _fair_resource(sim, qos, capacity=1):
    resource = Resource(sim, capacity=capacity)
    resource.fair = FairQueue(qos)
    return resource


def _saturate(sim, resource):
    def hold():
        with (yield from resource.acquire()):
            yield sim.event()  # never fires

    resource.holder = sim.process(hold())
    sim.run(until=0.0)
    assert resource.in_use == 1


class TestFairQueueDispatch:
    def _served_order(self, weights, submissions, service_s=0.01):
        """Run one saturated resource; return tenants in service order.

        ``submissions`` is a list of (tenant, cost) queued while the
        slot is held; the holder releases at t=0 and each admitted
        request holds the slot ``service_s``.
        """
        sim = Simulator()
        qos = TenantQos(sim, weights=weights)
        resource = _fair_resource(sim, qos)
        release = sim.event()
        served = []

        def hold():
            with (yield from resource.acquire()):
                yield release

        sim.process(hold())
        sim.run(until=0.0)

        def worker(tenant, cost):
            with (
                yield from resource.acquire(
                    FOREGROUND_PRIORITY, tenant=tenant, cost=cost
                )
            ):
                served.append(tenant)
                yield sim.timeout(service_s)

        for tenant, cost in submissions:
            sim.process(worker(tenant, cost))
        sim.run(until=0.0)
        release.succeed()
        sim.run()
        return served

    def test_equal_weights_interleave(self):
        served = self._served_order(
            {},
            [("a", 1.0)] * 3 + [("b", 1.0)] * 3,
        )
        # DRR with equal weights alternates instead of draining tenant a
        # (FIFO order) first.
        assert served[:4] in (["a", "b", "a", "b"], ["b", "a", "b", "a"])
        assert sorted(served) == ["a", "a", "a", "b", "b", "b"]

    def test_weights_bias_service_share(self):
        served = self._served_order(
            {"heavy": 3.0, "light": 1.0},
            [("heavy", 1.0)] * 8 + [("light", 1.0)] * 8,
        )
        # In the first DRR rounds the heavy tenant is served ~3x as often.
        first_eight = served[:8]
        assert first_eight.count("heavy") >= 2 * first_eight.count("light")

    def test_costs_measured_not_counts(self):
        # Tenant a queues one huge request, tenant b several small ones:
        # equal weights mean equal *cost* shares, so b's small requests
        # are not starved behind a's big one round after round.
        served = self._served_order(
            {},
            [("a", 8.0)] + [("b", 1.0)] * 4,
        )
        assert served.index("b") <= 1

    def test_higher_priority_tier_drains_first(self):
        sim = Simulator()
        qos = TenantQos(sim)
        resource = _fair_resource(sim, qos)
        release = sim.event()
        served = []

        def hold():
            with (yield from resource.acquire()):
                yield release

        sim.process(hold())
        sim.run(until=0.0)

        def worker(tag, priority):
            with (yield from resource.acquire(priority, tenant="t", cost=1.0)):
                served.append(tag)
                yield sim.timeout(0.01)

        sim.process(worker("bg", BACKGROUND_PRIORITY))
        sim.process(worker("fg", FOREGROUND_PRIORITY))
        sim.run(until=0.0)
        release.succeed()
        sim.run()
        assert served == ["fg", "bg"]

    def test_legacy_fifo_served_before_fair_queue(self):
        # Untenanted (internal/control) waiters never starve behind
        # tenant backlogs: the legacy FIFO drains first on release.
        sim = Simulator()
        qos = TenantQos(sim)
        resource = _fair_resource(sim, qos)
        release = sim.event()
        served = []

        def hold():
            with (yield from resource.acquire()):
                yield release

        sim.process(hold())
        sim.run(until=0.0)

        def tenant_worker():
            with (
                yield from resource.acquire(
                    FOREGROUND_PRIORITY, tenant="t", cost=1.0
                )
            ):
                served.append("tenant")
                yield sim.timeout(0.01)

        def internal_worker():
            with (yield from resource.acquire(None)):
                served.append("internal")
                yield sim.timeout(0.01)

        sim.process(tenant_worker())
        sim.process(internal_worker())
        sim.run(until=0.0)
        release.succeed()
        sim.run()
        assert served == ["internal", "tenant"]

    def test_cancelled_fair_waiter_withdraws_entry(self):
        sim = Simulator()
        qos = TenantQos(sim)
        resource = _fair_resource(sim, qos)
        _saturate(sim, resource)

        def worker():
            with (
                yield from resource.acquire(
                    FOREGROUND_PRIORITY, tenant="t", cost=1.0
                )
            ):
                pass

        proc = sim.process(worker())
        sim.run(until=0.0)
        assert resource.queue_length == 1
        proc.cancel()
        assert resource.queue_length == 0
        assert resource.fair.total == 0


class TestPerTenantDepth:
    def _resource(self, sim, depth, weights=None):
        qos = TenantQos(sim, weights=weights, depth_limit=depth)
        resource = _fair_resource(sim, qos)
        _saturate(sim, resource)
        return resource

    def test_depth_is_per_tenant_not_global(self):
        sim = Simulator()
        resource = self._resource(sim, depth=2)
        outcomes = []

        def worker(tag, tenant):
            try:
                with (
                    yield from resource.acquire(
                        FOREGROUND_PRIORITY, tenant=tenant, cost=1.0
                    )
                ):
                    pass
            except QueueFull:
                outcomes.append(tag)

        for i in range(3):
            sim.process(worker(f"a{i}", "a"))  # a2 refused at depth 2
        for i in range(2):
            sim.process(worker(f"b{i}", "b"))  # b admits despite a's backlog
        sim.run(until=0.1)
        assert outcomes == ["a2"]
        assert resource.fair.depth("a") == 2
        assert resource.fair.depth("b") == 2
        assert resource.rejected_total == 1

    def test_rejects_when_no_lower_priority_within_tenant(self):
        sim = Simulator()
        resource = self._resource(sim, depth=1)
        outcomes = []

        def worker(tag, tenant, priority):
            try:
                with (
                    yield from resource.acquire(
                        priority, tenant=tenant, cost=1.0
                    )
                ):
                    pass
            except QueueFull:
                outcomes.append(tag)

        sim.process(worker("b-bg", "b", BACKGROUND_PRIORITY))
        sim.process(worker("a-fg0", "a", FOREGROUND_PRIORITY))
        sim.process(worker("a-fg1", "a", FOREGROUND_PRIORITY))
        sim.run(until=0.1)
        # a-fg1 is refused at a's depth; b's lower-priority waiter is
        # left queued, not evicted to make room.
        assert outcomes == ["a-fg1"]
        assert resource.rejected_total == 1
        assert resource.fair.depth("b") == 1


# ---------------------------------------------------------------------------
# TenantQos quotas
# ---------------------------------------------------------------------------


class TestQuotas:
    def test_request_quota_raises_typed_refusal(self):
        sim = Simulator()
        qos = TenantQos(sim, requests_per_s={"a": 2.0})
        metrics = QueryMetrics(tenant="a")
        qos.admit("a", metrics)
        qos.admit("a", metrics)
        with pytest.raises(QuotaExceeded) as exc:
            qos.admit("a", metrics)
        assert exc.value.tenant == "a"
        assert exc.value.resource == "requests"
        assert metrics.quota_exceeded == 1
        assert qos.stats["a"]["quota_rejected"] == 1
        assert qos.stats["a"]["admitted"] == 2

    def test_unmetered_tenant_never_refused(self):
        sim = Simulator()
        qos = TenantQos(sim, requests_per_s={"a": 1.0})
        for _ in range(100):
            qos.admit("b")  # no quota configured for b

    def test_quota_refills_on_simulated_clock(self, monkeypatch):
        monkeypatch.setattr(qos_module, "QUOTA_BURST_S", 0.1)
        sim = Simulator()
        qos = TenantQos(sim, requests_per_s={"a": 10.0})
        qos.admit("a")
        with pytest.raises(QuotaExceeded):
            qos.admit("a")
        sim.run(until=0.2)
        qos.admit("a")


# ---------------------------------------------------------------------------
# install_qos wiring
# ---------------------------------------------------------------------------


class TestInstallQos:
    def test_noop_when_disabled(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        install_qos(cluster, StoreConfig(admission_queue_depth=7))
        assert cluster.qos is None
        assert cluster.node(0).cpu.fair is None

    @pytest.mark.parametrize(
        "maps",
        [{"tenant_weights": {"a": 2.0}}, {"tenant_requests_per_s": {"a": 50.0}}],
        ids=["weights", "quotas"],
    )
    def test_a_tenant_map_alone_installs_the_board(self, maps):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        install_qos(cluster, StoreConfig(admission_queue_depth=7, **maps))
        assert isinstance(cluster.qos, TenantQos)
        assert cluster.qos.depth_limit == 7
        assert all(node.cpu.fair is not None for node in cluster.nodes)

    def test_installs_fair_queues_on_all_service_loops(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        config = StoreConfig(tenant_weights={"a": 2.0})
        install_qos(cluster, config)
        assert cluster.qos is not None
        assert cluster.qos.weight("a") == 2.0
        assert cluster.qos.weight("unknown") == 1.0
        for node in cluster.nodes:
            for resource in (
                node.cpu,
                node.disk.device,
                node.endpoint.egress,
                node.endpoint.ingress,
            ):
                assert resource.fair is not None

    def test_idempotent_for_store_pair(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=2))
        config = StoreConfig(tenant_weights={"a": 1.0})
        install_qos(cluster, config)
        board = cluster.qos
        assert board is not None
        install_qos(cluster, config)
        assert cluster.qos is board

    def test_runtime_added_node_gets_fair_queues(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=2))
        install_qos(cluster, StoreConfig(tenant_weights={"a": 1.0}))
        node_id = cluster.add_node()
        assert cluster.node(node_id).cpu.fair is not None

    def test_depth_falls_back_to_admission_depth(self):
        # admission_queue_depth=0 leaves the tenant sub-queues unbounded,
        # like the admission queues themselves.
        cluster = Cluster(Simulator(), ClusterConfig(num_nodes=2))
        install_qos(cluster, StoreConfig(tenant_weights={"a": 1.0}))
        assert cluster.qos.depth_limit is None


# ---------------------------------------------------------------------------
# tenant_storm fault family
# ---------------------------------------------------------------------------


class TestTenantStormFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="tenant_storm", node_id=0, rate=10.0,
                       duration=1.0)  # missing tenant
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="tenant_storm", node_id=0, tenant="a",
                       duration=1.0)  # missing rate
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="tenant_storm", node_id=0, tenant="a",
                       rate=10.0)  # missing duration

    def test_storm_fills_tenant_quota_and_queues(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=2))
        install_qos(
            cluster,
            StoreConfig(tenant_requests_per_s={"noisy": 50.0}),
        )
        schedule = [
            FaultEvent(at=0.0, kind="tenant_storm", node_id=0,
                       duration=0.5, rate=400.0, tenant="noisy", nbytes=4096)
        ]
        FaultInjector(cluster, schedule, seed=1).install()
        sim.run(until=1.0)
        stats = cluster.qos.stats["noisy"]
        # 400 req/s against a 50 req/s quota: most of the storm refused.
        assert stats["quota_rejected"] > stats["admitted"]
        assert stats["admitted"] > 0

    def test_random_schedule_old_seeds_bit_identical(self):
        base = random_schedule(
            num_nodes=6, horizon_s=10.0, seed=42,
            overloads=2, slow_bursts=1, membership=2,
        )
        with_storms = random_schedule(
            num_nodes=6, horizon_s=10.0, seed=42,
            overloads=2, slow_bursts=1, membership=2, tenant_storms=2,
        )
        # The storm family draws strictly after every existing family,
        # so removing the storm events recovers the old schedule exactly.
        assert [e for e in with_storms if e.kind != "tenant_storm"] == base
        storms = [e for e in with_storms if e.kind == "tenant_storm"]
        assert len(storms) == 2
        assert sorted(e.tenant for e in storms) == ["storm-0", "storm-1"]
