"""Network model: transfer timing, contention, loopback, CPU charging,
link faults and the delivery rule."""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.metrics import NETWORK, QueryMetrics
from repro.cluster.network import Network, NetworkConfig, NetworkEndpoint
from repro.cluster.simcore import LinkDown, Resource, Simulator


def _net(sim, bw=1e9, rtt=0.0, rpc=0.0, cpu_bps=0.0):
    return Network(sim, NetworkConfig(bandwidth_bps=bw, rtt_s=rtt, rpc_overhead_s=rpc, cpu_bps=cpu_bps))


class TestTransferTiming:
    def test_duration_is_bytes_over_bandwidth(self):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.transfer(a, b, 500_000_000))
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_rtt_and_rpc_overhead_added(self):
        sim = Simulator()
        net = _net(sim, bw=1e9, rtt=0.002, rpc=0.003)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.transfer(a, b, 0))
        sim.run()
        assert sim.now == pytest.approx(0.001 + 0.003)

    def test_loopback_is_free(self):
        sim = Simulator()
        net = _net(sim, bw=1, rtt=10, rpc=10)
        a = NetworkEndpoint(sim, "a")
        sim.process(net.transfer(a, a, 10**9))
        sim.run()
        assert sim.now == 0.0
        assert net.total_bytes == 0

    def test_negative_bytes_raise(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        proc_gen = net.transfer(a, b, -1)
        sim.process(proc_gen)
        with pytest.raises(ValueError):
            sim.run()


class TestContention:
    def test_shared_egress_serialises(self):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        src = NetworkEndpoint(sim, "src")
        dsts = [NetworkEndpoint(sim, f"d{i}") for i in range(3)]
        for d in dsts:
            sim.process(net.transfer(src, d, 1_000_000_000))
        sim.run()
        # Three 1s transfers through one egress pipe: 3 seconds.
        assert sim.now == pytest.approx(3.0)

    def test_distinct_pairs_run_in_parallel(self):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        pairs = [
            (NetworkEndpoint(sim, f"s{i}"), NetworkEndpoint(sim, f"d{i}")) for i in range(3)
        ]
        for s, d in pairs:
            sim.process(net.transfer(s, d, 1_000_000_000))
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_shared_ingress_serialises(self):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        dst = NetworkEndpoint(sim, "dst")
        srcs = [NetworkEndpoint(sim, f"s{i}") for i in range(2)]
        for s in srcs:
            sim.process(net.transfer(s, dst, 1_000_000_000))
        sim.run()
        assert sim.now == pytest.approx(2.0)


class TestAccounting:
    def test_total_bytes(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.transfer(a, b, 123))
        sim.process(net.transfer(b, a, 77))
        sim.run()
        assert net.total_bytes == 200

    def test_query_metrics_charged(self):
        sim = Simulator()
        net = _net(sim, bw=1e9, rtt=0.002)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        qm = QueryMetrics()
        sim.process(net.transfer(a, b, 1_000_000, qm))
        sim.run()
        assert qm.network_bytes == 1_000_000
        assert qm.seconds[NETWORK] == pytest.approx(0.002)

    def test_cpu_charged_at_endpoints(self):
        sim = Simulator()
        net = _net(sim, bw=1e9, cpu_bps=1e9)
        cpu_a, cpu_b = Resource(sim, 4), Resource(sim, 4)
        a = NetworkEndpoint(sim, "a", cpu=cpu_a)
        b = NetworkEndpoint(sim, "b", cpu=cpu_b)
        sim.process(net.transfer(a, b, 2_000_000_000))
        sim.run()
        cpu_a._account()
        cpu_b._account()
        assert cpu_a.busy_time == pytest.approx(2.0)
        assert cpu_b.busy_time == pytest.approx(2.0)

    def test_no_cpu_charge_without_cpu(self):
        sim = Simulator()
        net = _net(sim, cpu_bps=1e9)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.transfer(a, b, 1000))
        sim.run()  # must simply not crash

    def test_bandwidth_knob(self):
        """A cluster's ``NetworkConfig`` sets the bandwidth its transfers
        run at: 10 Gbps moves 1.25 GB in one second."""
        sim = Simulator()
        fabric = NetworkConfig(bandwidth_bps=10e9 / 8, rtt_s=0.0, rpc_overhead_s=0.0, cpu_bps=0.0)
        cluster = Cluster(sim, ClusterConfig(num_nodes=2, network=fabric))
        assert cluster.network.config.bandwidth_bps == pytest.approx(10e9 / 8)
        sim.process(cluster.network.transfer(cluster.client, cluster.node(1).endpoint, 1_250_000_000))
        sim.run()
        assert sim.now == pytest.approx(1.0)


class TestBatchTransfer:
    def test_one_overhead_for_whole_batch(self):
        sim = Simulator()
        net = _net(sim, bw=1e9, rtt=0.002, rpc=0.003)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.batch_transfer(a, b, [500_000_000, 250_000_000, 250_000_000]))
        sim.run()
        # 1 GB of payload at 1 GB/s plus ONE half-RTT and ONE rpc overhead.
        assert sim.now == pytest.approx(1.0 + 0.001 + 0.003)

    def test_counts_issued_and_saved(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        qm = QueryMetrics()
        sim.process(net.batch_transfer(a, b, [10, 20, 30], qm))
        sim.process(net.transfer(a, b, 5, qm))
        sim.run()
        assert net.rpcs_issued == 2
        assert net.rpcs_saved == 2
        assert qm.rpcs_issued == 2 and qm.rpcs_saved == 2
        assert qm.network_bytes == 65
        assert net.total_bytes == 65

    def test_empty_batch_is_noop(self):
        sim = Simulator()
        net = _net(sim, rtt=10, rpc=10)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.batch_transfer(a, b, []))
        sim.run()
        assert sim.now == 0.0
        assert net.rpcs_issued == 0

    def test_loopback_batch_is_free(self):
        sim = Simulator()
        net = _net(sim, rtt=10, rpc=10)
        a = NetworkEndpoint(sim, "a")
        sim.process(net.batch_transfer(a, a, [100, 200]))
        sim.run()
        assert sim.now == 0.0
        assert net.total_bytes == 0 and net.rpcs_issued == 0

    def test_negative_size_raises(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.batch_transfer(a, b, [10, -1]))
        with pytest.raises(ValueError):
            sim.run()

    def test_single_transfer_counts_one_issued(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.transfer(a, b, 100))
        sim.run()
        assert net.rpcs_issued == 1 and net.rpcs_saved == 0


class TestStreamTransfer:
    def test_pays_bytes_only(self):
        sim = Simulator()
        net = _net(sim, bw=1e9, rtt=0.002, rpc=0.003)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.stream_transfer(a, b, 500_000_000))
        sim.run()
        assert sim.now == pytest.approx(0.5)  # no RTT, no rpc overhead

    def test_half_rtt_for_first_reply(self):
        sim = Simulator()
        net = _net(sim, bw=1e9, rtt=0.002, rpc=0.003)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.stream_transfer(a, b, 0, half_rtt=True))
        sim.run()
        assert sim.now == pytest.approx(0.001)

    def test_counts_as_saved_not_issued(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        qm = QueryMetrics()
        sim.process(net.stream_transfer(a, b, 42, qm))
        sim.run()
        assert net.rpcs_issued == 0 and net.rpcs_saved == 1
        assert qm.rpcs_issued == 0 and qm.rpcs_saved == 1
        assert qm.network_bytes == 42 and net.total_bytes == 42

    def test_loopback_is_free_and_uncounted(self):
        sim = Simulator()
        net = _net(sim, rtt=10, rpc=10)
        a = NetworkEndpoint(sim, "a")
        sim.process(net.stream_transfer(a, a, 1000, half_rtt=True))
        sim.run()
        assert sim.now == 0.0
        assert net.total_bytes == 0 and net.rpcs_saved == 0

    def test_negative_bytes_raise(self):
        sim = Simulator()
        net = _net(sim)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        sim.process(net.stream_transfer(a, b, -5))
        with pytest.raises(ValueError):
            sim.run()

    def test_queues_through_pipes(self):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        src = NetworkEndpoint(sim, "src")
        dsts = [NetworkEndpoint(sim, f"d{i}") for i in range(3)]
        for d in dsts:
            sim.process(net.stream_transfer(src, d, 1_000_000_000))
        sim.run()
        # Streamed payloads still serialise through the shared egress pipe.
        assert sim.now == pytest.approx(3.0)


class TestLinkFaultPlane:
    def test_set_and_clear_link(self):
        sim = Simulator()
        net = _net(sim)
        net.set_link("a", "b", severed=True)
        assert net.link("a", "b").severed
        assert net.link("b", "a") is None  # directed
        assert net.severed_link_count() == 1
        net.clear_link("a", "b")
        assert net.link("a", "b") is None
        assert not net.links  # empty matrix keeps the hot path guard true

    def test_set_link_all_clear_removes_entry(self):
        sim = Simulator()
        net = _net(sim)
        net.set_link("a", "b", drop_rate=0.5)
        assert net.link("a", "b").drop_rate == 0.5
        net.set_link("a", "b")  # all axes back to defaults
        assert not net.links

    def test_link_severed_either_direction(self):
        sim = Simulator()
        net = _net(sim)
        net.set_link("b", "a", severed=True)  # only the reply leg
        assert net.link_severed("a", "b")
        assert net.link_severed("b", "a")
        assert not net.link_severed("a", "c")

    def test_extra_latency_charged_to_one_direction(self):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        a, b = NetworkEndpoint(sim, "a"), NetworkEndpoint(sim, "b")
        net.set_link("a", "b", extra_latency_s=0.25)
        start = sim.now
        sim.process(net.transfer(a, b, 1000))
        sim.run()
        degraded = sim.now - start
        start = sim.now
        sim.process(net.transfer(b, a, 1000))
        sim.run()
        reverse = sim.now - start
        assert degraded >= reverse + 0.25

    def test_empty_matrix_costs_nothing(self):
        """With no link faults installed, timings match a fresh network."""
        sim1 = Simulator()
        net1 = _net(sim1, bw=1e9, rtt=0.002)
        a1, b1 = NetworkEndpoint(sim1, "a"), NetworkEndpoint(sim1, "b")
        sim1.process(net1.transfer(a1, b1, 10_000_000))
        sim1.run()

        sim2 = Simulator()
        net2 = _net(sim2, bw=1e9, rtt=0.002)
        a2, b2 = NetworkEndpoint(sim2, "a"), NetworkEndpoint(sim2, "b")
        net2.set_link("a", "b", extra_latency_s=0.25)
        net2.clear_link("a", "b")
        sim2.process(net2.transfer(a2, b2, 10_000_000))
        sim2.run()
        assert sim2.now == sim1.now  # bit-identical, not approx


#: The three transfer kinds, each moving ``nbytes`` from ``src`` to ``dst``.
SENDS = {
    "transfer": lambda net, src, dst, nbytes, query=None: net.transfer(src, dst, nbytes, query),
    "batch": lambda net, src, dst, nbytes, query=None: net.batch_transfer(
        src, dst, [nbytes], query
    ),
    "stream": lambda net, src, dst, nbytes, query=None: net.stream_transfer(
        src, dst, nbytes, query
    ),
}


@pytest.mark.parametrize("kind", SENDS)
class TestDeliveryRule:
    """The network delivers only between two live endpoints that no
    severed leg separates: refused at dispatch before any pipe is taken,
    and failed at delivery when an endpoint dies or the link is cut in
    flight (the bytes already crossed the wire and stay counted)."""

    def _endpoints(self, sim):
        return [NetworkEndpoint(sim, name) for name in ("a", "b", "c")]

    def _send(self, sim, net, kind, src, dst, nbytes, seen, key, query=None):
        """Process: one transfer; ``seen[key]`` is (outcome, time)."""

        def proc():
            try:
                yield from SENDS[kind](net, src, dst, nbytes, query)
                seen[key] = ("delivered", sim.now)
            except LinkDown:
                seen[key] = ("refused", sim.now)

        return sim.process(proc())

    def _refused_at_dispatch(self, kind, cut, behind_src=False):
        """``a -> b`` under ``cut(net, a, b)``, with ``a -> c`` queued
        behind it on a's egress pipe (``c -> b`` on b's ingress pipe when
        ``behind_src``: a is the endpoint that is down)."""
        sim = Simulator()
        net = _net(sim, bw=1e9)
        a, b, c = self._endpoints(sim)
        cut(net, a, b)
        seen = {}
        self._send(sim, net, kind, a, b, 500_000_000, seen, "cut")
        behind = (c, b) if behind_src else (a, c)
        self._send(sim, net, kind, *behind, 500_000_000, seen, "behind")
        sim.run()
        assert seen["cut"] == ("refused", 0.0)
        assert seen["behind"] == ("delivered", pytest.approx(0.5))  # no delay
        assert net.total_bytes == 500_000_000  # the refused bytes never moved
        assert net.rpcs_issued + net.rpcs_saved == 1

    @pytest.mark.parametrize("leg", ["forward", "reverse"])
    def test_severed_leg_refuses_at_dispatch(self, kind, leg):
        def cut(net, a, b):
            ends = (a.name, b.name) if leg == "forward" else (b.name, a.name)
            net.set_link(*ends, severed=True)

        self._refused_at_dispatch(kind, cut)

    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_dead_endpoint_refuses_at_dispatch(self, kind, end):
        def cut(_net, a, b):
            (a if end == "src" else b).alive = False

        self._refused_at_dispatch(kind, cut, behind_src=end == "src")

    @pytest.mark.parametrize("fault", ["src_dies", "dst_dies", "link_cut"])
    def test_fault_in_flight_fails_at_delivery_with_bytes_counted(self, kind, fault):
        sim = Simulator()
        net = _net(sim, bw=1e9)
        a, b, _c = self._endpoints(sim)
        query = QueryMetrics()
        seen = {}
        self._send(sim, net, kind, a, b, 1_000_000_000, seen, "flight", query)

        def strike():
            yield sim.timeout(0.5)
            if fault == "link_cut":
                net.set_link(a.name, b.name, severed=True)
            else:
                (a if fault == "src_dies" else b).alive = False

        sim.process(strike())
        sim.run()
        assert seen["flight"] == ("refused", pytest.approx(1.0))
        assert net.total_bytes == 1_000_000_000
        assert query.network_bytes == 1_000_000_000

    def test_loopback_and_the_client_are_unaffected(self, kind):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=3))
        cluster.fail_node(0)
        dead, live = cluster.node(0), cluster.node(1)
        assert not dead.endpoint.alive  # one liveness bit
        assert cluster.client.alive
        assert not cluster.delivers(0, 1) and not cluster.delivers(0, 0)
        seen = {}
        self._send(sim, cluster.network, kind, dead.endpoint, dead.endpoint, 1000, seen, "loop")
        self._send(sim, cluster.network, kind, cluster.client, live.endpoint, 1000, seen, "in")
        self._send(sim, cluster.network, kind, live.endpoint, cluster.client, 1000, seen, "out")
        self._send(sim, cluster.network, kind, cluster.client, dead.endpoint, 1000, seen, "dead")
        sim.run()
        assert {key: outcome for key, (outcome, _t) in seen.items()} == {
            "loop": "delivered", "in": "delivered", "out": "delivered", "dead": "refused",
        }
        cluster.restore_node(0)
        assert dead.endpoint.alive and cluster.delivers(0, 1)
