"""The QoS layer must be event-free until it acts: a fault-free workload
run with QoS armed but inert — fair queues installed, generous weights,
quotas far above the offered load — and **no tenant on any request**
must produce an event stream bit-identical to the pre-QoS default run.
Tenanted runs must be deterministic, and the default config keeps every
QoS knob off."""

import functools

from repro.check import fingerprint
from repro.core import StoreConfig
from tests.closed_loop import NUM_QUERIES, each_store, fingerprinted, recorded, run, same_answers

#: Armed but inert: the tenant maps alone install fair queues on every
#: service loop, with quotas far above anything the workload offers.
#: Untenanted requests must still take the legacy code path untouched.
ARMED = dict(
    tenant_weights={"a": 2.0, "b": 1.0},
    tenant_requests_per_s={"a": 1e9},
)


@each_store
def test_armed_qos_does_not_perturb_an_untenanted_run(kind):
    system_off, stats_off, fp_off = fingerprinted(kind)
    system_on, stats_on, fp_on = fingerprinted(kind, **ARMED)

    assert fp_on == fp_off  # every scheduled event at the same time
    assert same_answers(stats_on, stats_off)

    # The armed run really installed the machinery; none of it fired.
    assert system_on.cluster.qos is not None
    assert system_off.cluster.qos is None
    for node in system_on.cluster.nodes:
        assert node.cpu.fair is not None
        assert node.cpu.fair.total == 0
        assert node.disk.device.fair is not None
    cm = system_on.cluster.metrics
    assert cm.quota_exceeded == 0
    assert cm.tenants == {}


def _tenanted(kind: str):
    """The armed scenario with every query issued as tenant ``a``."""
    system, stream = recorded(kind, **ARMED)
    store = system.store
    store.query_process = functools.partial(store.query_process, tenant="a")
    stats = run(system)
    return system, stats, fingerprint(stream, store, stats.metrics)


@each_store
def test_tenanted_run_is_deterministic_and_labelled(kind):
    system_1, stats_1, fp_1 = _tenanted(kind)
    _system_2, stats_2, fp_2 = _tenanted(kind)

    assert fp_1 == fp_2
    assert same_answers(stats_1, stats_2)

    cm = system_1.cluster.metrics
    assert set(cm.tenants) == {"a"}
    assert cm.tenants["a"]["queries"] == NUM_QUERIES
    assert cm.tenants["a"]["goodput"] == NUM_QUERIES
    assert system_1.cluster.qos.stats["a"]["admitted"] == NUM_QUERIES


def test_default_config_keeps_qos_off():
    config = StoreConfig()
    assert config.tenant_weights == {}
    assert config.tenant_requests_per_s == {}
