"""Overload protection must be event-free until it acts: a fault-free
workload run with every protection knob armed (deadlines far away,
admission queues far deeper than any backlog, breakers with huge
thresholds, jitter enabled but never drawn) must produce an event stream
bit-identical to the default-knob run.  Jitter, when it *does* act, must
be deterministic per seed."""

from repro.check import digest
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.core import StoreConfig
from tests.closed_loop import each_store, fingerprinted, recorded, run, same_answers

#: Armed but inert: nothing here can fire on a fault-free run.
ARMED = dict(
    default_deadline_s=1e6,
    admission_queue_depth=10_000,
    breaker_failure_threshold=1000,
    allow_partial_results=True,
    rpc_retry_jitter=0.5,
)


@each_store
def test_armed_protection_does_not_perturb_a_fault_free_run(kind):
    system_off, stats_off, fp_off = fingerprinted(kind)
    system_on, stats_on, fp_on = fingerprinted(kind, **ARMED)

    assert fp_on == fp_off  # every scheduled event at the same time
    assert same_answers(stats_on, stats_off)

    # The armed run really installed the machinery; none of it fired.
    assert system_on.cluster.breakers is not None
    assert system_on.cluster.breakers.open_count() == 0
    assert system_off.cluster.breakers is None
    for node in system_on.cluster.nodes:
        assert node.cpu.max_queue == 10_000
        assert node.cpu.rejected_total == 0
    cm = system_on.cluster.metrics
    assert cm.deadline_exceeded == 0
    assert cm.requests_rejected == 0
    assert cm.partial_results == 0


def test_default_config_keeps_protection_off():
    config = StoreConfig()
    assert config.default_deadline_s == 0.0
    assert config.admission_queue_depth == 0
    assert config.breaker_failure_threshold == 0
    assert config.allow_partial_results is False
    assert config.rpc_retry_jitter == 0.0


# ---------------------------------------------------------------------------
# Jitter: inert without retries, deterministic per seed, active under loss
# ---------------------------------------------------------------------------


def _run_with_drop_window(jitter: float):
    """Six queries from one client while RPCs to one node are dropped,
    forcing the retry/backoff path.  Returns (stream digest, retries)."""
    system, stream = recorded("fusion", rpc_retry_jitter=jitter)
    FaultInjector(
        system.cluster,
        [FaultEvent(at=0.0, kind="drop", node_id=3, duration=10.0, rate=1.0)],
        seed=5,
    ).install()
    stats = run(system, num_queries=6, num_clients=1)
    return digest(stream), sum(qm.retries for qm in stats.metrics)


def test_jitter_is_deterministic_and_changes_backoff_under_retries():
    stream_plain, retries_plain = _run_with_drop_window(jitter=0.0)
    assert retries_plain > 0  # the drop window really forced retries

    stream_j1, retries_j1 = _run_with_drop_window(jitter=0.5)
    stream_j2, retries_j2 = _run_with_drop_window(jitter=0.5)
    # Seeded: the jittered run is exactly reproducible.
    assert stream_j1 == stream_j2
    assert retries_j1 == retries_j2 > 0
    # And it genuinely perturbs backoff sleeps relative to no jitter.
    assert stream_j1 != stream_plain
