"""Test oracle: the detached hold as the generator process it used to be.

``Resource.occupy`` replaced this process (``repro.cluster.network._occupy``
up to PR 16) with two heap callbacks; it must stay event-for-event
equivalent to spawning it.  Kept only for differential testing.
"""

from repro.cluster.simcore import QueueFull, Resource, Simulator


def occupy_process(sim: Simulator, resource: Resource, seconds: float, priority):
    """Occupy one slot of ``resource`` for ``seconds``.

    Accounting-only: if the queue is admission-bounded and full, the
    charge is dropped rather than failing whoever spawned this detached
    process.
    """
    try:
        with (yield from resource.acquire(priority)):
            yield sim.timeout(seconds)
    except QueueFull:
        pass
