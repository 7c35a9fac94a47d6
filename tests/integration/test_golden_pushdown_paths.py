"""Golden pushdown paths: the query paths the golden scenario never takes.

``test_golden_identity`` runs Fusion with adaptive pushdown and no
aggregate pushdown, so its digests never reach the partial-aggregate
stage, a projection the Cost Equation must push, or one it must fetch.
Each of those runs here on the closed-loop scenario
(``tests/closed_loop.py``), healthy and again with node 2 wiped and
failed before the queries (every op on it routes to reconstruction),
and is reduced to the ``repro.check`` fingerprint plus the digest of
the pushdown audit log.  The digests were computed before the query
path's chunk ops were folded into one routine, and a wall-only change
must leave them where they are.
"""

import dataclasses

import pytest

from repro.check import digest, fingerprint
from repro.core import PushdownMode
from tests.closed_loop import NUM_QUERIES, recorded, run

VICTIM = 2

#: The knob sets whose query paths the golden scenario never takes.
PATHS = {
    "aggregate_pushdown": {"enable_aggregate_pushdown": True},
    "always_push": {"pushdown_mode": PushdownMode.ALWAYS},
    "never_push": {"pushdown_mode": PushdownMode.NEVER},
}

#: (path, node 2 wiped) -> (stream, queries, objects, wal, audit) digests,
#: computed on a739dd9, the parent of the one chunk-op routine.
GOLDEN = {
    ("aggregate_pushdown", False): (
        "9d6bf7ec326dbf9cb1fd2f8d73ce19689c0c9dfe3420fe5b04e1e9d6c63b82ff",
        "f9b13430eca33453b1dad04261d9eb1335c455c1d6e46f206fdbcaf29105ee16",
        "3e146fc0327e704141d51047c27a0f0de5bc4bfea5f965e1798e3b777a47e16e",
        "be925776d1cc49a26b936d133a726cbbd775bc1ae2e0bfd73a87ad31d276b49e",
        "c0a678cd970ed28253c1ba165b568abb3cd1da2360080992707b7c49d4866162",
    ),
    ("aggregate_pushdown", True): (
        "fa3d01c46f73d9a8d5fca33103de86f527c67eaad300f24eeb8a8e730c65b2af",
        "5351c6d7faad6574c2817e7ff1861bf569a89b80cb8da3a644c99a802611f4fa",
        "3e146fc0327e704141d51047c27a0f0de5bc4bfea5f965e1798e3b777a47e16e",
        "be925776d1cc49a26b936d133a726cbbd775bc1ae2e0bfd73a87ad31d276b49e",
        "20dcbd1adc29add56b6cd3028f80733059a301c7cf69edb03014fdc88d6afbbe",
    ),
    ("always_push", False): (
        "5448b90604a3a5e8e67fb3dedc6a4d771726760a9f102a1bd6e6039952bb06e0",
        "ae1d4b07e3057c864a4758fd7bee0ccbc8aa02b990299f5c0d378129a04519e4",
        "3e146fc0327e704141d51047c27a0f0de5bc4bfea5f965e1798e3b777a47e16e",
        "be925776d1cc49a26b936d133a726cbbd775bc1ae2e0bfd73a87ad31d276b49e",
        "15dd6b0c4b329f06cf1dc1742d55d291db7f2c31648d5baa47d383ed71277e37",
    ),
    ("always_push", True): (
        "18016632f10aaf3074d00ab02f1ef115f48898009aed6921e39db42449f52539",
        "7d15b263e25208de752935bcb3df96d092a6daf089b9f716c45d9810d6514467",
        "3e146fc0327e704141d51047c27a0f0de5bc4bfea5f965e1798e3b777a47e16e",
        "be925776d1cc49a26b936d133a726cbbd775bc1ae2e0bfd73a87ad31d276b49e",
        "fbda5c7d416cc727c9c024bc05901592773c848e0f0c404ed1fb4c21494f2690",
    ),
    ("never_push", False): (
        "195438fee73d5436c0bde8f6dad61bda6c59fb39afd4504819803fe81ffe4963",
        "47a7bf0d3c2f9c63ffa4bfcca31b0bd951906e3c367ee4bfd36891333b7ae639",
        "3e146fc0327e704141d51047c27a0f0de5bc4bfea5f965e1798e3b777a47e16e",
        "be925776d1cc49a26b936d133a726cbbd775bc1ae2e0bfd73a87ad31d276b49e",
        "3e2d0bc2c934b4d675bdd632acabca1ea7098b0f27a938212589c57dab81d3ee",
    ),
    ("never_push", True): (
        "6f062801dc7217ca8c3dc0188b9307a17d5506204312e1a1085e3b5f6f6f8de3",
        "84a3cac2ecff3a5e816be4862f4f3ad3f44f6b105ec32a98227418a0d08f88b8",
        "3e146fc0327e704141d51047c27a0f0de5bc4bfea5f965e1798e3b777a47e16e",
        "be925776d1cc49a26b936d133a726cbbd775bc1ae2e0bfd73a87ad31d276b49e",
        "8307cbcd98d7b79d575f2a0221c7ac8e751ceb7d5c6090131dfb43a7d5170283",
    ),
}


def scenario(path: str, wiped: bool) -> tuple[str, ...]:
    """Run the closed-loop queries on ``path``'s knobs; returns the
    fingerprint's four digests and the audit log's."""
    system, stream = recorded("fusion", **PATHS[path])
    if wiped:
        system.cluster.fail_node(VICTIM, wipe=True)
    stats = run(system)
    store = system.store
    assert len(stats.metrics) == NUM_QUERIES
    assert any(m.degraded_reads for m in stats.metrics) == wiped
    pinned = fingerprint(stream, store, stats.metrics)
    audit = digest(dataclasses.astuple(r) for r in store.audit.records)
    return (pinned["stream"], pinned["queries"], pinned["objects"], pinned["wal"], audit)


@pytest.mark.parametrize("wiped", [False, True], ids=["healthy", "wiped"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_hashes_to_the_values_pinned_before_the_chunk_op_refactor(path, wiped):
    assert scenario(path, wiped) == GOLDEN[path, wiped]
