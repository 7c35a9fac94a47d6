"""``repro.check``: equal runs have equal fingerprints, and a fingerprint
key moves only when its rows do."""

import hashlib

from repro.check import digest, fingerprint
from tests.closed_loop import recorded, run


def _fingerprint(extra_event: bool) -> dict[str, str]:
    system, stream = recorded("fusion")
    if extra_event:
        system.sim.timeout(0.0)  # one more heap push; nothing waits on it
    stats = run(system, num_queries=4)
    return fingerprint(stream, system.store, stats.metrics)


def test_same_seed_runs_have_equal_fingerprints():
    first = _fingerprint(extra_event=False)
    assert set(first) == {"stream", "queries", "objects", "wal"}
    assert _fingerprint(extra_event=False) == first


def test_one_extra_scheduled_event_moves_only_the_stream():
    plain, extra = _fingerprint(extra_event=False), _fingerprint(extra_event=True)
    assert [key for key in plain if plain[key] != extra[key]] == ["stream"]


def test_digest_hashes_the_repr_of_the_row_list():
    rows = [(0.5, 1), (0.75, 2)]
    expected = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest(rows) == digest(iter(rows)) == expected
