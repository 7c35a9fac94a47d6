"""One fingerprint of a simulated run, for identity and determinism checks.

Two runs of one scenario are the same run exactly when their
fingerprints are equal.  :func:`fingerprint` reduces a run to the sha256
of four canonical row lists:

* ``stream``: every heap push ``(at, seq)``, as recorded by
  :func:`repro.cluster.record_schedule` from before the first Put;
* ``queries``: one :func:`query_row` per query, in completion order;
* ``objects``: :func:`object_state`, every object's metadata epoch,
  replica holders and stripe placements;
* ``wal``: one :func:`wal_row` per record of ``cluster.wal_records()``.

Every row is simulated state.  Host-clock readings and the order of
set-like fields stay out, so one seed gives one fingerprint on any host.
A test that pins a run keeps the digests it needs; one that runs a
scenario of its own hashes its rows through :func:`digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable


def digest(rows: Iterable) -> str:
    """sha256 of ``repr(list(rows))``."""
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


def query_row(metrics) -> tuple:
    """When a query ran, what it moved and how many messages it sent."""
    return (metrics.start_time, metrics.end_time, metrics.network_bytes, metrics.rpcs_issued)


def placements(obj) -> list:
    """``(stripe_id, node_ids, data_sizes)`` per stripe (size 0 = never
    written)."""
    return [(p.stripe_id, tuple(p.node_ids), tuple(p.data_sizes)) for p in obj.stripes]


def object_state(store) -> list:
    """Every stored object's name, metadata epoch, replica holders and
    placements, in name order."""
    return [
        (name, obj.meta_epoch, tuple(obj.replica_nodes), placements(obj))
        for name, obj in sorted(store.objects.items())
    ]


def wal_row(record) -> tuple:
    """One WAL record; the blocks an intent names are a set (roll-back
    and redo GC every one of them), so their order is canonicalised."""
    fields = dataclasses.asdict(record)
    blocks = sorted(zip(fields.pop("blocks"), fields.pop("block_sizes")))
    return tuple(fields.values()) + (tuple(blocks),)


def fingerprint(stream, store, metrics: Iterable = ()) -> dict[str, str]:
    """Digests of a run: its recorded ``stream``, the per-query
    ``metrics``, and ``store``'s objects and WAL as they stand now."""
    return {
        "stream": digest(stream),
        "queries": digest(query_row(m) for m in metrics),
        "objects": digest(object_state(store)),
        "wal": digest(wal_row(r) for r in store.cluster.wal_records()),
    }
