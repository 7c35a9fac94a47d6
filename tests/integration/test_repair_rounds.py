"""Node repair runs in rounds: one exchange per node pair per round.

``RepairManager.repair_node`` rebuilds its stripes in rounds of
``REPAIR_ROUND_STRIPES``.  A round reads every shard it needs from one
node for one coordinator in one exchange, and writes every rebuilt block
bound for one holder in one transfer, so an object of ~40 stripes costs
one message per (source, coordinator) and per (coordinator, holder) pair,
not one per shard.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, RepairManager, StoreConfig
from repro.core.repair import REPAIR_ROUND_STRIPES
from repro.format import ColumnType, Table, write_table

ROWS, GROUPS = 60, 80  # 40 stripes in either layout


def _file() -> bytes:
    n = ROWS * GROUPS
    table = Table.from_dict(
        {
            "id": (ColumnType.INT64, np.arange(n)),
            "val": (ColumnType.INT64, np.arange(n) % 7),
            "x": (ColumnType.DOUBLE, np.arange(n) * 0.5),
        }
    )
    return write_table(table, row_group_rows=ROWS)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_repair_node_opens_one_exchange_per_node_pair_per_round(store_cls):
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=9))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=100.0, storage_overhead_threshold=0.5, block_size=33_000),
    )
    data = _file()
    store.put("big", data)
    obj = store.objects["big"]
    assert len(obj.stripes) == 40
    coordinator = cluster.coordinator_for("big").node_id
    victim = next(
        nid for nid in range(cluster.num_nodes)
        if nid != coordinator and sum(nid in p.node_ids for p in obj.stripes) > 1
    )
    lost = sum(
        1 for p in obj.stripes for nid, _bid, _size, _crc in p.stored_blocks() if nid == victim
    )
    cluster.fail_node(victim, wipe=True)

    messages: dict[tuple[str, str], int] = {}
    transfer = cluster.network.transfer

    def counted(src, dst, nbytes, query=None):
        if src is not dst:
            messages[src.name, dst.name] = messages.get((src.name, dst.name), 0) + 1
        return transfer(src, dst, nbytes, query)

    cluster.network.transfer = counted
    issued = cluster.network.rpcs_issued
    report = RepairManager(store).repair_node(victim)

    rounds = math.ceil(len(obj.stripes) / REPAIR_ROUND_STRIPES)
    hub = cluster.node(coordinator).endpoint.name
    assert messages and all(hub in pair for pair in messages)
    assert max(messages.values()) <= rounds, messages
    assert cluster.network.rpcs_issued - issued == sum(messages.values())
    assert report.blocks_repaired == lost and report.stripes_deferred == 0
    assert store.fsck().clean
    assert store.verify_object("big").clean
    assert store.get("big") == data
