"""Fault tolerance: lose storage nodes, recover, and keep querying.

Fusion stores each object as RS(9,6) stripes, tolerating any three lost
blocks per stripe.  This example kills nodes one at a time, runs the
repair pass (``RepairManager.repair_node``), and verifies that Get
round-trips byte-for-byte and queries keep returning correct results
throughout.

Run with::

    python examples/fault_tolerance.py
"""

import numpy as np

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import FusionStore, RepairError, RepairManager, StoreConfig
from repro.format import ColumnType, Table, write_table
from repro.sql import execute_local

# Build and store a table on a 12-node cluster.
rng = np.random.default_rng(42)
num_rows = 30_000
table = Table.from_dict(
    {
        "sensor": (ColumnType.INT64, rng.integers(0, 500, num_rows)),
        "reading": (ColumnType.DOUBLE, np.round(rng.normal(20, 5, num_rows), 3)),
        "ok": (ColumnType.BOOL, rng.random(num_rows) > 0.01),
        "site": (ColumnType.STRING, [f"site-{i % 40}" for i in range(num_rows)]),
    }
)
file_bytes = write_table(table, row_group_rows=3_000)

sim = Simulator()
cluster = Cluster(sim, ClusterConfig(num_nodes=12))
store = FusionStore(cluster, StoreConfig(size_scale=500.0))
repair = RepairManager(store)
report = store.put("telemetry", file_bytes)
print(
    f"stored 'telemetry': {report.num_stripes} RS(9,6) stripes, "
    f"{report.stored_bytes:,} bytes on disk "
    f"({report.overhead_vs_optimal * 100:.2f}% above optimal parity cost)"
)

sql = "SELECT sensor, reading FROM telemetry WHERE reading > 35 AND ok = true"
reference = execute_local(sql, table)
print(f"reference query result: {reference.matched_rows} rows\n")


def kill_node(node_id: int) -> int:
    """Fail a node with the loss of its disk; returns the blocks lost."""
    lost = len(cluster.node(node_id)._blocks)
    cluster.fail_node(node_id, wipe=True)
    return lost


# Fail three nodes in sequence, repairing after each failure: the repair
# pass rebuilds the lost blocks onto live nodes, then the empty node
# rejoins.
victims = store.objects["telemetry"].stripes[0].node_ids[:3]
for round_number, victim in enumerate(victims, start=1):
    lost_blocks = kill_node(victim)
    rebuilt = repair.repair_node(victim).blocks_repaired
    cluster.restore_node(victim)
    result, _ = store.query(sql)
    ok = result.equals(reference)
    print(
        f"failure {round_number}: node {victim} lost {lost_blocks} blocks -> "
        f"rebuilt {rebuilt}; query correct: {ok}"
    )
    assert ok

# Byte-level integrity after all that churn.
assert store.get("telemetry") == file_bytes
print("\nobject bytes identical after three failures and recoveries: OK")

# Degraded reads: queries keep working while a node is DOWN (before any
# recovery runs) — the store reconstructs the missing chunks on the fly
# from k surviving stripe blocks, at a latency cost.
placement = store.objects["telemetry"].stripes[0]
down = placement.node_ids[0]
_healthy_result, healthy_metrics = store.query(sql)
cluster.fail_node(down)
degraded_result, degraded_metrics = store.query(sql)
assert degraded_result.equals(reference)
cluster.restore_node(down)
print(
    f"\ndegraded read with node {down} down: correct results, "
    f"{degraded_metrics.latency / healthy_metrics.latency:.1f}x the healthy latency"
)

# Scrubbing: verify parity consistency end to end.
report = store.verify_object("telemetry")
print(f"scrub: {report.stripes_checked} stripes checked, clean={report.clean}")
assert report.clean

# Beyond tolerance: losing parity+1 nodes of one stripe simultaneously is
# unrecoverable — demonstrate that the store reports it rather than
# returning corrupt data.
placement = store.objects["telemetry"].stripes[0]
simultaneous = placement.node_ids[:4]
for victim in simultaneous:
    kill_node(victim)
try:
    repair.repair_node(simultaneous[0])
    print("unexpected: recovery succeeded beyond the code's tolerance")
except RepairError as exc:
    print(f"\nsimultaneous 4-node loss correctly detected as unrecoverable:\n  {exc}")
