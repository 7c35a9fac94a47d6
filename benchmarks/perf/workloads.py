"""The four workloads: what is generated, what is timed, what is checked.

Every workload drives ``FusionStore`` and ``BaselineStore`` with the same
generated inputs, each on its own simulator, one after the other (one host
thread, never two systems at once).  All loops are closed: a simulated
client issues its next request only after the previous one completed.

Sizes are fixed per workload (``--smoke`` divides them for the self-test
only).  The README states each size against the cache it is meant to fit
in or overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from configs import KINDS, System, build_system
from hostclock import HostClock, Meter
from repro.cluster import QueryMetrics, Resource, Simulator
from repro.core import RepairManager
from repro.format import read_table, write_table
from repro.sql import execute_local
from repro.workloads import (
    column_name,
    lineitem_table,
    microbenchmark_query,
    real_world_queries,
    recipe_table,
    taxi_table,
    ukpp_table,
)

CLIENTS = 10
#: Completed queries between two calibrations inside a concurrent run
#: (~90 ms of wall: shorter than a host speed phase).
CALIBRATE_EVERY = 15


@dataclass
class StoreRun:
    """What one store did during one timed repeat."""

    meter: Meter
    ops: int = 0
    failed: int = 0
    sim_latencies_s: list[float] = field(default_factory=list)
    sim_net_bytes: int = 0
    stored_per_user_byte: float = 0.0
    sim_cpu_utilization: float = 0.0
    queries: list[QueryMetrics] = field(default_factory=list)
    repair_sim_s: float = 0.0
    repair_sim_bytes: int = 0
    rebuilt_sim_bytes: int = 0
    fac_overhead: list[float] = field(default_factory=list)
    obs_spans: int = 0
    obs_scrapes: int = 0
    audit: object | None = None

    def timed_op(self, what: str, call, tracer=None):
        """One serial op: counted, its index stamped on the traced spans,
        timed; if it raises it is a failed op and the result is ``None``."""
        if tracer is not None:
            tracer.op = self.ops
        self.ops += 1
        try:
            with self.meter:
                return call()
        except Exception as exc:  # typed refusals and bugs alike fail the op
            self.failed += 1
            print(f"  {what} raised: {exc!r}")
            return None
        finally:
            if tracer is not None:
                tracer.op = None

    def fingerprint(self) -> tuple:
        """Everything simulated and exact: must repeat bit-for-bit."""
        return (
            self.ops,
            self.failed,
            tuple(self.sim_latencies_s),
            self.sim_net_bytes,
            self.stored_per_user_byte,
            tuple((q.start_time, q.end_time, q.network_bytes, q.rpcs_issued) for q in self.queries),
            self.repair_sim_s,
            self.repair_sim_bytes,
        )


@dataclass
class Repeat:
    """One timed repeat: a :class:`StoreRun` per store plus checks made."""

    runs: dict[str, StoreRun]
    checks: int = 0
    check_failures: list[str] = field(default_factory=list)


@dataclass
class State:
    """Generated inputs and warmed systems, with what producing them cost."""

    meters: dict[str, Meter]
    gen_rows: int = 0
    tables: dict = field(default_factory=dict)
    files: dict[str, bytes] = field(default_factory=dict)
    sqls: list[tuple[str, str]] = field(default_factory=list)  # (sql, source table)
    systems: dict[str, System] = field(default_factory=dict)
    warm: dict[str, list] = field(default_factory=dict)  # store kind -> one result per SQL
    expected: list = field(default_factory=list)
    #: True once a repeat has run on ``systems`` (see ``Workload.prepare``).
    used: bool = False
    #: query_telemetry only: the telemetry-off twin of ``systems`` and the
    #: repeats it has run.
    plain_systems: dict[str, System] = field(default_factory=dict)
    plain_repeats: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(m.calibrated_s for m in self.meters.values())


def _new_state(clock: HostClock) -> State:
    return State({stage: Meter(clock) for stage in ("gen", "encode", "build", "warm")})


def closed_loop(
    system: System,
    sqls: list[tuple[str, str]],
    num_queries: int,
    meter: Meter,
) -> tuple[list[QueryMetrics], list[tuple[int, object]], int]:
    """``CLIENTS`` simulated clients issue ``num_queries`` queries round-robin
    over ``sqls``.  Returns the completed queries' metrics, ``(sql index,
    result)`` pairs, and how many queries raised.  Call it inside
    ``with meter:``; the clients then cut the run into calibrated laps."""
    metrics: list[QueryMetrics] = []
    results: list[tuple[int, object]] = []
    raised = 0
    finished = 0

    def client(cid: int, count: int):
        nonlocal raised, finished
        for qi in range(count):
            index = (cid + qi * CLIENTS) % len(sqls)
            qm = QueryMetrics()
            try:
                result = yield from system.store.query_process(sqls[index][0], qm)
            except Exception as exc:  # typed refusals and bugs alike fail the op
                raised += 1
                print(f"  query raised on {system.kind}: {sqls[index][0]!r}: {exc!r}")
            else:
                metrics.append(qm)
                results.append((index, result))
            finished += 1
            if finished % CALIBRATE_EVERY == 0 and finished < num_queries:
                meter.lap()

    share, extra = divmod(num_queries, CLIENTS)
    for cid in range(CLIENTS):
        if share + (cid < extra):
            system.sim.process(client(cid, share + (cid < extra)))
    system.sim.run()
    return metrics, results, raised


def build_loaded(files: dict[str, bytes], telemetry: bool = False) -> dict[str, System]:
    """A fresh system per store with every file Put into it."""
    systems = {kind: build_system(kind, telemetry) for kind in KINDS}
    for system in systems.values():
        for name, data in files.items():
            system.store.put(name, data)
    return systems


def _query_run(system: System, state: State, num_queries: int, clock: HostClock) -> StoreRun:
    """One closed-loop pass on a long-lived system, verified against the oracle."""
    run = StoreRun(Meter(clock))
    net_before = system.cluster.network.total_bytes
    tracer = system.sim.tracer
    spans_before = len(tracer.spans) if tracer is not None else 0
    with run.meter:
        run.queries, results, raised = closed_loop(system, state.sqls, num_queries, run.meter)
    run.ops = num_queries
    run.failed = raised + sum(not result.equals(state.expected[i]) for i, result in results)
    run.sim_latencies_s = [q.latency for q in run.queries]
    run.sim_net_bytes = system.cluster.network.total_bytes - net_before
    run.stored_per_user_byte = system.cluster.stored_bytes / sum(map(len, state.files.values()))
    run.sim_cpu_utilization = system.cluster.cpu_utilization()
    run.obs_spans = (len(tracer.spans) if tracer is not None else 0) - spans_before
    scraper = system.cluster.scraper
    run.obs_scrapes = len(scraper.times) if scraper is not None else 0
    run.audit = system.store.audit.summary()
    return run


class Workload:
    """Base: sizes, the seed, and the phases the runner calls in order:
    ``setup``, ``check``, then ``prepare`` + ``repeat`` per timed repeat,
    with ``verify`` after the first."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def size(self, full: int, floor: int = 1) -> int:
        """``full`` normally; a tenth of it (at least ``floor``) under --smoke."""
        return max(floor, full // 10) if self.smoke else full

    def table_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def setup(self, clock: HostClock) -> State:
        """Everything before the timed section, metered stage by stage."""
        raise NotImplementedError

    def check(self, state: State) -> tuple[int, list[str]]:
        """Untimed correctness checks of the set-up; (checks made, failures)."""
        return 0, []

    def prepare(self, state: State) -> None:
        """Untimed, untraced per-repeat set-up (fresh systems where a repeat
        must not inherit the previous one's state)."""

    def repeat(self, state: State, clock: HostClock, tracer=None) -> Repeat:
        """One timed repeat on both stores."""
        raise NotImplementedError

    def verify(self, state: State, first: Repeat, clock: HostClock) -> tuple[int, list[str]]:
        """Untimed checks of what the first repeat did and left behind."""
        return 0, []


# -- ingest --------------------------------------------------------------------


class Ingest(Workload):
    """Writes: 24 tables are encoded and Put; ``format`` encode does most of the wall."""

    name = "ingest"

    #: dataset, generator, row counts; every table has 8 row groups, so
    #: chunk sizes spread over a factor of 4 within a dataset and much
    #: more across datasets (recipe text vs. ukpp categories).
    SHAPES = (
        ("lineitem", lineitem_table, (8_000, 16_000, 32_000)),
        ("taxi", taxi_table, (8_000, 16_000, 32_000)),
        ("recipe", recipe_table, (1_000, 2_000, 4_000)),
        ("ukpp", ukpp_table, (5_000, 10_000, 20_000)),
    )
    VARIANTS = 2
    ROW_GROUPS = 8

    def setup(self, clock: HostClock) -> State:
        state = _new_state(clock)
        with state.meters["gen"]:
            index = 0
            for dataset, generate, row_counts in self.SHAPES:
                for rows in row_counts:
                    for variant in range(self.VARIANTS):
                        rows_now = self.size(rows, 200)
                        name = f"{dataset}-{rows}-{variant}"
                        state.tables[name] = generate(rows_now, seed=self.table_seed(index))
                        state.gen_rows += rows_now
                        index += 1
                        state.meters["gen"].lap()
        # Warm lazy initialisation (codec tables, RS matrices) on the
        # smallest table, so the first timed repeat is not a cold one.
        with state.meters["warm"]:
            name = min(state.tables, key=lambda n: state.tables[n].num_rows)
            data = self._encode(state.tables[name])
            for kind in KINDS:
                build_system(kind).store.put(name, data)
        return state

    def _encode(self, table) -> bytes:
        return write_table(table, row_group_rows=max(1, table.num_rows // self.ROW_GROUPS))

    def prepare(self, state: State) -> None:
        state.systems = {kind: build_system(kind) for kind in KINDS}

    def repeat(self, state: State, clock: HostClock, tracer=None) -> Repeat:
        systems = state.systems
        encode = Meter(clock)
        out = Repeat({kind: StoreRun(Meter(clock)) for kind in KINDS})
        files: dict[str, bytes] = {}
        for op, (name, table) in enumerate(state.tables.items()):
            if tracer is not None:
                tracer.op = op
            with encode:
                files[name] = self._encode(table)
            for kind, system in systems.items():
                run = out.runs[kind]
                report = run.timed_op(f"put {name} on {kind}", lambda: system.store.put(name, files[name]), tracer)
                if report is not None:
                    run.sim_latencies_s.append(report.simulated_put_seconds)
                    run.fac_overhead.append(report.overhead_vs_optimal)
        user_bytes = sum(map(len, files.values()))
        for kind, system in systems.items():
            run = out.runs[kind]
            # Encode wall is charged to both stores: an object is not
            # stored until it has been encoded.
            run.meter.include(encode)
            run.sim_net_bytes = system.cluster.network.total_bytes
            run.stored_per_user_byte = system.cluster.stored_bytes / user_bytes
        state.files = files
        return out

    def verify(self, state: State, first: Repeat, clock: HostClock) -> tuple[int, list[str]]:
        """Every file decodes back to its table; every Get returns the Put bytes."""
        failures = []
        for name, data in state.files.items():
            if not read_table(data).equals(state.tables[name]):
                failures.append(f"{name}: write_table output does not decode to its table")
            for kind, system in state.systems.items():
                if system.store.get(name) != data:
                    failures.append(f"{name}: Get on {kind} differs from the Put input")
        return len(state.files) * (1 + len(state.systems)), failures


# -- query_hot / query_telemetry -------------------------------------------------


class QueryHot(Workload):
    """Reads that fit the decode cache: wall goes to the event kernel and SQL eval."""

    name = "query_hot"
    telemetry = False

    LINEITEM_ROWS, LINEITEM_GROUP = 40_000, 4_000  # 10 row groups x 16 columns = 160 chunks
    TAXI_ROWS, TAXI_GROUP = 48_000, 3_000  # 16 row groups x 20 columns = 320 chunks
    QUERIES = 240  # every SQL 20 times; p95 has 12 samples beyond it

    def setup(self, clock: HostClock) -> State:
        state = _new_state(clock)
        with state.meters["gen"]:
            lineitem = lineitem_table(self.size(self.LINEITEM_ROWS, 2_000), seed=self.table_seed(1))
            taxi = taxi_table(self.size(self.TAXI_ROWS, 2_000), seed=self.table_seed(2))
            state.tables = {"lineitem": lineitem, "taxi": taxi}
            state.gen_rows = lineitem.num_rows + taxi.num_rows
            state.sqls = self._sqls(lineitem, taxi)
        with state.meters["encode"]:
            state.files["lineitem"] = write_table(lineitem, row_group_rows=self.size(self.LINEITEM_GROUP, 200))
            state.meters["encode"].lap()
            state.files["taxi"] = write_table(taxi, row_group_rows=self.size(self.TAXI_GROUP, 200))
        with state.meters["build"]:
            state.systems = build_loaded(state.files, self.telemetry)
        with state.meters["warm"]:
            state.warm = self._warm(state.systems, state.sqls)
        return state

    @staticmethod
    def _sqls(lineitem, taxi) -> list[tuple[str, str]]:
        """The fixed mix: Table 4 Q1-Q4, the microbenchmark on four columns,
        one query that takes the fetch branch of the Cost Equation, the
        literal grouped Q4, one aggregate, one LIKE."""
        mix = [(q.sql, "lineitem" if q.dataset == "tpch" else "taxi") for q in real_world_queries(lineitem, taxi)]
        for column_id in (0, 5, 9, 15):
            mix.append((microbenchmark_query(lineitem, column_name(column_id), 0.01), "lineitem"))
        mix.append((microbenchmark_query(lineitem, column_name(5), 0.5), "lineitem"))
        mix.append(("SELECT date, avg(fare) FROM taxi WHERE date < '2015-03-01' GROUP BY date", "taxi"))
        mix.append(
            ("SELECT count(l_quantity), sum(l_extendedprice) FROM lineitem WHERE l_discount < 0.03", "lineitem")
        )
        mix.append(("SELECT l_orderkey FROM lineitem WHERE l_comment LIKE '%special%'", "lineitem"))
        return mix

    @staticmethod
    def _warm(systems: dict[str, System], sqls) -> dict[str, list]:
        """Each SQL once, alone: touches every chunk the mix reads, so the
        decode caches are full; the results are checked afterwards."""
        return {kind: [system.store.query(sql)[0] for sql, _table in sqls] for kind, system in systems.items()}

    def check(self, state: State) -> tuple[int, list[str]]:
        """Every distinct SQL, once per store, against the local oracle."""
        state.expected = [execute_local(sql, state.tables[table]) for sql, table in state.sqls]
        failures = [
            f"{kind}: wrong answer to {sql!r}"
            for kind, results in state.warm.items()
            for (sql, _table), result, expected in zip(state.sqls, results, state.expected)
            if not result.equals(expected)
        ]
        return len(state.sqls) * len(state.warm), failures

    def repeat(self, state: State, clock: HostClock, tracer=None) -> Repeat:
        queries = self.size(self.QUERIES, 2 * CLIENTS)
        return Repeat({kind: _query_run(state.systems[kind], state, queries, clock) for kind in KINDS})


class QueryTelemetry(QueryHot):
    """``query_hot`` with the obs layer on; simulated numbers must not move."""

    name = "query_telemetry"
    telemetry = True

    def prepare(self, state: State) -> None:
        # What the obs layer costs grows with the history it holds (the
        # baseline loses ~12% per 300 queries on one long-lived system),
        # so every repeat starts from the same history: a freshly built
        # and warmed pair.  The set-up's pair serves the first repeat.
        if state.used:
            state.systems = build_loaded(state.files, telemetry=True)
            self._warm(state.systems, state.sqls)
        state.used = True

    def verify(self, state: State, first: Repeat, clock: HostClock) -> tuple[int, list[str]]:
        """The zero-perturbation contract: a telemetry-off pair taken through
        the same warm-up and repeat must show the same simulated numbers,
        event time by event time (they are query_hot's)."""
        state.plain_systems = build_loaded(state.files)
        self._warm(state.plain_systems, state.sqls)
        plain = self.repeat_plain(state, clock)
        state.plain_repeats.append(plain)
        failures = [
            f"{kind}: telemetry changed the simulated event stream"
            for kind in KINDS
            if plain.runs[kind].fingerprint() != first.runs[kind].fingerprint()
        ]
        return len(KINDS), failures

    def repeat_plain(self, state: State, clock: HostClock) -> Repeat:
        """The same repeat on the telemetry-off pair (for the obs overhead ratio)."""
        queries = self.size(self.QUERIES, 2 * CLIENTS)
        return Repeat({kind: _query_run(state.plain_systems[kind], state, queries, clock) for kind in KINDS})


# -- degraded_repair ---------------------------------------------------------------


class DegradedRepair(Workload):
    """Cold degraded reads and rebuild, larger than every cache: ``ec`` and decode work."""

    name = "degraded_repair"

    LINEITEMS, TAXIS = 8, 4
    ROWS, GROUP = 6_000, 600  # 10 row groups: 160 (lineitem) / 200 (taxi) chunks per object
    QUERIES = 120  # per round: every one of the 24 SQLs five times
    TAXI_COLUMNS = (("fare", "date"), ("trip_distance", "passenger_count"), ("total_amount", "pickup_time"), ("tip_amount", "payment_type"))
    #: Two rounds per repeat; victims rotate so the second round also hits
    #: nodes that received rebuilt blocks in the first.
    VICTIMS = ((0, 1), (4, 5))

    def setup(self, clock: HostClock) -> State:
        state = _new_state(clock)
        with state.meters["gen"]:
            for i in range(self.LINEITEMS):
                state.tables[f"lineitem{i}"] = lineitem_table(self.size(self.ROWS, 1_000), seed=self.table_seed(i))
            for i in range(self.TAXIS):
                state.tables[f"taxi{i}"] = taxi_table(self.size(self.ROWS, 1_000), seed=self.table_seed(50 + i))
            state.gen_rows = sum(t.num_rows for t in state.tables.values())
            # Two columns per object, every lineitem column and eight taxi
            # columns once overall: 24 SQLs whose costs spread widely.
            for i, (name, table) in enumerate(state.tables.items()):
                names = table.schema.names()
                picks = names[i % 8 :: 8] if name.startswith("lineitem") else self.TAXI_COLUMNS[i % 4]
                state.sqls += [(microbenchmark_query(table, c, 0.01, object_name=name), name) for c in picks]
        with state.meters["encode"]:
            for name, table in state.tables.items():
                state.files[name] = write_table(table, row_group_rows=self.size(self.GROUP, 100))
                state.meters["encode"].lap()
        with state.meters["build"]:
            state.systems = build_loaded(state.files)
        # Warm process-wide lazy state (RS decode matrices per erasure
        # pattern) on a throwaway pair holding one object of each kind.
        small = {n: state.files[n] for n in ("lineitem0", "taxi0")}
        sqls = [(sql, table) for sql, table in state.sqls if table in small]
        with state.meters["warm"]:
            throwaway = build_loaded(small)
        for system in throwaway.values():
            self._round(system, small, sqls, self.VICTIMS[0], CLIENTS, StoreRun(state.meters["warm"]), None)
        return state

    def check(self, state: State) -> tuple[int, list[str]]:
        state.expected = [execute_local(sql, state.tables[table]) for sql, table in state.sqls]
        return 0, []

    def prepare(self, state: State) -> None:
        # Fresh systems per repeat (cold caches, nothing repaired yet); the
        # first repeat takes the pair the set-up built.
        if state.used:
            state.systems = build_loaded(state.files)
        state.used = True

    def repeat(self, state: State, clock: HostClock, tracer=None) -> Repeat:
        systems = state.systems
        out = Repeat({kind: StoreRun(Meter(clock)) for kind in KINDS})
        user_bytes = sum(map(len, state.files.values()))
        queries = self.size(self.QUERIES, CLIENTS)
        for kind, system in systems.items():
            run = out.runs[kind]
            for victims in self.VICTIMS:
                results = self._round(system, state.files, state.sqls, victims, queries, run, tracer)
                run.failed += sum(not result.equals(state.expected[i]) for i, result in results)
                # Untimed: the cluster must be whole again after each round.
                out.checks += 1 + len(state.files)
                if not system.store.fsck().clean:
                    out.check_failures.append(f"{kind}: fsck not clean after repairing {victims}")
                for name in state.files:
                    if not system.store.verify_object(name).clean:
                        out.check_failures.append(f"{kind}: {name} does not scrub clean after {victims}")
            run.stored_per_user_byte = system.cluster.stored_bytes / user_bytes
            run.sim_cpu_utilization = system.cluster.cpu_utilization()
        return out

    @staticmethod
    def _round(system, files, sqls, victims, queries, run: StoreRun, tracer):
        """Wipe ``victims``; Get and query everything degraded; repair; restore."""
        cluster, store, sim = system.cluster, system.store, system.sim
        net_before = cluster.network.total_bytes
        run.rebuilt_sim_bytes += store.config.scaled(sum(cluster.node(v).stored_bytes for v in victims))
        for victim in victims:
            cluster.fail_node(victim, wipe=True)
        for name, data in files.items():
            began = sim.now
            fetched = run.timed_op(f"get {name} on {system.kind}", lambda: store.get(name), tracer)
            if fetched is not None:
                run.failed += fetched != data
                run.sim_latencies_s.append(sim.now - began)
        with run.meter:
            metrics, results, raised = closed_loop(system, sqls, queries, run.meter)
        run.ops += queries
        run.failed += raised
        run.queries += metrics
        run.sim_latencies_s += [q.latency for q in metrics]
        manager = RepairManager(store)
        for victim in victims:
            report = run.timed_op(f"repair_node {victim} on {system.kind}", lambda: manager.repair_node(victim), tracer)
            if report is not None:
                run.sim_latencies_s.append(report.time_to_repair)
                run.repair_sim_s += report.time_to_repair
                run.repair_sim_bytes += report.repair_bytes
        for victim in victims:
            cluster.restore_node(victim)
        with run.meter:
            manager.repair_read_reported()
        run.sim_net_bytes += cluster.network.total_bytes - net_before
        return results


WORKLOADS = {w.name: w for w in (Ingest, QueryHot, QueryTelemetry, DegradedRepair)}


# -- direct drive of the event kernel ----------------------------------------------


def kernel_events_per_s(clock: HostClock, smoke: bool = False) -> float:
    """Pure-kernel mix, no store: processes alternate a think-time timeout
    with a service timeout held under a shared ``Resource``.  The event
    count is known (two timeouts per step), so this is events per
    calibrated second of ``Simulator.run``."""
    processes, steps = 40, (20 if smoke else 250)
    sim = Simulator()
    device = Resource(sim, capacity=4)

    def worker(pid: int):
        for step in range(steps):
            yield sim.timeout(0.001 * (1 + (pid + step) % 7))
            with (yield from device.acquire()):
                yield sim.timeout(0.0005)

    for pid in range(processes):
        sim.process(worker(pid))
    meter = Meter(clock)
    with meter:
        sim.run()
    return 2 * processes * steps / meter.calibrated_s
