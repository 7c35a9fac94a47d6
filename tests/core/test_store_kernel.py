"""Structure guard: one store, two layouts.

``FusionStore`` and ``BaselineStore`` used to be unrelated classes with
43 same-named methods, every fix written twice; then ``FusionStore``
was a ``BaselineStore`` that reached the fixed-block path through
``splits_chunks`` branches and ``super()`` hops.  Now the kernel
(``repro.core.kernel.StoreKernel``) is the one store, each stored-object
class owns its layout's Put, Get, Query and invalidation, and the two
stores differ only in their Put policy.  These checks fail when a store
grows anything but its Put policy, when a store subclasses the other or
a layout flag or ``super()`` hop grows back, when a stored-object class
lacks a layout operation, when a store or the fault injector reads the
link matrix behind the delivery rule's back, when a refused op is caught
anywhere the refusal rule does not expect, when Fusion's query path
grows a second op builder, chunk read or stage round, when a degraded
gather's shard fetch is built or its gather published outside
``_gather_ops``, and when a ``StoreConfig`` field appears that only the
tests set.
"""

import ast
import dataclasses
import pathlib
import re

import repro.core
from repro.core import BaselineStore, FusionStore, StoreConfig, StoredFusionObject
from repro.core.baseline_store import StoredFixedObject
from repro.core.kernel import StoreKernel
from repro.core.store import _ChunkOp

CORE = pathlib.Path(repro.core.__file__).parent
SRC = CORE.parent
STORES = (FusionStore, BaselineStore)

#: All a store defines: which layout a Put picks, and its span label.
PUT_POLICY = {"span_label", "_put_body"}
#: Layout operations every stored-object class defines (see the
#: kernel's module docstring).
LAYOUT_OPS = {
    "kind", "lay_out", "publish", "get", "query", "invalidate",
    "locate_block", "block_moved", "dangling_locations",
    "snapshot", "replica_nodes", "total_bytes",
}


def _defined(cls) -> set[str]:
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) or isinstance(value, (staticmethod, classmethod, property))
    }


def _code(path: pathlib.Path) -> str:
    """A module's source without its docstrings."""
    return re.sub(r'""".*?"""', "", path.read_text(), flags=re.S)


def test_each_store_defines_only_its_put_policy():
    for cls in STORES:
        own = {name for name in vars(cls) if not name.startswith("__")}
        assert own == PUT_POLICY, cls
        assert cls.span_label


def test_kernel_methods_are_overridden_only_where_documented():
    for cls in STORES:
        assert _defined(cls) & _defined(StoreKernel) == set(), cls


def test_both_stores_are_the_kernel_plus_a_put_policy():
    for cls in STORES:
        assert cls.__bases__ == (StoreKernel,), cls
    assert not issubclass(FusionStore, BaselineStore)
    assert not issubclass(BaselineStore, FusionStore)


def test_layout_hooks_live_on_the_stored_objects():
    for cls in (StoredFusionObject, StoredFixedObject):
        missing = LAYOUT_OPS - set(dir(cls)) - {f.name for f in dataclasses.fields(cls)}
        assert not missing, (cls, missing)
    assert (StoredFusionObject.kind, StoredFixedObject.kind) == ("fac", "fixed")
    for cls in (StoreKernel, *STORES):
        assert not {"_locate_block", "_block_moved", "_dangling_locations"} & _defined(cls)
        assert not hasattr(cls, "store_kind"), cls


def test_kernel_dispatches_through_hooks_only():
    """The layout is asked of the object: no store or kernel module
    branches on a layout flag or type, and none hops to another layout's
    path through ``super()``."""
    for name in ("kernel.py", "store.py", "baseline_store.py", "fsck.py", "repair.py", "rebalance.py"):
        code = _code(CORE / name)
        for forbidden in (r"hasattr\(", r"isinstance\((self|obj)"):
            assert not re.search(forbidden, code), (name, forbidden)
    hop = re.compile(r"super\(\)\.(_put_body|_get_body|_query_body|_invalidate_block)\b")
    for path in sorted(CORE.rglob("*.py")):
        assert not hop.search(path.read_text()), path
    for root in (SRC, SRC.parents[1] / "tests"):
        for path in sorted(root.rglob("*.py")):
            if path.name != "test_store_kernel.py":
                assert "splits_chunks" not in path.read_text(), path


def test_consumers_walk_the_stripe_records():
    for name in ("fsck.py", "repair.py", "rebalance.py"):
        source = (CORE / name).read_text()
        assert 'hasattr(obj, "stripes")' not in source, name
        assert "def _stores" not in source, name
    pattern = re.compile(r"fallback_store|def _delegate\b|def stores\b")
    for path in SRC.rglob("*.py"):
        assert not pattern.search(path.read_text()), path


def test_the_delivery_rule_is_the_only_way_into_the_link_matrix():
    """Whether two nodes can talk is decided once, by the network's
    delivery rule (``Cluster.delivers``): no store module and not the
    fault injector reads the link matrix or asks for a severed link."""
    pattern = re.compile(r"network\.links\b|link_severed")
    paths = sorted(CORE.rglob("*.py")) + [SRC / "cluster" / "faults.py"]
    for path in paths:
        assert not pattern.search(path.read_text()), path


#: Every ``except`` clause under ``src/repro/core/`` that names
#: ``QueueFull``, by (module, enclosing function), and why it may.  The
#: refusal rule: a refused op is shed where its stage may shed and
#: otherwise surfaces as a typed ``QueueFull`` - never retried into the
#: node that refused it, never reconstructed from other nodes - and the
#: executor (``scatter_gather``) alone decides between the two.
REFUSAL_CATCHES = {
    ("scatter_gather.py", "_shielded"):
        "turns an op's refusal into the executor's rejection sentinel",
    ("scatter_gather.py", "_node_group"):
        "a refused batched request refuses every op of its group at once",
    ("scatter_gather.py", "_node_group.run_op_body"):
        "re-raises, so the generic failure branch never swallows a refusal",
    ("kernel.py", "StoreKernel.query_process"):
        "accounts a query killed by a coordinator-side refusal, then re-raises",
    ("kernel.py", "StoreKernel._side_by_side.caught"):
        "hands a refused background exchange back to its round as a value",
    ("kernel.py", "StoreKernel._rebuild.write"):
        "defers the stripes of a refused repair write to a later pass",
    ("rebalance.py", "Rebalancer.rebalance_process"):
        "defers a refused migration to a later run",
}


def _exception_names(node) -> set[str]:
    if isinstance(node, ast.Tuple):
        return set().union(*(_exception_names(e) for e in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _handlers_of(tree: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """``(enclosing function, line)`` of every ``except`` clause under
    ``tree`` that names exception ``name``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _handlers_of(child, name, scope + (child.name,))
            continue
        if isinstance(child, ast.ExceptHandler) and name in _exception_names(child.type):
            yield ".".join(scope), child.lineno
        yield from _handlers_of(child, name, scope)


def test_a_refused_op_is_caught_only_where_the_refusal_rule_allows():
    """Guarded like the delivery rule: a new ``except QueueFull`` under
    ``src/repro/core/`` (a store retrying a refused op itself, say) fails
    here until it is pinned with its reason, and the executor's retry
    budget and rejection sentinel are read nowhere but the executor."""
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(CORE.rglob("*.py")):
        for function, line in _handlers_of(ast.parse(path.read_text()), "QueueFull"):
            found.setdefault((path.name, function), []).append(line)
    assert set(found) == set(REFUSAL_CATCHES), found
    assert all(len(lines) == 1 for lines in found.values()), found
    for path in sorted(SRC.rglob("*.py")):
        if path == CORE / "scatter_gather.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            assert name not in {"MAX_RETRIES", "_REJECTED"}, (path, node.lineno)


def _calls_of(tree: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """Enclosing function of every call of ``name`` (a function or a
    method) under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls_of(child, name, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and name in _exception_names(child.func):
            yield ".".join(scope)
        yield from _calls_of(child, name, scope)


#: Where ``store.py`` may call each name of Fusion's query path: one
#: routine builds every ``RemoteOp``, one reads and one reconstructs
#: every chunk, and one stage runner runs every stage's round.
QUERY_PATH_CALLS = {
    "RemoteOp": ["_ChunkOp.remote_op"] * 2,  # direct, or standalone degraded
    "_read_chunk": ["_ChunkOp.execute"],
    "_degraded_chunk": ["_ChunkOp.degraded"],
    "execute_remote_ops": ["_run_stage"],
    "_run_stage": [
        "StoredFusionObject.query",  # the filter and projection stages
        "StoredFusionObject.query",
        "StoredFusionObject._fused_query",
        "StoredFusionObject._aggregate_pushdown_stage",
    ],
}
#: All a query op may define: what it evaluates on the decoded chunk,
#: what that weighs in the reply, and where its Cost Equation decides.
CHUNK_OP_HOOKS = {"__init__", "evaluate", "size", "pushes", "verdict"}


def test_fusion_queries_through_one_chunk_op_and_one_stage_runner():
    """The filter, fused, projection and aggregate ops differ only in
    what they evaluate, reply and decide: a second op builder, a second
    read or reconstruction of a chunk, or a stage that runs its own
    round fails here."""
    tree = ast.parse((CORE / "store.py").read_text())
    for name, where in QUERY_PATH_CALLS.items():
        assert sorted(_calls_of(tree, name)) == sorted(where), name
    ops = _ChunkOp.__subclasses__()
    assert len(ops) == 4
    for cls in ops:
        assert cls.__bases__ == (_ChunkOp,) and not cls.__subclasses__(), cls
        assert _defined(cls) <= CHUNK_OP_HOOKS, cls


def _fires_of(tree: ast.AST, event: str, scope: tuple[str, ...] = ()):
    """Enclosing function of every ``<x>.<event>.succeed()`` under
    ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _fires_of(child, event, scope + (child.name,))
            continue
        func = child.func if isinstance(child, ast.Call) else None
        if (
            isinstance(func, ast.Attribute) and func.attr == "succeed"
            and isinstance(func.value, ast.Attribute) and func.value.attr == event
        ):
            yield ".".join(scope)
        yield from _fires_of(child, event, scope)


def test_every_degraded_gather_is_built_by_gather_ops():
    """A stripe's decode-set fetch is built in one place, and a gather is
    published or dropped in one place each: a second fetch builder, or a
    caller that publishes a gather by hand, fails here."""
    tree = ast.parse((CORE / "kernel.py").read_text())
    assert list(_calls_of(tree, "_shard_fetch_op")) == ["StoreKernel._gather_ops"]
    fired = {".".join(scope.split(".")[:2]) for scope in _fires_of(tree, "done")}
    assert fired == {"StoreKernel._gather_ops", "StoreKernel._drop_gather"}


def test_fixed_object_views_are_for_tests_and_benches_only():
    pattern = re.compile(r"data_block_nodes|parity_block_nodes")
    for path in SRC.rglob("*.py"):
        if "bench" in path.relative_to(SRC).parts:
            continue
        hits = [line for line in path.read_text().splitlines() if pattern.search(line)]
        if path.name == "baseline_store.py":
            # The two property definitions and nothing else.
            assert all(line.lstrip().startswith("def ") for line in hits) and len(hits) == 2
        else:
            assert not hits, path


#: Every ``StoreConfig`` field.  A new one needs a bench, benchmark or
#: example that sets it (below); a deleted one leaves this list.
KNOBS = (
    "code", "block_size", "size_scale", "storage_overhead_threshold",
    "pushdown_mode", "enable_aggregate_pushdown", "enable_page_skipping",
    "op_timeout_s", "greylist_latency_factor",
    "metadata_replicas", "tracing_enabled",
    "metrics_registry_enabled", "pushdown_audit_enabled", "default_deadline_s",
    "admission_queue_depth", "breaker_failure_threshold",
    "breaker_window_s", "breaker_reset_s", "allow_partial_results",
    "membership_enabled", "rpc_retry_jitter", "tenant_weights",
    "tenant_requests_per_s", "scrape_interval_s", "slo_enabled",
    "exemplars_enabled",
)
#: Knobs no bench, benchmark or example sets, each kept for a reason.
UNBENCHED_KNOBS = {
    # Set only to its default (on) here; tests switch it off.  ROADMAP
    # "StoreConfig describes the store" moves it out of StoreConfig with
    # the other telemetry switches.
    "pushdown_audit_enabled",
}
#: Where a knob counts as used: the experiment harness, the benchmarks
#: and the examples (tests do not count).
KNOB_USERS = (SRC / "bench", SRC.parents[1] / "benchmarks", SRC.parents[1] / "examples")


def _knobs_set(tree: ast.AST, defaults: dict) -> set[str]:
    """Knobs ``tree`` sets: a ``name=`` keyword, a ``"name":`` dict key or
    a ``<x>.config.name =`` assignment.  A literal equal to the knob's
    default sets nothing; any other expression counts."""
    found: set[str] = set()

    def note(name, value) -> None:
        if name not in defaults:
            return
        try:
            if ast.literal_eval(value) == defaults[name]:
                return
        except ValueError:
            pass  # not a literal: an expression always counts
        found.add(name)

    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            note(node.arg, node.value)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    note(key.value, value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                owner = getattr(target, "value", None)
                if isinstance(target, ast.Attribute) and (
                    isinstance(owner, ast.Attribute) and owner.attr == "config"
                    or isinstance(owner, ast.Name) and owner.id == "config"
                ):
                    note(target.attr, node.value)
    return found


def test_no_new_knob():
    fields = dataclasses.fields(StoreConfig)
    assert {f.name for f in fields} == set(KNOBS)
    defaults = {
        f.name: f.default if f.default is not dataclasses.MISSING else f.default_factory()
        for f in fields
    }
    used = set().union(*(
        _knobs_set(ast.parse(path.read_text()), defaults)
        for root in KNOB_USERS
        for path in sorted(root.rglob("*.py"))
    ))
    assert set(KNOBS) - used == UNBENCHED_KNOBS


def test_import_paths_the_harness_and_benches_use():
    for name in (
        "FusionStore", "BaselineStore", "StoredFusionObject", "StripePlacement",
        "ObjectNotFound", "PutReport",
    ):
        assert hasattr(repro.core, name), name
    from repro.core.baseline_store import PutReport
    from repro.core.store import StripePlacement

    assert PutReport is repro.core.PutReport
    assert StripePlacement is repro.core.StripePlacement
