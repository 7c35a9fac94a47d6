"""Structure guard: one durability-and-repair kernel, one store per namespace.

``FusionStore`` and ``BaselineStore`` used to be unrelated classes with
43 same-named methods, every fix written twice, and a ``FusionStore``
kept a whole second ``BaselineStore`` for its fixed-block fallback.  Now
the kernel (``repro.core.kernel.StoreKernel``) holds everything both
layouts share, ``FusionStore`` is a ``BaselineStore`` whose Put tries
FAC first, and what depends on the layout is asked of the stored object.
These checks fail when a second copy of a kernel method, a layout hook
on a store class, or a second store grows back, when a store or the
fault injector reads the link matrix behind the delivery rule's back,
and when a ``StoreConfig`` field appears that only the tests set.
"""

import ast
import dataclasses
import pathlib
import re

import repro.core
from repro.core import BaselineStore, FusionStore, StoreConfig, StoredFusionObject
from repro.core.baseline_store import StoredFixedObject
from repro.core.kernel import StoreKernel

CORE = pathlib.Path(repro.core.__file__).parent
SRC = CORE.parent

#: The cache hook both stores define (see the kernel's module docstring).
HOOKS = {"_invalidate_block"}
#: Genuinely different policy per layout: FAC bins vs. fixed cuts,
#: pushdown vs. fetch-and-evaluate.
POLICY = {"_put_body", "_get_body", "_query_body"}
#: What FusionStore redefines of what it inherits.
FUSION_OVERRIDES = {"__init__", "_invalidate_object_caches"} | HOOKS | POLICY
#: Layout hooks every stored-object class defines.
OBJECT_HOOKS = {"locate_block", "block_moved", "dangling_locations", "snapshot"}


def _defined(cls) -> set[str]:
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) or isinstance(value, (staticmethod, classmethod, property))
    }


def test_the_two_stores_share_only_hooks_and_policy_bodies():
    assert _defined(FusionStore) & _defined(BaselineStore) == HOOKS | POLICY


def test_kernel_methods_are_overridden_only_where_documented():
    inherited = _defined(BaselineStore) | _defined(StoreKernel)
    assert _defined(FusionStore) & inherited == FUSION_OVERRIDES
    assert _defined(BaselineStore) & _defined(StoreKernel) == set()


def test_fusion_is_a_baseline_store_with_a_fac_first_put():
    assert issubclass(BaselineStore, StoreKernel) and issubclass(FusionStore, BaselineStore)
    for cls in (FusionStore, BaselineStore):
        assert cls.span_label


def test_layout_hooks_live_on_the_stored_objects():
    for cls in (StoredFusionObject, StoredFixedObject):
        assert OBJECT_HOOKS <= _defined(cls), cls
    assert (StoredFusionObject.kind, StoredFixedObject.kind) == ("fac", "fixed")
    assert StoredFixedObject.splits_chunks and not StoredFusionObject.splits_chunks
    for cls in (StoreKernel, BaselineStore, FusionStore):
        assert not {"_locate_block", "_block_moved", "_dangling_locations"} & _defined(cls)
        assert not hasattr(cls, "store_kind"), cls


def test_kernel_dispatches_through_hooks_only():
    for name in ("kernel.py", "store.py", "baseline_store.py", "fsck.py", "repair.py", "rebalance.py"):
        code = re.sub(r'""".*?"""', "", (CORE / name).read_text(), flags=re.S)
        for forbidden in (r"hasattr\(", r"isinstance\((self|obj)"):
            assert not re.search(forbidden, code), (name, forbidden)


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
    "pushdown_mode", "enable_aggregate_pushdown", "baseline_whole_block_reads",
    "enable_page_skipping", "op_timeout_s", "greylist_latency_factor",
    "repair_throttle_bps", "metadata_replicas", "tracing_enabled",
    "metrics_registry_enabled", "pushdown_audit_enabled", "default_deadline_s",
    "admission_queue_depth", "breaker_failure_threshold",
    "breaker_window_s", "breaker_reset_s", "allow_partial_results",
    "membership_enabled", "rpc_retry_jitter", "qos_enabled", "tenant_weights",
    "tenant_requests_per_s", "tenant_queue_depth", "scrape_interval_s", "slo_enabled",
    "exemplars_enabled",
)
#: Knobs no bench, benchmark or example sets, each kept for a reason.
UNBENCHED_KNOBS = {
    # ROADMAP "One baseline read mode, chosen by the scorecard" picks the
    # baseline's one read mode and deletes this.
    "baseline_whole_block_reads",
    # Paces each round of RepairManager._repair_targets (ROADMAP "One
    # gather primitive for Get, query, repair and scrub"); a throttled
    # repair still has no bench, only test_throttled_repair_takes_longer.
    "repair_throttle_bps",
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
