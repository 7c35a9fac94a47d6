"""Structure guard: one durability-and-repair kernel under both stores.

``FusionStore`` and ``BaselineStore`` used to be unrelated classes with
43 same-named methods, every fix written twice.  Both now build on
``repro.core.kernel.StoreKernel``; what a store class still defines
itself is its layout / query policy and the documented hook set.  These
checks fail when a second copy of a kernel method grows back.
"""

import dataclasses
import pathlib
import re

import repro.core
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.core.kernel import StoreKernel

CORE = pathlib.Path(repro.core.__file__).parent
SRC = CORE.parent

#: Layout hooks both stores define (see the kernel's module docstring).
HOOKS = {"_locate_block", "_invalidate_block"}
#: Genuinely different policy per store: FAC bins vs. fixed cuts,
#: pushdown vs. fetch-and-evaluate.
POLICY = {"_put_body", "_get_body", "_query_body"}
#: Hooks with a kernel default that only Fusion overrides.
FUSION_OVERRIDES = {"__init__", "_block_moved", "_dangling_locations", "_invalidate_object_caches"}


def _defined(cls) -> set[str]:
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) or isinstance(value, (staticmethod, classmethod, property))
    }


def test_the_two_stores_share_only_hooks_and_policy_bodies():
    assert _defined(FusionStore) & _defined(BaselineStore) == HOOKS | POLICY


def test_kernel_methods_are_overridden_only_where_documented():
    assert _defined(FusionStore) & _defined(StoreKernel) == FUSION_OVERRIDES
    assert _defined(BaselineStore) & _defined(StoreKernel) == set()


def test_both_stores_build_on_the_kernel_and_not_on_each_other():
    assert issubclass(FusionStore, StoreKernel) and issubclass(BaselineStore, StoreKernel)
    assert not issubclass(FusionStore, BaselineStore)
    for cls in (FusionStore, BaselineStore):
        assert cls.store_kind and cls.span_label


def test_kernel_dispatches_through_hooks_only():
    source = (CORE / "kernel.py").read_text()
    code = re.sub(r'""".*?"""', "", source, flags=re.S)
    for forbidden in (r"hasattr\(", r"isinstance\((self|obj)", r"self\.store_kind\s*(==|!=|in\b)"):
        assert not re.search(forbidden, code), forbidden


def test_consumers_walk_the_stripe_records():
    for name in ("fsck.py", "repair.py", "rebalance.py"):
        source = (CORE / name).read_text()
        assert 'hasattr(obj, "stripes")' not in source, name
        assert "def _stores" not in source, name
        assert 'getattr(store, "fallback_store"' not in source, name


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


def test_no_new_knob():
    assert len(dataclasses.fields(StoreConfig)) == 47


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
