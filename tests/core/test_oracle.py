"""The ILP oracle: optimality on small instances."""

import pytest

from repro.core import (
    ChunkItem,
    brute_force_optimal,
    construct_oracle_layout,
    construct_stripes,
)
from repro.core.oracle import optimal_objective_lower_bound
from repro.ec import CodeParams

SMALL = CodeParams(5, 3)


def _items(sizes):
    return [ChunkItem(key=(0, i), size=s) for i, s in enumerate(sizes)]


class TestOptimality:
    @pytest.mark.parametrize(
        "sizes",
        [
            [10, 9, 8, 5, 4, 2],
            [7, 7, 7],
            [100, 1, 1, 1, 1, 1],
            [5, 5, 5, 5, 5, 5],
            [13, 11, 3, 2],
        ],
    )
    def test_matches_brute_force(self, sizes):
        layout = construct_oracle_layout(SMALL, _items(sizes))
        assert layout.objective == brute_force_optimal(SMALL, _items(sizes))

    def test_never_worse_than_fac(self):
        for seed, sizes in enumerate([[9, 8, 7, 3, 2, 1], [20, 5, 5, 5, 5, 5]]):
            items = _items(sizes)
            oracle = construct_oracle_layout(SMALL, items)
            fac = construct_stripes(SMALL, items)
            assert oracle.objective <= fac.objective + 1e-9

    def test_respects_lower_bound(self):
        items = _items([10, 9, 8, 5, 4, 2])
        layout = construct_oracle_layout(SMALL, items)
        assert layout.objective >= optimal_objective_lower_bound(SMALL, items) - 1e-9

    def test_layout_is_valid_partition(self):
        items = _items([10, 9, 8, 5, 4, 2, 1])
        layout = construct_oracle_layout(SMALL, items)
        layout.validate(items)

    def test_strategy_and_runtime_recorded(self):
        layout = construct_oracle_layout(SMALL, _items([3, 2, 1]))
        assert layout.strategy == "oracle"
        assert layout.build_seconds > 0

    def test_empty_items_raise(self):
        with pytest.raises(ValueError):
            construct_oracle_layout(SMALL, [])


class TestLowerBound:
    def test_bound_components(self):
        items = _items([10, 1, 1])
        # total/k = 4, max = 10 -> bound 10.
        assert optimal_objective_lower_bound(SMALL, items) == 10
        items = _items([4, 4, 4, 4, 4, 4])
        # total/k = 8 > max 4.
        assert optimal_objective_lower_bound(SMALL, items) == 8
