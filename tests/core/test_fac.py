"""FAC stripe construction (Algorithm 1): invariants and quality."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ChunkItem, construct_stripes, construct_stripes_first_fit
from repro.ec import RS_9_6, RS_14_10, CodeParams
from repro.workloads import items_from_sizes, zipf_chunk_sizes

sizes_strategy = st.lists(st.integers(1, 10_000), min_size=1, max_size=120)


class TestAlgorithmInvariants:
    @settings(max_examples=100, deadline=None)
    @given(sizes=sizes_strategy)
    def test_every_chunk_assigned_exactly_once(self, sizes):
        items = items_from_sizes(sizes)
        layout = construct_stripes(RS_9_6, items)
        layout.validate(items)  # raises if not a partition

    @settings(max_examples=100, deadline=None)
    @given(sizes=sizes_strategy)
    def test_first_bin_is_largest_per_stripe(self, sizes):
        layout = construct_stripes(RS_9_6, items_from_sizes(sizes))
        for bs in layout.binsets:
            assert bs.bins[0].occupied == bs.max_bin

    @settings(max_examples=100, deadline=None)
    @given(sizes=sizes_strategy)
    def test_capacity_never_exceeded(self, sizes):
        layout = construct_stripes(RS_9_6, items_from_sizes(sizes))
        for bs in layout.binsets:
            capacity = bs.bins[0].occupied
            for b in bs.bins[1:]:
                assert b.occupied <= capacity

    @settings(max_examples=100, deadline=None)
    @given(sizes=sizes_strategy)
    def test_stripe_capacities_nonincreasing(self, sizes):
        """Stripes are built around the largest remaining chunk, so stripe
        capacities decrease monotonically."""
        layout = construct_stripes(RS_9_6, items_from_sizes(sizes))
        caps = [bs.bins[0].occupied for bs in layout.binsets]
        assert caps == sorted(caps, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(sizes=sizes_strategy)
    def test_overhead_never_below_optimal(self, sizes):
        layout = construct_stripes(RS_9_6, items_from_sizes(sizes))
        assert layout.overhead_vs_optimal >= -1e-9

    @settings(max_examples=50, deadline=None)
    @given(sizes=sizes_strategy)
    def test_bins_per_stripe_is_k(self, sizes):
        for params in (RS_9_6, RS_14_10):
            layout = construct_stripes(params, items_from_sizes(sizes))
            assert all(bs.k == params.k for bs in layout.binsets)


class TestBehaviour:
    def test_equal_chunks_pack_perfectly(self):
        items = items_from_sizes([100] * 12)
        layout = construct_stripes(RS_9_6, items)
        # Capacity is 100, so each bin takes exactly one chunk: 2 stripes,
        # perfectly packed (optimal overhead).
        assert layout.num_stripes == 2
        assert layout.overhead_vs_optimal == pytest.approx(0.0)
        for bs in layout.binsets:
            for b in bs.bins:
                assert b.occupied == 100

    def test_single_chunk(self):
        layout = construct_stripes(RS_9_6, items_from_sizes([500]))
        assert layout.num_stripes == 1
        assert layout.binsets[0].bins[0].occupied == 500

    def test_deterministic(self):
        sizes = zipf_chunk_sizes(80, 0.5, seed=4)
        a = construct_stripes(RS_9_6, items_from_sizes(sizes))
        b = construct_stripes(RS_9_6, items_from_sizes(sizes))
        assert a.chunk_assignment() == b.chunk_assignment()

    def test_input_order_irrelevant(self):
        sizes = zipf_chunk_sizes(50, 0.0, seed=5)
        items = items_from_sizes(sizes)
        layout_sorted = construct_stripes(RS_9_6, sorted(items, key=lambda i: i.size))
        layout_orig = construct_stripes(RS_9_6, items)
        assert layout_sorted.overhead_vs_optimal == pytest.approx(
            layout_orig.overhead_vs_optimal
        )

    def test_overhead_shrinks_with_chunk_count(self):
        small = construct_stripes(RS_9_6, items_from_sizes(zipf_chunk_sizes(30, 0, seed=1)))
        large = construct_stripes(RS_9_6, items_from_sizes(zipf_chunk_sizes(600, 0, seed=1)))
        assert large.overhead_vs_optimal < small.overhead_vs_optimal

    def test_real_profile_overhead_within_paper_bound(self):
        # Paper: <= 1.24% on real datasets with hundreds of chunks.
        sizes = zipf_chunk_sizes(300, 0.5, seed=2)
        layout = construct_stripes(RS_9_6, items_from_sizes(sizes))
        assert layout.overhead_vs_optimal < 0.02

    def test_worst_case_bounded_by_replication(self):
        # One huge chunk + tiny ones: overhead approaches (n - k) but the
        # stored bytes never exceed replication's (1 + parity) x data.
        items = items_from_sizes([10_000] + [1] * 5)
        layout = construct_stripes(RS_9_6, items)
        replication_bytes = sum(i.size for i in items) * (1 + RS_9_6.parity)
        assert layout.stored_bytes <= replication_bytes

    def test_build_seconds_recorded(self):
        layout = construct_stripes(RS_9_6, items_from_sizes([5, 4, 3]))
        assert layout.build_seconds > 0
        assert layout.strategy == "fac"

    def test_runtime_is_fast_for_real_scale(self):
        items = items_from_sizes(zipf_chunk_sizes(320, 0.5, seed=3))
        layout = construct_stripes(RS_9_6, items)
        assert layout.build_seconds < 0.5  # paper: microseconds in Go


class TestAgainstLowerBound:
    """FAC's objective can never beat the ILP lower bound, and on real
    profiles it should land close to it."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=sizes_strategy)
    def test_objective_at_least_lower_bound(self, sizes):
        from repro.core.oracle import optimal_objective_lower_bound

        items = items_from_sizes(sizes)
        layout = construct_stripes(RS_9_6, items)
        assert layout.objective >= optimal_objective_lower_bound(RS_9_6, items) - 1e-9

    def test_close_to_bound_on_large_instances(self):
        from repro.core.oracle import optimal_objective_lower_bound

        sizes = zipf_chunk_sizes(500, 0.5, seed=9)
        items = items_from_sizes(sizes)
        layout = construct_stripes(RS_9_6, items)
        bound = optimal_objective_lower_bound(RS_9_6, items)
        assert layout.objective <= bound * 1.02  # within 2% of any feasible optimum

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 10_000), min_size=12, max_size=120),
        block_size=st.integers(1_000, 20_000),
    )
    def test_overhead_vs_optimal_is_the_scaled_gap_to_the_bound(self, sizes, block_size):
        """Why Fig 16b/c needs no ILP: ``overhead_vs_optimal`` is measured
        against ``data * n / k``, which no layout can beat, and while
        ``total / k`` is the larger term of the bound it is FAC's
        objective gap to the bound, scaled by ``(n - k) / n``."""
        from repro.core import construct_padding_layout
        from repro.core.oracle import optimal_objective_lower_bound

        items = items_from_sizes(sizes)
        assume(sum(sizes) / RS_9_6.k >= max(sizes))
        bound = optimal_objective_lower_bound(RS_9_6, items)
        fac = construct_stripes(RS_9_6, items)
        scale = (RS_9_6.n - RS_9_6.k) / RS_9_6.n
        assert fac.overhead_vs_optimal == pytest.approx((fac.objective / bound - 1) * scale)
        padding = construct_padding_layout(RS_9_6, items, block_size)
        for layout in (fac, padding):
            assert layout.stored_bytes >= layout.optimal_stored_bytes - 1e-6


class TestFirstFitVariant:
    @settings(max_examples=50, deadline=None)
    @given(sizes=sizes_strategy)
    def test_first_fit_also_valid(self, sizes):
        items = items_from_sizes(sizes)
        layout = construct_stripes_first_fit(RS_9_6, items)
        layout.validate(items)
        for bs in layout.binsets:
            capacity = bs.bins[0].occupied
            assert all(b.occupied <= capacity for b in bs.bins[1:])
