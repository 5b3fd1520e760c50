"""Tests of PE resource allocation (duplication degrees, Section 5.2)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import PEParams
from repro.mapper.allocation import (
    GroupAllocation,
    allocate,
    allocate_for_pe_budget,
    allocate_request,
)
from repro.synthesizer.coreop import CoreOpGraph, WeightGroup


def graph_with_reuses(reuses: list[int]) -> CoreOpGraph:
    g = CoreOpGraph("synthetic")
    for i, reuse in enumerate(reuses):
        g.add_group(
            WeightGroup(
                name=f"g{i}", source=f"g{i}", kind="matmul",
                rows=256, cols=256, reuse=reuse, macs_per_instance=256 * 256,
            )
        )
    return g


class TestGroupAllocation:
    def test_iterations(self):
        alloc = GroupAllocation(group="g", tiles=2, duplication=4, reuse=10)
        assert alloc.pes == 8
        assert alloc.iterations == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupAllocation("g", tiles=0, duplication=1, reuse=1)
        with pytest.raises(ValueError):
            GroupAllocation("g", tiles=1, duplication=5, reuse=2)

    def test_iterations_are_exact_above_2_to_the_53(self):
        # a float quotient rounds 2**53 + 1 down to 2**53
        alloc = GroupAllocation(group="g", tiles=1, duplication=2, reuse=2**53 + 1)
        assert alloc.iterations == 2**52 + 1
        allocation = allocate(graph_with_reuses([2**53 + 1, 3]), duplication_degree=2)
        assert allocation.max_iterations == 2**52 + 1
        assert allocation.allocation("g1").duplication == 1

    def test_totals_survive_a_pickle_and_stay_out_of_it(self, lenet_coreops):
        allocation = allocate(lenet_coreops, 4)
        payload = pickle.dumps(allocation)
        assert b"total_pes" not in payload and b"iterations" not in payload
        loaded = pickle.loads(payload)
        assert loaded == allocation and repr(loaded) == repr(allocation)
        assert (loaded.total_pes, loaded.max_iterations, loaded.min_pes) == (
            allocation.total_pes, allocation.max_iterations, allocation.min_pes,
        )


class TestAllocate:
    def test_duplication_one_gives_min_pes(self, lenet_coreops):
        allocation = allocate(lenet_coreops, 1)
        assert allocation.total_pes == lenet_coreops.min_pes()
        assert allocation.replication == 1

    def test_bottleneck_gets_full_duplication(self):
        g = graph_with_reuses([100, 10, 1])
        allocation = allocate(g, 4)
        assert allocation.allocation("g0").duplication == 4
        assert allocation.max_iterations == 25

    def test_other_groups_balanced_to_bottleneck(self):
        g = graph_with_reuses([100, 10, 1])
        allocation = allocate(g, 4)
        # target iterations = 25, so g1 (reuse 10) needs only 1 duplicate
        assert allocation.allocation("g1").duplication == 1
        assert allocation.allocation("g1").iterations <= 25

    def test_duplication_capped_at_reuse(self):
        g = graph_with_reuses([4])
        allocation = allocate(g, 100)
        assert allocation.allocation("g0").duplication == 4
        assert allocation.max_iterations == 1

    def test_replication_for_surplus_duplication(self):
        g = graph_with_reuses([4])
        allocation = allocate(g, 16)
        assert allocation.replication == 4
        assert allocation.total_pes == 4 * allocation.pes_per_replica

    def test_no_replication_when_reuse_not_exhausted(self, vgg16_coreops):
        allocation = allocate(vgg16_coreops, 64)
        assert allocation.replication == 1

    def test_temporal_utilization_increases_with_duplication(self, vgg16_coreops):
        low = allocate(vgg16_coreops, 1).temporal_utilization()
        high = allocate(vgg16_coreops, 64).temporal_utilization()
        assert 0 < low < high <= 1.0

    def test_mlp_temporal_utilization_high(self, mlp_coreops):
        """No weight sharing in the dense layers: utilization is already
        reasonable at duplication 1 and reaches ~1 once the small reduction
        imbalance is duplicated away."""
        balanced = allocate(mlp_coreops, mlp_coreops.max_reuse_degree)
        assert balanced.temporal_utilization() == pytest.approx(1.0, abs=0.05)

    def test_invalid_duplication(self, mlp_coreops):
        with pytest.raises(ValueError):
            allocate(mlp_coreops, 0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            allocate(CoreOpGraph("empty"), 1)

    @given(dup=st.integers(min_value=1, max_value=512))
    @settings(max_examples=20, deadline=None)
    def test_iterations_shrink_monotonically(self, dup):
        g = graph_with_reuses([257, 31, 5])
        base = allocate(g, 1).max_iterations
        assert allocate(g, dup).max_iterations <= base

    @given(dup=st.integers(min_value=1, max_value=128))
    @settings(max_examples=20, deadline=None)
    def test_total_pes_monotone_in_duplication(self, dup):
        g = graph_with_reuses([300, 40, 7, 1])
        assert allocate(g, dup).total_pes <= allocate(g, dup + 1).total_pes


class TestAllocateForBudget:
    def test_budget_below_minimum_returns_none(self, lenet_coreops):
        assert allocate_for_pe_budget(lenet_coreops, lenet_coreops.min_pes() - 1) is None
        assert allocate_for_pe_budget(lenet_coreops, 0) is None

    def test_budget_respected(self, vgg16_coreops):
        budget = 2 * vgg16_coreops.min_pes()
        allocation = allocate_for_pe_budget(vgg16_coreops, budget)
        assert allocation is not None
        assert allocation.total_pes <= budget

    def test_larger_budget_never_slower(self, lenet_coreops):
        small = allocate_for_pe_budget(lenet_coreops, 30)
        large = allocate_for_pe_budget(lenet_coreops, 300)
        assert small is not None and large is not None
        small_rate = small.replication / small.max_iterations
        large_rate = large.replication / large.max_iterations
        assert large_rate >= small_rate

    def test_budget_exploits_replication(self, mlp_coreops):
        generous = allocate_for_pe_budget(mlp_coreops, 50 * mlp_coreops.min_pes())
        assert generous is not None
        assert generous.replication > 1


class TestAllocateRequest:
    def test_one_allocation_per_request_and_graph_version(self):
        g, pe = graph_with_reuses([8, 2]), PEParams()
        first = allocate_request(g, 4, pe)
        assert allocate_request(g, 4, pe, target_iterations=None) is first
        assert allocate_request(g, 4, pe, target_iterations=1) == allocate(g, 4, target_iterations=1)
        assert allocate_request(g, 2, pe) == allocate(g, 2)
        assert allocate_request(g, 1, pe, pe_budget=100) == allocate_for_pe_budget(g, 100)
        g.add_group(WeightGroup("g9", "g9", "matmul", 512, 256, reuse=16, macs_per_instance=1))
        assert allocate_request(g, 4, pe) == allocate(g, 4)
        assert allocate_request(g, 4, pe).total_pes == 2 * 4 + 2 + 1  # g9, g0, g1
