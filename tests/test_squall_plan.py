"""Tests for bucket-level reconfiguration plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MigrationError
from repro.hstore import PartitionPlan
from repro.squall import (
    balanced_target,
    make_reconfiguration_plan,
)

from .fixtures import plan_balance_error


class TestBalancedTarget:
    def test_even_spread(self):
        current = PartitionPlan.round_robin(60, [0, 1, 2])
        target = balanced_target(current, [0, 1, 2, 3, 4])
        counts = target.counts()
        assert all(counts[p] == 12 for p in range(5))

    def test_minimal_movement_on_scale_out(self):
        """Only the buckets destined for new partitions move."""
        current = PartitionPlan.round_robin(60, [0, 1, 2])
        target = balanced_target(current, [0, 1, 2, 3])
        moves = current.diff(target)
        # 60/4 = 15 per partition; each old partition sheds 5.
        assert len(moves) == 15
        assert all(dst == 3 for _, _, dst in moves)

    def test_scale_in_drains_retired_partitions(self):
        current = PartitionPlan.round_robin(60, [0, 1, 2, 3])
        target = balanced_target(current, [0, 1])
        counts = target.counts()
        assert counts == {0: 30, 1: 30}

    def test_uneven_quota_differs_by_at_most_one(self):
        current = PartitionPlan.round_robin(64, [0, 1, 2])
        target = balanced_target(current, [0, 1, 2, 3, 4])
        counts = target.counts()
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_empty_target_rejected(self):
        current = PartitionPlan.round_robin(8, [0])
        with pytest.raises(MigrationError):
            balanced_target(current, [])

    @given(
        n_buckets=st.integers(min_value=8, max_value=256),
        n_before=st.integers(min_value=1, max_value=8),
        n_after=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_balanced_and_covering(self, n_buckets, n_before, n_after):
        before = list(range(n_before))
        after = list(range(n_after))
        if n_buckets < max(n_before, n_after):
            return
        current = PartitionPlan.round_robin(n_buckets, before)
        target = balanced_target(current, after)
        counts = target.counts()
        assert set(counts) <= set(after)
        assert sum(counts.values()) == n_buckets
        assert max(counts.values()) - min(counts.values()) <= 1


class TestReconfigurationPlan:
    def test_moves_enumerated(self):
        current = PartitionPlan.round_robin(12, [0, 1])
        plan = make_reconfiguration_plan(current, [0, 1, 2])
        assert plan.n_moves == 4
        for move in plan.moves:
            assert move.destination_partition == 2

    def test_moves_grouped_by_node_pair(self):
        current = PartitionPlan.round_robin(12, [0, 1])
        plan = make_reconfiguration_plan(current, [0, 1, 2])
        node_of = {0: 0, 1: 0, 2: 1}  # partitions 0,1 on node 0; 2 on node 1
        grouped = plan.moves_by_node_pair(node_of)
        assert set(grouped) == {(0, 1)}
        assert len(grouped[(0, 1)]) == 4

    def test_same_node_moves_excluded_from_grouping(self):
        current = PartitionPlan.round_robin(12, [0, 1])
        plan = make_reconfiguration_plan(current, [0, 2])
        node_of = {0: 0, 1: 0, 2: 0}
        assert plan.moves_by_node_pair(node_of) == {}


class TestBalanceError:
    def test_zero_for_even_plan(self):
        plan = PartitionPlan.round_robin(64, [0, 1, 2, 3])
        assert plan_balance_error(plan, [0, 1, 2, 3]) == 0

    def test_positive_for_skewed_plan(self):
        plan = PartitionPlan([0] * 30 + [1] * 2)
        assert plan_balance_error(plan, [0, 1]) > 10
