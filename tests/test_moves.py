"""Tests for Move and MoveSchedule value types."""

import pytest

from repro.core.moves import Move, MoveSchedule
from repro.errors import PlanningError


class TestMove:
    def test_basic_properties(self):
        move = Move(start=2, end=5, before=3, after=7)
        assert move.duration == 3
        assert move.is_scale_out
        assert not move.is_scale_in
        assert not move.is_noop

    def test_noop(self):
        move = Move(start=0, end=1, before=4, after=4)
        assert move.is_noop

    def test_scale_in(self):
        move = Move(start=0, end=2, before=5, after=2)
        assert move.is_scale_in

    def test_zero_duration_rejected(self):
        with pytest.raises(PlanningError):
            Move(start=3, end=3, before=2, after=3)

    def test_negative_duration_rejected(self):
        with pytest.raises(PlanningError):
            Move(start=3, end=1, before=2, after=3)

    def test_zero_machines_rejected(self):
        with pytest.raises(PlanningError):
            Move(start=0, end=1, before=0, after=3)


class TestMoveSchedule:
    def _chain(self):
        return MoveSchedule(
            [
                Move(start=0, end=1, before=2, after=2),
                Move(start=1, end=3, before=2, after=4),
                Move(start=3, end=4, before=4, after=4),
            ]
        )

    def test_valid_chain(self):
        schedule = self._chain()
        assert len(schedule) == 3
        assert schedule.final_machines == 4
        assert schedule.horizon == 4

    def test_first_real_move_skips_noops(self):
        schedule = self._chain()
        first = schedule.first_real_move
        assert first is not None
        assert (first.before, first.after) == (2, 4)

    def test_first_real_move_none_when_all_noop(self):
        schedule = MoveSchedule([Move(start=0, end=1, before=3, after=3)])
        assert schedule.first_real_move is None

    def test_gap_rejected(self):
        with pytest.raises(PlanningError):
            MoveSchedule(
                [
                    Move(start=0, end=1, before=2, after=2),
                    Move(start=2, end=3, before=2, after=3),  # gap at t=1
                ]
            )

    def test_machine_mismatch_rejected(self):
        with pytest.raises(PlanningError):
            MoveSchedule(
                [
                    Move(start=0, end=1, before=2, after=3),
                    Move(start=1, end=2, before=2, after=4),  # should be 3
                ]
            )

    def test_machines_at(self):
        schedule = self._chain()
        assert schedule.machines_at(0) == 2
        assert schedule.machines_at(1) == 2  # move in flight, still 2 senders
        assert schedule.machines_at(3) == 4
        assert schedule.machines_at(99) == 4

    def test_total_cost(self):
        schedule = self._chain()
        cost = schedule.total_cost(lambda m: float(m.duration))
        assert cost == 4.0

    def test_empty_schedule(self):
        schedule = MoveSchedule([])
        assert not schedule
        assert schedule.horizon == 0
        with pytest.raises(PlanningError):
            _ = schedule.final_machines

    def test_equality(self):
        assert self._chain() == self._chain()
        assert self._chain() != MoveSchedule([Move(0, 1, 2, 2)])

    def test_describe_mentions_every_move(self):
        text = self._chain().describe()
        assert text.count("\n") == 2
        assert "2->4" in text.replace(" ", "")
