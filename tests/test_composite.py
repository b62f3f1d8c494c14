"""Tests for the composite (predictive + manual) strategy."""

import pytest

from repro.config import default_config
from repro.elasticity import (
    CompositeStrategy,
    ManualReservation,
    StaticStrategy,
)
from repro.elasticity.base import NO_ACTION, ProvisioningStrategy, ScaleDecision
from repro.errors import SimulationError

CFG = default_config()


class ScriptedStrategy(ProvisioningStrategy):
    """Test double returning pre-programmed decisions."""

    name = "scripted"

    def __init__(self, decisions):
        self._decisions = dict(decisions)
        self.started = []

    def decide(self, slot, history_tps, current_machines):
        return self._decisions.get(slot, NO_ACTION)

    def notify_move_started(self, target):
        self.started.append(target)


class TestReservationValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(SimulationError):
            ManualReservation(start_slot=5, end_slot=5, min_machines=2)
        with pytest.raises(SimulationError):
            ManualReservation(start_slot=-1, end_slot=5, min_machines=2)

    def test_machines_positive(self):
        with pytest.raises(SimulationError):
            ManualReservation(start_slot=0, end_slot=5, min_machines=0)

    def test_active_at(self):
        reservation = ManualReservation(10, 20, 5)
        assert reservation.active_at(10)
        assert reservation.active_at(19)
        assert not reservation.active_at(20)
        assert not reservation.active_at(9)


class TestCompositeBehaviour:
    def make(self, decisions=(), reservations=(), lead=2):
        base = ScriptedStrategy(dict(decisions))
        return base, CompositeStrategy(base, reservations, lead_slots=lead)

    def test_passthrough_without_reservations(self):
        base, composite = self.make(
            decisions={3: ScaleDecision(target_machines=5)}
        )
        composite.reset(2)
        assert not composite.decide(0, [1.0], 2).acts
        assert composite.decide(3, [1.0], 2).target_machines == 5

    def test_reservation_forces_scale_out_with_lead(self):
        _, composite = self.make(
            reservations=[ManualReservation(10, 20, 6)], lead=2
        )
        composite.reset(3)
        # Before the lead window: nothing.
        assert not composite.decide(7, [1.0], 3).acts
        # Lead window: forced scale-out.
        decision = composite.decide(8, [1.0], 3)
        assert decision.target_machines == 6
        assert "reservation" in decision.reason

    def test_base_target_above_floor_wins(self):
        _, composite = self.make(
            decisions={12: ScaleDecision(target_machines=9)},
            reservations=[ManualReservation(10, 20, 6)],
        )
        composite.reset(6)
        assert composite.decide(12, [1.0], 6).target_machines == 9

    def test_scale_in_clamped_to_floor(self):
        _, composite = self.make(
            decisions={12: ScaleDecision(target_machines=2)},
            reservations=[ManualReservation(10, 20, 6)],
        )
        composite.reset(8)
        decision = composite.decide(12, [1.0], 8)
        assert decision.target_machines == 6
        assert "clamped" in decision.reason

    def test_scale_in_suppressed_at_floor(self):
        _, composite = self.make(
            decisions={12: ScaleDecision(target_machines=2)},
            reservations=[ManualReservation(10, 20, 6)],
        )
        composite.reset(6)
        assert not composite.decide(12, [1.0], 6).acts

    def test_overlapping_reservations_compose_by_max(self):
        _, composite = self.make(
            reservations=[
                ManualReservation(10, 30, 4),
                ManualReservation(15, 20, 7),
            ],
            lead=0,
        )
        composite.reset(2)
        assert composite.decide(12, [1.0], 2).target_machines == 4
        assert composite.decide(16, [1.0], 4).target_machines == 7

    def test_after_window_base_resumes(self):
        _, composite = self.make(
            decisions={25: ScaleDecision(target_machines=1)},
            reservations=[ManualReservation(10, 20, 6)],
        )
        composite.reset(6)
        assert composite.decide(25, [1.0], 6).target_machines == 1

    def test_notifications_forwarded(self):
        base, composite = self.make()
        composite.reset(2)
        composite.notify_move_started(5)
        assert base.started == [5]

    def test_name_derived(self):
        composite = CompositeStrategy(StaticStrategy(4), [])
        assert composite.name == "static-4+manual"

    def test_invalid_lead(self):
        with pytest.raises(SimulationError):
            CompositeStrategy(StaticStrategy(4), [], lead_slots=-1)
