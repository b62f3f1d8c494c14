"""Composite provisioning: predictive + manual (+ implicit reactive).

Section 1 of the paper envisions "a composite strategy for elastic
provisioning ... (i) predictive provisioning ... (ii) reactive
provisioning to react in real time to unpredictable load spikes; and
(iii) manual provisioning for rare one-off, but expected, load spikes
(e.g. special promotions for B2W)".

P-Store's controller already embeds (i) and (ii) — the reactive fallback
fires whenever the planner is infeasible.  :class:`CompositeStrategy`
adds (iii): an operator calendar of minimum cluster sizes (e.g. "hold at
least 8 machines through the promotion window") that overrides the
predictive decision whenever the prediction would dip below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import SimulationError
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


@dataclass(frozen=True)
class ManualReservation:
    """An operator-declared minimum cluster size over a slot window."""

    start_slot: int
    end_slot: int
    min_machines: int
    label: str = "reservation"

    def __post_init__(self) -> None:
        if self.start_slot < 0 or self.end_slot <= self.start_slot:
            raise SimulationError(
                f"invalid reservation window [{self.start_slot}, {self.end_slot})"
            )
        if self.min_machines < 1:
            raise SimulationError("min_machines must be >= 1")

    def active_at(self, slot: int) -> bool:
        return self.start_slot <= slot < self.end_slot


class CompositeStrategy(ProvisioningStrategy):
    """A base strategy constrained by manual reservations.

    Parameters
    ----------
    base:
        the underlying strategy (normally a
        :class:`~repro.elasticity.predictive.PStoreStrategy`).
    reservations:
        operator calendar; overlapping reservations compose by maximum.
    lead_slots:
        how many slots *before* a reservation window the scale-out is
        initiated, so migration completes before the event begins.
    """

    def __init__(
        self,
        base: ProvisioningStrategy,
        reservations: Sequence[ManualReservation],
        lead_slots: int = 6,
    ):
        if lead_slots < 0:
            raise SimulationError("lead_slots must be >= 0")
        self.base = base
        self.reservations: List[ManualReservation] = sorted(
            reservations, key=lambda r: r.start_slot
        )
        self.lead_slots = lead_slots
        self.name = f"{base.name}+manual"

    def reset(self, initial_machines: int) -> None:
        super().reset(initial_machines)
        self.base.reset(initial_machines)

    def _floor_at(self, slot: int) -> int:
        """Minimum machines demanded by the calendar at ``slot``
        (looking ``lead_slots`` ahead so moves start early)."""
        floor = 0
        for reservation in self.reservations:
            if reservation.start_slot - self.lead_slots <= slot < reservation.end_slot:
                floor = max(floor, reservation.min_machines)
        return floor

    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        decision = self.base.decide(slot, history_tps, current_machines)
        floor = self._floor_at(slot)
        target = decision.target_machines

        if floor > current_machines and (target is None or target < floor):
            return ScaleDecision(
                target_machines=floor,
                rate_multiplier=decision.rate_multiplier,
                reason=f"manual reservation requires >= {floor} machines",
            )
        if target is not None and target < max(floor, 1):
            # The base wants to scale below the reserved floor: clamp, or
            # suppress entirely if we are already at the floor.
            if current_machines == floor:
                return NO_ACTION
            return ScaleDecision(
                target_machines=floor,
                rate_multiplier=decision.rate_multiplier,
                reason=f"scale-in clamped to reserved floor of {floor}",
            )
        return decision

    def notify_move_started(self, target_machines: int) -> None:
        self.base.notify_move_started(target_machines)
