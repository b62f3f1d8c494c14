"""The "Simple" time-of-day strategy of Figure 12/13.

"The Simple strategy increases machines in the morning and decreases
them at night.  It seems like it could work ... but it breaks down as
soon as there is any deviation from the pattern."  It is a fixed
schedule: scale to ``day_machines`` at :data:`MORNING_HOUR` and back to
``night_machines`` at :data:`NIGHT_HOUR`, every day, regardless of load.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SimulationError
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


#: Local hour (0-24) of the daily scale-out: early enough that the
#: migration completes before the morning ramp under normal conditions.
MORNING_HOUR = 5.0
#: Local hour of the nightly scale-in.
NIGHT_HOUR = 23.5


class SimpleStrategy(ProvisioningStrategy):
    """Clock-driven day/night allocation.

    Parameters
    ----------
    day_machines, night_machines:
        cluster sizes to hold during the day and overnight.
    slots_per_day:
        planner intervals per day.
    """

    def __init__(
        self,
        day_machines: int,
        night_machines: int,
        slots_per_day: int,
    ):
        if night_machines < 1 or day_machines < night_machines:
            raise SimulationError(
                "need day_machines >= night_machines >= 1 "
                f"(got {day_machines}, {night_machines})"
            )
        if slots_per_day < 1:
            raise SimulationError("slots_per_day must be >= 1")
        self.day_machines = day_machines
        self.night_machines = night_machines
        self.slots_per_day = slots_per_day
        self._morning_slot = int(MORNING_HOUR / 24.0 * slots_per_day)
        self._night_slot = int(NIGHT_HOUR / 24.0 * slots_per_day)
        self.name = f"simple-{night_machines}/{day_machines}"

    def _target_for_slot(self, slot: int) -> int:
        time_of_day = slot % self.slots_per_day
        if self._morning_slot <= time_of_day < self._night_slot:
            return self.day_machines
        return self.night_machines

    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        target = self._target_for_slot(slot)
        if target == current_machines:
            return NO_ACTION
        direction = "morning scale-out" if target > current_machines else "night scale-in"
        return ScaleDecision(target_machines=target, reason=direction)
