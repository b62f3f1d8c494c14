"""Static allocation: a fixed number of machines, never reconfigures.

The paper evaluates static allocation at 10 machines (peak-provisioned,
Fig. 9a) and 4 machines (trough-provisioned, Fig. 9b).  Its weakness is
inflexibility: 10 machines waste half the fleet at night and still buckle
under Black Friday, while 4 machines violate tail-latency SLAs daily.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SimulationError
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


class StaticStrategy(ProvisioningStrategy):
    """Always hold ``machines`` servers."""

    def __init__(self, machines: int):
        if machines < 1:
            raise SimulationError("machines must be >= 1")
        self.machines = machines
        self.name = f"static-{machines}"

    def reset(self, initial_machines: int, known=None, injector=None) -> None:
        super().reset(initial_machines, known, injector)
        if initial_machines != self.machines:
            raise SimulationError(
                f"static strategy for {self.machines} machines started "
                f"with {initial_machines}"
            )

    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        return NO_ACTION
