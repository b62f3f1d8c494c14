"""The one decision type on the path planner -> strategy -> loop -> move.

A leaf module (it imports nothing from the package) because both
:mod:`repro.core.controller` and :mod:`repro.elasticity` produce
decisions and the latter imports the former.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ScaleDecision:
    """What a controller cycle or a strategy wants done right now.

    ``target_machines`` of None means "do nothing".  ``rate_multiplier``
    scales the migration rate (the paper's emergency R x 8 mode);
    ``emergency`` marks a reactive fallback taken because the planner
    found no feasible schedule.
    """

    target_machines: Optional[int] = None
    rate_multiplier: float = 1.0
    emergency: bool = False
    reason: str = ""
    #: chronicle ID of the ``plan.decision`` record behind this decision
    #: (None for strategies that don't record one, or with telemetry
    #: disabled); the move it starts parents its own records on it.
    record_id: Optional[str] = None

    @property
    def acts(self) -> bool:
        return self.target_machines is not None

    def target_from(
        self, machines: int, cap: Optional[int] = None
    ) -> Optional[int]:
        """The size to reconfigure to from ``machines``: the target
        capped at the machine limit, or None when that leaves nothing to
        do (no target, already at that size, or fewer than one machine)."""
        target = self.target_machines
        if target is None:
            return None
        if cap is not None:
            target = min(target, cap)
        if target == machines or target < 1:
            return None
        return target


#: The "do nothing" decision.
NO_ACTION = ScaleDecision()
