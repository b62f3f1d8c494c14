"""Manual provisioning: operator-scheduled reconfigurations.

The paper's composite vision (Sec. 1) includes *manual provisioning* for
rare but expected events ("special promotions for B2W").  The strategy
executes a fixed list of (slot, target machines) actions.  It also
doubles as the driver for controlled migration experiments such as the
chunk-size study of Figure 8, where a single move must start at a known
time with a known rate.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import SimulationError
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


class ManualStrategy(ProvisioningStrategy):
    """Replay a fixed scaling timetable.

    Parameters
    ----------
    actions:
        iterable of ``(slot, target_machines)`` or
        ``(slot, target_machines, rate_multiplier)`` tuples.  Each fires
        at the first consulted slot >= its scheduled slot (strategies are
        not consulted while a migration is in flight).
    """

    def __init__(self, actions: Sequence[Tuple]):
        parsed = []
        for action in actions:
            if len(action) == 2:
                slot, target = action
                rate = 1.0
            elif len(action) == 3:
                slot, target, rate = action
            else:
                raise SimulationError(
                    "actions must be (slot, target[, rate_multiplier])"
                )
            if slot < 0 or target < 1 or rate <= 0:
                raise SimulationError(f"invalid manual action {action!r}")
            parsed.append((int(slot), int(target), float(rate)))
        self._actions = sorted(parsed)
        self._next = 0
        self.name = "manual"

    def reset(self, initial_machines: int, known=None, injector=None) -> None:
        super().reset(initial_machines, known, injector)
        self._next = 0

    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        while self._next < len(self._actions) and self._actions[self._next][0] <= slot:
            due_slot, target, rate = self._actions[self._next]
            self._next += 1
            if target != current_machines:
                return ScaleDecision(
                    target_machines=target,
                    rate_multiplier=rate,
                    reason=f"manual action scheduled at slot {due_slot}",
                )
        return NO_ACTION
