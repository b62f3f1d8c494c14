"""Reactive provisioning in the style of E-Store (Taft et al., VLDB'14).

E-Store continuously monitors load and reconfigures *after* detecting
that the system is (close to) overloaded — which means migration runs
while the cluster is already at peak capacity, producing the latency
spikes of Fig. 9c.  Our reactive baseline follows that scheme:

* **scale-out** triggers as soon as the measured load exceeds
  :data:`SCALE_OUT_THRESHOLD` of the cluster's maximum throughput
  (``N * Q-hat``); the target brings per-server load back down to the
  target rate ``Q``;
* **scale-in** triggers only after the load has stayed below what a
  smaller cluster could comfortably serve for ``scale_in_patience``
  consecutive intervals (reactive systems also debounce, or they thrash).

Figure 12 traces the reactive capacity-cost curve by sweeping Q; the
patience is the one knob the experiments set.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..config import PStoreConfig
from ..errors import SimulationError
from ..persist import Persisted
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


#: Scale out once the load passes this fraction of ``N * Q-hat``.
SCALE_OUT_THRESHOLD = 0.90
#: Migration-rate boost of every reactive move (E-Store moves fast).
RATE_MULTIPLIER = 4.0


class ReactiveStrategy(ProvisioningStrategy, Persisted):
    """Threshold-triggered reactive allocation (the E-Store baseline)."""

    PERSIST = ("_below_streak",)

    def __init__(
        self,
        config: PStoreConfig,
        scale_in_patience: int = 15,
        max_machines: Optional[int] = None,
    ):
        if scale_in_patience < 1:
            raise SimulationError("scale_in_patience must be >= 1")
        self.config = config
        self.scale_in_patience = scale_in_patience
        self.max_machines = max_machines
        self._below_streak = 0
        self.name = "reactive"

    def reset(self, initial_machines: int, known=None, injector=None) -> None:
        super().reset(initial_machines, known, injector)
        self._below_streak = 0

    def _target_for(self, load_tps: float) -> int:
        """Machines that bring per-server load to Q."""
        target = max(1, math.ceil(load_tps / self.config.q - 1e-9))
        if self.max_machines is not None:
            target = min(target, self.max_machines)
        return target

    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        load = float(history_tps[-1])
        max_capacity = current_machines * self.config.q_hat

        # Overload: scale out immediately (and while overloaded!).
        if load > SCALE_OUT_THRESHOLD * max_capacity:
            self._below_streak = 0
            target = max(self._target_for(load), current_machines + 1)
            if self.max_machines is not None:
                target = min(target, self.max_machines)
            if target <= current_machines:
                return NO_ACTION
            return ScaleDecision(
                target_machines=target,
                rate_multiplier=RATE_MULTIPLIER,
                reason=f"load {load:.0f} > {SCALE_OUT_THRESHOLD:.0%} of max capacity",
            )

        # Underload: be patient, then shrink to the fitted size.
        fitted = self._target_for(load)
        if fitted < current_machines:
            self._below_streak += 1
            if self._below_streak >= self.scale_in_patience:
                self._below_streak = 0
                return ScaleDecision(
                    target_machines=fitted,
                    rate_multiplier=RATE_MULTIPLIER,
                    reason=f"load fits {fitted} machines for "
                    f"{self.scale_in_patience} intervals",
                )
        else:
            self._below_streak = 0
        return NO_ACTION
