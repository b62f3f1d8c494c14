"""Reactive provisioning in the style of E-Store (Taft et al., VLDB'14).

E-Store continuously monitors load and reconfigures *after* detecting
that the system is (close to) overloaded — which means migration runs
while the cluster is already at peak capacity, producing the latency
spikes of Fig. 9c.  Our reactive baseline follows that scheme:

* **scale-out** triggers as soon as the measured load exceeds
  ``scale_out_threshold`` of the cluster's maximum throughput
  (``N * Q-hat``); the target brings per-server load back down to the
  target rate ``Q`` plus a headroom factor;
* **scale-in** triggers only after the load has stayed below what a
  smaller cluster could comfortably serve for ``scale_in_patience``
  consecutive intervals (reactive systems also debounce, or they thrash).

The ``headroom`` knob is what Figure 12 sweeps (together with Q) to
trace the reactive capacity-cost curve: more headroom means fewer
capacity violations at higher cost.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..config import PStoreConfig
from ..errors import SimulationError
from ..persist import Persisted
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


class ReactiveStrategy(ProvisioningStrategy, Persisted):
    """Threshold-triggered reactive allocation (the E-Store baseline)."""

    PERSIST = ("_below_streak",)

    def __init__(
        self,
        config: PStoreConfig,
        scale_out_threshold: float = 0.90,
        headroom: float = 1.0,
        scale_in_patience: int = 15,
        min_machines: int = 1,
        max_machines: Optional[int] = None,
        rate_multiplier: float = 4.0,
    ):
        if not 0 < scale_out_threshold <= 1:
            raise SimulationError("scale_out_threshold must be in (0, 1]")
        if headroom <= 0:
            raise SimulationError("headroom must be positive")
        if scale_in_patience < 1:
            raise SimulationError("scale_in_patience must be >= 1")
        if min_machines < 1:
            raise SimulationError("min_machines must be >= 1")
        self.config = config
        self.scale_out_threshold = scale_out_threshold
        self.headroom = headroom
        self.scale_in_patience = scale_in_patience
        self.min_machines = min_machines
        self.max_machines = max_machines
        self.rate_multiplier = rate_multiplier
        self._below_streak = 0
        self.name = "reactive"

    def reset(self, initial_machines: int) -> None:
        super().reset(initial_machines)
        self._below_streak = 0

    def _target_for(self, load_tps: float) -> int:
        """Machines that bring per-server load to Q with headroom."""
        target = max(
            self.min_machines,
            math.ceil(load_tps * self.headroom / self.config.q - 1e-9),
        )
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
        if load > self.scale_out_threshold * max_capacity:
            self._below_streak = 0
            target = max(self._target_for(load), current_machines + 1)
            if self.max_machines is not None:
                target = min(target, self.max_machines)
            if target <= current_machines:
                return NO_ACTION
            return ScaleDecision(
                target_machines=target,
                rate_multiplier=self.rate_multiplier,
                reason=f"load {load:.0f} > {self.scale_out_threshold:.0%} of max capacity",
            )

        # Underload: be patient, then shrink to the fitted size.
        fitted = self._target_for(load)
        if fitted < current_machines:
            self._below_streak += 1
            if self._below_streak >= self.scale_in_patience:
                self._below_streak = 0
                return ScaleDecision(
                    target_machines=fitted,
                    rate_multiplier=self.rate_multiplier,
                    reason=f"load fits {fitted} machines for "
                    f"{self.scale_in_patience} intervals",
                )
        else:
            self._below_streak = 0
        return NO_ACTION
