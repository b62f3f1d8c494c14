"""P-Store's core contribution: the predictive-elasticity algorithm.

* :mod:`repro.core.model` — the analytic move model (Eqs. 2-7, Alg. 4);
* :mod:`repro.core.moves` — move/schedule value types;
* :mod:`repro.core.planner` — the dynamic-programming planner (Algs. 1-3);
* :mod:`repro.core.controller` — the online Predictive Controller (Sec. 6).
"""

from .model import (
    MoveProfile,
    avg_machines_allocated,
    capacity,
    effective_capacity,
    machines_allocated_at,
    max_parallel,
    move_cost,
    move_profile,
    move_time,
    move_time_intervals,
    moved_fraction,
)
from .controller import PredictiveController
from .moves import Move, MoveSchedule
from .planner import Planner, PlanRequest

__all__ = [
    "PredictiveController",
    "Move",
    "MoveProfile",
    "MoveSchedule",
    "PlanRequest",
    "Planner",
    "avg_machines_allocated",
    "capacity",
    "effective_capacity",
    "machines_allocated_at",
    "max_parallel",
    "move_cost",
    "move_profile",
    "move_time",
    "move_time_intervals",
    "moved_fraction",
]
