"""Simulation drivers: the full elastic-DBMS simulator (Figs. 7-11) and
the fast capacity-level simulator used for the 4.5-month sweeps
(Sec. 8.3, Figs. 12-13)."""

from .capacity_sim import (
    CapacitySimResult,
    CapacitySimulator,
    run_capacity_simulation,
)
from .simulator import ElasticDbSimulator, SimulationResult

__all__ = [
    "CapacitySimResult",
    "CapacitySimulator",
    "ElasticDbSimulator",
    "SimulationResult",
    "run_capacity_simulation",
]
