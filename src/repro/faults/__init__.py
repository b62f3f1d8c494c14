"""Fault injection and failure recovery (the chaos layer).

The paper evaluates P-Store on a fault-free cluster; this package adds
the machinery to break that assumption on purpose and measure how the
predictive control loop degrades and recovers:

* :mod:`repro.faults.spec` — the declarative fault model
  (:class:`FaultSpec`, :class:`FaultScenario`): node crashes,
  stragglers, migration stalls, transfer corruption, forecast drift,
  fired at simulated times or on trigger predicates;
* :mod:`repro.faults.injector` — the seeded :class:`FaultInjector`
  state machine hosts thread through the simulator, migrator,
  controller, and service, plus the deterministic
  injected/detected/recovered chronicle;
* :mod:`repro.faults.report` — recovery accounting (MTTR, detection
  latency) and the text report of a chaos run.

See docs/FAULTS.md for the taxonomy, the scenario-file format, and the
recovery semantics of each fault class.  The retry policy that
re-drives stalled or corrupted transfers is the config's ``faults``
section (:class:`repro.config.FaultConfig`).
"""

from .injector import FaultInjector, FaultRecord, TTR_BOUNDS, injector_from_config
from .report import (
    RecoveryStats,
    mean_time_to_recover,
    recovery_stats,
    render_fault_report,
)
from .spec import (
    FAULT_KINDS,
    FORECAST_DRIFT,
    MIGRATION_STALL,
    NODE_CRASH,
    NODE_SLOWDOWN,
    TRANSFER_CORRUPTION,
    FaultScenario,
    FaultSpec,
    crash_during_migration_scenario,
)

__all__ = [
    "FAULT_KINDS",
    "FORECAST_DRIFT",
    "FaultInjector",
    "FaultRecord",
    "FaultScenario",
    "FaultSpec",
    "MIGRATION_STALL",
    "NODE_CRASH",
    "NODE_SLOWDOWN",
    "RecoveryStats",
    "TRANSFER_CORRUPTION",
    "TTR_BOUNDS",
    "crash_during_migration_scenario",
    "injector_from_config",
    "mean_time_to_recover",
    "recovery_stats",
    "render_fault_report",
]
