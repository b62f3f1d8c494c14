"""Exception hierarchy for the P-Store reproduction.

Every error raised by this package derives from :class:`PStoreError`, so
callers can catch one type at an API boundary.  Subclasses are grouped by
the subsystem that raises them.
"""

from __future__ import annotations


class PStoreError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PStoreError):
    """A configuration value is missing, inconsistent, or out of range."""


#: Short alias; most call sites read better as ``except ConfigError``.
ConfigError = ConfigurationError


class StrategySpecError(ConfigurationError):
    """A provisioning-strategy spec string or mapping is malformed.

    Raised by :meth:`repro.elasticity.StrategySpec.parse` and
    :meth:`~repro.elasticity.StrategySpec.from_dict` — the one error type
    every consumer of strategy specs (CLI, experiments, fault scenarios)
    has to handle.
    """


class UnknownExperimentError(ConfigurationError):
    """An experiment name is not in :mod:`repro.experiments`' registry."""


class SweepError(PStoreError):
    """A sweep cell failed to execute.

    Completed cells are already persisted in the result cache when this
    is raised, so re-running the sweep resumes from where it stopped.
    """


class PlanningError(PStoreError):
    """The move planner was called with invalid inputs."""


class InfeasiblePlanError(PlanningError):
    """No feasible sequence of moves exists for the predicted load.

    This corresponds to the ``best-moves`` function of the paper returning
    the empty set (Algorithm 1, line 13): the initial cluster is too small
    to scale out in time for the predicted load.  The controller reacts to
    this by scaling out at either the regular or a boosted migration rate
    (Section 4.3.1 of the paper).
    """

    def __init__(self, message: str, required_machines: int = 0):
        super().__init__(message)
        #: Number of machines needed to serve the predicted peak.
        self.required_machines = required_machines


class PredictionError(PStoreError):
    """A prediction model was misused (e.g. predicting before fitting)."""


class NotFittedError(PredictionError):
    """The model must be fitted before it can predict."""


class CatalogError(PStoreError):
    """Schema/catalog misuse: unknown table, duplicate column, bad key."""


class RoutingError(PStoreError):
    """A transaction could not be routed to a partition."""


class TransactionAbort(PStoreError):
    """A stored procedure aborted (business-rule violation, missing row)."""


class MigrationError(PStoreError):
    """The migration subsystem was asked to do something invalid."""


class FaultError(PStoreError):
    """The fault-injection subsystem was misconfigured (unknown fault
    kind, contradictory trigger, invalid scenario file)."""


class SimulationError(PStoreError):
    """The simulator was driven with inconsistent inputs."""


class InvariantViolation(PStoreError):
    """A runtime invariant of :mod:`repro.check` failed.

    Raised by the invariant library when a cross-cutting consistency
    property breaks at runtime — rows lost across a migration commit,
    data fractions not summing to one, negative queue backlog, capacity
    accounting inconsistent with Q/Q̂.  Each raise is paired with an
    ``invariant.violation`` record in the telemetry chronicle so the
    divergence is auditable after the fact.
    """


class TelemetryError(PStoreError):
    """The telemetry subsystem was misused (metric type conflicts,
    invalid quantiles, unwritable artifact paths)."""
