"""Declarative fault model: what can go wrong, when, and how badly.

A :class:`FaultSpec` describes one failure to inject into a run.  The
taxonomy covers the ways the paper's fault-free evaluation can be
broken (see docs/FAULTS.md):

``node_crash``
    a machine dies; its buckets must be recovered onto survivors and
    the controller must re-plan with the smaller cluster;
``node_slowdown``
    a straggler: one machine serves at ``capacity_multiplier`` of its
    normal rate for ``duration_seconds``;
``migration_stall``
    an in-flight reconfiguration stops making progress (a wedged
    transfer lane) until the stall window ends; the migrator's retry
    watchdog must detect and re-drive it;
``transfer_corruption``
    one machine-pair transfer arrives corrupted and must be re-sent
    before its bucket moves commit;
``forecast_drift``
    the predictor's output is scaled by ``magnitude`` for a window,
    emulating model drift / a workload shift the model has not seen.

Faults fire either at an absolute simulated time (``at_time``) or on a
trigger predicate (``on_migration=3`` fires when the 3rd reconfiguration
of the run starts).  A :class:`FaultScenario` bundles the specs with the
seed that makes a chaos run reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import FaultError

#: The supported fault classes.
NODE_CRASH = "node_crash"
NODE_SLOWDOWN = "node_slowdown"
MIGRATION_STALL = "migration_stall"
TRANSFER_CORRUPTION = "transfer_corruption"
FORECAST_DRIFT = "forecast_drift"

FAULT_KINDS = (
    NODE_CRASH,
    NODE_SLOWDOWN,
    MIGRATION_STALL,
    TRANSFER_CORRUPTION,
    FORECAST_DRIFT,
)

#: Kinds that act over a window and therefore need a positive duration.
_WINDOWED = (NODE_SLOWDOWN, MIGRATION_STALL, FORECAST_DRIFT)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Exactly one of ``at_time`` (simulated seconds) and ``on_migration``
    (1-based count of reconfiguration starts) selects the trigger.
    ``node`` targets a specific machine for crash/slowdown faults; when
    None the injector picks one of the live machines with its seeded RNG.
    """

    kind: str
    at_time: Optional[float] = None
    on_migration: Optional[int] = None
    node: Optional[int] = None
    duration_seconds: float = 0.0
    capacity_multiplier: float = 1.0
    magnitude: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; valid kinds are "
                f"{sorted(FAULT_KINDS)}"
            )
        if (self.at_time is None) == (self.on_migration is None):
            raise FaultError(
                f"{self.kind}: exactly one of at_time / on_migration must be set"
            )
        if self.at_time is not None and self.at_time < 0:
            raise FaultError(f"{self.kind}: at_time must be >= 0")
        if self.on_migration is not None and self.on_migration < 1:
            raise FaultError(f"{self.kind}: on_migration counts from 1")
        if self.kind in _WINDOWED and self.duration_seconds <= 0:
            raise FaultError(
                f"{self.kind}: duration_seconds must be positive"
            )
        if self.kind == NODE_SLOWDOWN and not 0 < self.capacity_multiplier < 1:
            raise FaultError(
                "node_slowdown: capacity_multiplier must be in (0, 1) "
                f"(got {self.capacity_multiplier})"
            )
        if self.kind == NODE_SLOWDOWN and self.node is None:
            raise FaultError("node_slowdown: a target node is required")
        if self.kind == FORECAST_DRIFT and self.magnitude <= 0:
            raise FaultError("forecast_drift: magnitude must be positive")
        if self.node is not None and self.node < 0:
            raise FaultError(f"{self.kind}: node must be >= 0")

    @property
    def is_windowed(self) -> bool:
        return self.kind in _WINDOWED

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise FaultError(
                f"unknown fault spec keys {sorted(unknown)}; valid keys "
                f"are {sorted(valid)}"
            )
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class FaultScenario:
    """A named, seeded bundle of faults (one chaos run's script).

    Scenario files are JSON::

        {"name": "crash-mid-migration",
         "seed": 7,
         "faults": [
           {"kind": "node_crash", "on_migration": 1},
           {"kind": "forecast_drift", "at_time": 600,
            "duration_seconds": 1200, "magnitude": 0.5}
         ]}
    """

    faults: Tuple[FaultSpec, ...]
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise FaultError("faults must be FaultSpec instances")

    def __len__(self) -> int:
        return len(self.faults)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultScenario":
        valid = {"faults", "seed", "name"}
        unknown = set(data) - valid
        if unknown:
            raise FaultError(
                f"unknown scenario keys {sorted(unknown)}; valid keys are "
                f"{sorted(valid)}"
            )
        raw = data.get("faults", ())
        if not isinstance(raw, (list, tuple)):
            raise FaultError("scenario 'faults' must be a list")
        specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in raw
        )
        return cls(
            faults=specs,
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "scenario")),
        )

    @classmethod
    def from_file(cls, path) -> "FaultScenario":
        try:
            text = pathlib.Path(path).read_text()
        except OSError as exc:
            raise FaultError(f"cannot read scenario file {path}: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"scenario file {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise FaultError("scenario file must contain a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }


def crash_during_migration_scenario(
    migration: int = 1, seed: int = 7, node: Optional[int] = None
) -> FaultScenario:
    """The canonical chaos drill: kill a machine as a reconfiguration
    starts, forcing an abort, emergency bucket recovery, and a re-plan."""
    return FaultScenario(
        faults=(
            FaultSpec(kind=NODE_CRASH, on_migration=migration, node=node,
                      label="crash-during-migration"),
        ),
        seed=seed,
        name="crash-during-migration",
    )
