"""Structured event log: a run's per-interval series as JSONL rows.

Every interval measurement, forecast and allocation sample is one flat
dict with a ``kind``, a monotone sequence number, an optional simulated
``time``, and free-form fields, written by the service and the
simulators alike.  What *happened* — moves, provisioning actions,
violations and their causes — is in the chronicle
(:mod:`repro.telemetry.causal`), not here.

Well-known kinds (see docs/OBSERVABILITY.md for schemas):

``interval``
    one closed measurement interval: ``slot``, ``tps``;
``forecast``
    one controller forecast: ``history_len``, ``measured_now``,
    ``predicted_next``, ``inflated_next``, ``horizon``;
``machines``
    per-slot allocation sample: ``slot``, ``machines``, ``migrating``;
``fault.*``
    fault lifecycle steps mirrored by the injector;
``serve.trigger`` / ``serve.mode``
    error-trigger breaches and mode flips of ``pstore serve``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class EventLog:
    """In-memory append-only list of structured events."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._seq = 0

    def emit(self, kind: str, time: Optional[float] = None, **fields) -> dict:
        """Append one event; returns the stored dict (already sequenced)."""
        self._seq += 1
        event = {"seq": self._seq, "kind": kind, "time": time}
        event.update(fields)
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> List[dict]:
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def snapshot(self) -> List[dict]:
        return list(self.events)


class NullEventLog:
    """Event log that drops everything; shared by disabled telemetry."""

    events: Tuple[dict, ...] = ()

    def emit(self, kind: str, time: Optional[float] = None, **fields) -> dict:
        return {}

    def by_kind(self, kind: str) -> List[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> List[dict]:
        return []


NULL_EVENTS = NullEventLog()
