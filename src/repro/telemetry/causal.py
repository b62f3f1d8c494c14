"""The reconfiguration flight recorder: a causal chronicle of decisions.

Metrics say *what* happened; the chronicle says *why*.  Every forecast
snapshot, plan decision, migration round, node add/remove, fault event,
and SLA violation becomes one :class:`FlightRecorder` record with a
stable ID and a ``parent`` link, forming walkable causal chains::

    forecast.snapshot -> plan.decision -> migration.start -> migration.round*
                                                          -> migration.complete
    fault.injected    -> fault.detected -> fault.retry* -> fault.recovered
    sla.violation     -> (its dominant cause: fault / move / forecast)

Records persist as ``chronicle.jsonl`` next to ``spans.jsonl``
(:func:`repro.telemetry.export.write_chronicle_jsonl`) and are rendered
by ``pstore explain`` (:mod:`repro.analysis.explain`).

IDs are derived from the record kind, the *simulated* timestamp, and a
per-recorder sequence counter — never from wall clocks or ``uuid`` — so
a run's chronicle is bit-identical across machines and repeat runs,
which keeps parallel sweeps cacheable (the PR-4 sim-time lint enforces
this file stays wall-clock free).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

#: Version tag written as the first row of every ``chronicle.jsonl``.
CHRONICLE_SCHEMA = "pstore.chronicle/v1"

#: Short ID prefixes for well-known record kinds (unknown kinds fall
#: back to the initials of their dotted segments).
_KIND_PREFIXES = {
    "forecast.snapshot": "fc",
    "forecast.accuracy": "fa",
    "plan.decision": "pd",
    "migration.start": "mg",
    "migration.round": "mr",
    "migration.complete": "mc",
    "migration.aborted": "mx",
    "node.add": "na",
    "node.remove": "nr",
    "node.report": "np",
    "node.stale": "ns",
    "node.recovered": "nv",
    "service.resume": "rz",
    "fault.injected": "fi",
    "fault.detected": "fd",
    "fault.retry": "fy",
    "fault.recovered": "fv",
    "sla.violation": "sv",
    "capacity.insufficient": "ci",
}


def _stamp(time: Optional[float]) -> str:
    """Deterministic, compact rendering of a simulated timestamp."""
    if time is None:
        return "x"
    value = float(time)
    if value == int(value):
        return str(int(value))
    return format(value, "g")


def make_record_id(kind: str, time: Optional[float], seq: int) -> str:
    """``<prefix>-<sim time>-<sequence>`` — stable given the run inputs."""
    prefix = _KIND_PREFIXES.get(kind)
    if prefix is None:
        prefix = "".join(part[0] for part in kind.split(".") if part) or "r"
    return f"{prefix}-{_stamp(time)}-{seq:05d}"


class FlightRecorder:
    """In-memory append-only chronicle with parent/child linkage."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._seq = 0
        self._last: Dict[str, str] = {}

    def record(
        self,
        kind: str,
        time: Optional[float] = None,
        parent: Optional[Union[str, dict]] = None,
        **fields,
    ) -> dict:
        """Append one record; returns the stored dict (with its ``id``).

        ``parent`` may be another record's id string or the record dict
        itself.  ``time`` is a *simulated* timestamp (seconds).
        """
        parent_id = parent.get("id") if isinstance(parent, dict) else parent
        self._seq += 1
        rec = {
            "id": make_record_id(kind, time, self._seq),
            "kind": kind,
            "time": time,
            "parent": parent_id,
        }
        # Reserved keys win: a payload field named e.g. ``kind`` must not
        # clobber the record's identity.
        for key, value in fields.items():
            if key not in rec:
                rec[key] = value
        self.records.append(rec)
        self._last[kind] = rec["id"]
        return rec

    def last(self, kind: str) -> Optional[str]:
        """ID of the most recent record of ``kind`` (None if never seen)."""
        return self._last.get(kind)

    @property
    def seq(self) -> int:
        """The per-recorder sequence counter (for checkpointing)."""
        return self._seq

    def restore(self, records: List[dict], seq: Optional[int] = None) -> None:
        """Reload a previously recorded chronicle (checkpoint resume).

        Replaces the current contents with ``records`` and fast-forwards
        the sequence counter so IDs issued after the restore continue
        the original numbering; ``_last`` is rebuilt so parent links of
        new records resolve against the restored history.
        """
        self.records = [dict(rec) for rec in records]
        self._last = {}
        max_seen = 0
        for rec in self.records:
            kind = rec.get("kind")
            if kind:
                self._last[kind] = rec.get("id")
            rec_id = rec.get("id") or ""
            tail = rec_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                max_seen = max(max_seen, int(tail))
        self._seq = max(max_seen, int(seq) if seq is not None else 0)

    def by_kind(self, kind: str) -> List[dict]:
        return [r for r in self.records if r["kind"] == kind]

    def __len__(self) -> int:
        return len(self.records)

    def snapshot(self) -> List[dict]:
        return list(self.records)


def blame(
    chronicle, fault: bool = False, move=None, scored: Optional[dict] = None
) -> Optional[str]:
    """Causal parent of a violation record, by how directly each cause
    forces it: an injected fault active in the interval, then the move
    in flight (its ``migration.start`` record), then the forecast scored
    against the interval (its snapshot), else the last forecast made.

    Callers pass the evidence their loop has: ``fault`` is truthy when
    fault activity overlapped the interval, ``move`` is the
    reconfiguration that stole capacity from it (anything with a
    ``record_id``), ``scored`` the accuracy tracker's harvest for the
    slot.  :func:`repro.analysis.sla.attribute_violation` sorts the
    written records into buckets in the same order.
    """
    if fault and chronicle.last("fault.injected"):
        return chronicle.last("fault.injected")
    if move is not None and move.record_id:
        return move.record_id
    if scored and scored.get("snapshot_id"):
        return scored["snapshot_id"]
    return chronicle.last("forecast.snapshot")


def record_capacity_insufficient(
    chronicle, time: float, move=None, scored: Optional[dict] = None, **fields
) -> dict:
    """Chronicle a slot whose load exceeded the effective max-rate
    capacity (Fig. 12's y-axis) under the parent :func:`blame` picks.
    Every capacity-level loop gives ``slot``, ``load_tps``, ``peak_tps``,
    ``eff_cap``, ``machines`` and ``migrating``; the batch loop adds
    what it knows of the scored forecast."""
    return chronicle.record(
        "capacity.insufficient",
        time=time,
        parent=blame(chronicle, move=move, scored=scored),
        **fields,
    )


def record_interval(
    tracer, start: float, end: float, slot: int, tps: float,
    machines: int, migrating: bool,
):
    """The per-slot sample every loop writes as it closes a planner
    interval: one simulated-time ``interval`` span over ``[start, end)``.
    ``slot`` indexes the measured history (the timeline
    ``forecast.snapshot.origin_slot`` counts on, training seed included),
    ``tps`` is the slot's mean load, ``machines`` / ``migrating`` the
    allocation the loop holds for it."""
    return tracer.record(
        "interval", start, end,
        slot=slot, tps=tps, machines=machines, migrating=migrating,
    )


class NullFlightRecorder:
    """Chronicle that drops everything; shared by disabled telemetry."""

    records: Tuple[dict, ...] = ()

    def record(
        self,
        kind: str,
        time: Optional[float] = None,
        parent: Optional[Union[str, dict]] = None,
        **fields,
    ) -> dict:
        return {}

    def last(self, kind: str) -> Optional[str]:
        return None

    def by_kind(self, kind: str) -> List[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> List[dict]:
        return []


NULL_CHRONICLE = NullFlightRecorder()
