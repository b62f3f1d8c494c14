"""Seeded fault scheduling, the live-fault state machine, and the
injected/detected/recovered chronicle.

The :class:`FaultInjector` is the single mutable object of a chaos run.
The loop that owns it drives its clock with :meth:`advance` and hands it
to its :class:`~repro.squall.migrator.Allocation`, which counts move
starts (:meth:`notify_migration_started`, the trigger predicate), and to
its strategy; all of them query the currently-active effects (stalls,
stragglers, drift, crashes) through side-effect-free accessors.  Every
lifecycle step is appended to an always-on :attr:`chronicle` (the
deterministic audit log chaos tests compare across runs) and mirrored
into telemetry when enabled.

Determinism: all firing decisions and random choices come from one
``numpy`` generator seeded by the scenario, and time only enters through
the host's simulated clock — two runs of the same scenario produce
byte-identical chronicles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..check import invariants
from ..errors import FaultError
from ..telemetry import get_telemetry
from .spec import (
    FORECAST_DRIFT,
    MIGRATION_STALL,
    NODE_CRASH,
    NODE_SLOWDOWN,
    TRANSFER_CORRUPTION,
    FaultScenario,
    FaultSpec,
)

#: Histogram bounds for time-to-recover (seconds, powers of two).
TTR_BOUNDS = tuple(float(2 ** i) for i in range(20))


@dataclass
class FaultRecord:
    """Lifecycle of one injected fault (the unit of the chronicle)."""

    fault_id: int
    spec: FaultSpec
    injected_at: float
    node: Optional[int] = None
    detected_at: Optional[float] = None
    recovered_at: Optional[float] = None
    retries: int = 0
    ends_at: Optional[float] = None

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def time_to_detect(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def time_to_recover(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at


@dataclass
class _Pending:
    order: int
    spec: FaultSpec


class FaultInjector:
    """Fires a scenario's faults at their simulated times/triggers and
    tracks which effects are live right now.

    Parameters
    ----------
    scenario:
        a :class:`FaultScenario`, or a plain sequence of
        :class:`FaultSpec` (then ``seed`` supplies the RNG seed).
    seed:
        overrides the scenario's seed when given.
    telemetry:
        bundle whose chronicle gets the lifecycle steps; defaults to the
        process-global one at construction time.
    """

    def __init__(
        self,
        scenario: Union[FaultScenario, Sequence[FaultSpec]],
        seed: Optional[int] = None,
        telemetry=None,
    ):
        if isinstance(scenario, FaultScenario):
            specs: Tuple[FaultSpec, ...] = scenario.faults
            base_seed = scenario.seed
            self.name = scenario.name
        else:
            specs = tuple(scenario)
            base_seed = 0
            self.name = "ad-hoc"
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError("scenario must contain FaultSpec instances")
        self.seed = base_seed if seed is None else seed
        self._rng = np.random.default_rng(self.seed)
        self._telemetry = telemetry if telemetry is not None else get_telemetry()

        self._timed: List[_Pending] = sorted(
            (
                _Pending(i, s)
                for i, s in enumerate(specs)
                if s.at_time is not None
            ),
            key=lambda p: (p.spec.at_time, p.order),
        )
        self._triggered: List[_Pending] = [
            _Pending(i, s) for i, s in enumerate(specs) if s.on_migration is not None
        ]
        self._now = 0.0
        self._migrations_started = 0
        self._next_fault_id = 1
        self._clock = invariants.MonotoneClock("FaultInjector.advance", start=0.0)

        self.records: List[FaultRecord] = []
        #: Deterministic audit log: one flat dict per lifecycle step.
        self.chronicle: List[dict] = []

        self._new_crashes: List[FaultRecord] = []
        self._unconfirmed_crashes: List[FaultRecord] = []
        self._slowdowns: List[FaultRecord] = []
        self._stalls: List[FaultRecord] = []
        self._drifts: List[FaultRecord] = []
        self._corruption_queue: List[FaultRecord] = []
        #: fault_id -> flight-recorder ID of its fault.injected record,
        #: so detected/retry/recovered records chain onto the injection.
        self._fault_chronicle_ids: dict = {}

    # ------------------------------------------------------------------
    # Clock and triggers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_count(self) -> int:
        return len(self._timed) + len(self._triggered)

    def advance(self, now: float) -> List[FaultRecord]:
        """Move the injector clock to ``now``; fires every time-scheduled
        fault that has come due and auto-recovers expired windows.
        Returns the faults fired by this call.

        The clock is monotone: a host whose own clock lags the furthest
        one seen (e.g. a simulator second that started a move, which
        advanced the injector to the second's end) simply does not fire
        anything new.
        """
        self._now = max(self._now, now)
        if invariants.enabled(invariants.CHEAP):
            # Guards the clamp above: the injector clock may never run
            # backwards even when hosts advance out of order.
            self._clock.observe(self._now)
        fired: List[FaultRecord] = []
        while self._timed and self._timed[0].spec.at_time <= self._now + 1e-9:
            pending = self._timed.pop(0)
            fired.append(self._fire(pending.spec, pending.spec.at_time))
        self._expire_windows()
        return fired

    def notify_migration_started(self, now: float) -> List[FaultRecord]:
        """Count a reconfiguration start at ``now``; fires
        ``on_migration`` faults whose trigger matches the new count."""
        self.advance(now)
        self._migrations_started += 1
        due = [
            p for p in self._triggered
            if p.spec.on_migration == self._migrations_started
        ]
        self._triggered = [
            p for p in self._triggered
            if p.spec.on_migration != self._migrations_started
        ]
        return [self._fire(p.spec, self._now) for p in sorted(due, key=lambda p: p.order)]

    def next_change(self, now: float) -> float:
        """The time of the first scheduled firing or window expiry after
        ``now`` (``inf`` when nothing further is time-driven): until
        then :meth:`advance` changes nothing."""
        candidates = [p.spec.at_time for p in self._timed]
        for record in (*self._slowdowns, *self._stalls, *self._drifts):
            if record.ends_at is not None:
                candidates.append(record.ends_at)
        return min((c for c in candidates if c > now + 1e-9), default=float("inf"))

    # ------------------------------------------------------------------
    # Firing and lifecycle
    # ------------------------------------------------------------------

    def _fire(self, spec: FaultSpec, at: float) -> FaultRecord:
        record = FaultRecord(
            fault_id=self._next_fault_id,
            spec=spec,
            injected_at=at,
            node=spec.node,
        )
        self._next_fault_id += 1
        if spec.is_windowed:
            record.ends_at = at + spec.duration_seconds
        self.records.append(record)

        if spec.kind == NODE_CRASH:
            self._new_crashes.append(record)
        elif spec.kind == NODE_SLOWDOWN:
            self._slowdowns.append(record)
        elif spec.kind == MIGRATION_STALL:
            self._stalls.append(record)
        elif spec.kind == FORECAST_DRIFT:
            self._drifts.append(record)
        elif spec.kind == TRANSFER_CORRUPTION:
            self._corruption_queue.append(record)

        self._log("fault.injected", record, time=at)
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.counter("faults.injected", kind=spec.kind).inc()
        return record

    def _expire_windows(self) -> None:
        for active in (self._slowdowns, self._stalls, self._drifts):
            for record in list(active):
                if record.ends_at is not None and record.ends_at <= self._now + 1e-9:
                    active.remove(record)
                    # Windowed faults heal when the window closes; hosts
                    # that noticed earlier already marked detection.
                    self.mark_recovered(record, record.ends_at)

    def mark_detected(self, record: FaultRecord, now: float) -> None:
        """Record that a subsystem noticed the fault (idempotent)."""
        if record.detected_at is not None:
            return
        record.detected_at = now
        self._log("fault.detected", record, time=now,
                  time_to_detect=record.time_to_detect)
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.counter("faults.detected", kind=record.kind).inc()

    def mark_retry(self, record: FaultRecord, now: float,
                   backoff_seconds: float = 0.0) -> None:
        """Record one re-drive attempt against a stalled/corrupt transfer."""
        record.retries += 1
        self._log("fault.retry", record, time=now, attempt=record.retries,
                  backoff_seconds=backoff_seconds)

    def mark_recovered(self, record: FaultRecord, now: float) -> None:
        """Record full recovery from the fault (idempotent)."""
        if record.recovered_at is not None:
            return
        record.recovered_at = now
        self._log("fault.recovered", record, time=now,
                  time_to_recover=record.time_to_recover,
                  retries=record.retries)
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.counter("faults.recovered", kind=record.kind).inc()
            tel.metrics.histogram(
                "faults.ttr_seconds", bounds=TTR_BOUNDS
            ).observe(record.time_to_recover)

    def _log(self, event: str, record: FaultRecord, time: float, **fields) -> None:
        entry = {
            "event": event,
            "time": time,
            "fault_id": record.fault_id,
            "kind": record.kind,
            "node": record.node,
            "label": record.spec.label,
        }
        entry.update(fields)
        self.chronicle.append(entry)
        tel = self._telemetry
        if tel.enabled:
            # the record's own kind is the lifecycle step; the fault class
            # rides along as fault_kind
            rec = tel.chronicle.record(
                event,
                time=time,
                parent=self._fault_chronicle_ids.get(record.fault_id),
                fault_id=record.fault_id,
                fault_kind=record.kind,
                node=record.node,
                label=record.spec.label,
                **fields,
            )
            if event == "fault.injected":
                self._fault_chronicle_ids[record.fault_id] = rec.get("id")

    # ------------------------------------------------------------------
    # Live-effect queries (side-effect free unless named ``take_*``)
    # ------------------------------------------------------------------

    def take_new_crashes(self) -> List[FaultRecord]:
        """Crash faults fired since the last call (:meth:`handle_crashes`
        is the host's way to consume them)."""
        fresh = self._new_crashes
        self._new_crashes = []
        return fresh

    def handle_crashes(
        self,
        now: float,
        live_nodes: Callable[[], Sequence[int]],
        abort_move: Callable[[int], None],
        drop_node: Callable[[int], int],
    ) -> List[Tuple[int, Optional[str]]]:
        """The crash edge of a tick-level loop, in its one order.

        For every crash fired since the last call: pin it to one of
        ``live_nodes()`` (the last machine cannot be killed — such a
        crash is detected and recovered on the spot, so the run still
        terminates deterministically), record ``fault.detected``,
        ``abort_move(victim)`` whatever move is in flight, then
        ``drop_node(victim)`` — the host takes the node out, re-homes
        what it held and returns the machines left — and chronicle
        ``node.remove`` under the fault.  Recovery is confirmed later, by
        :meth:`confirm_recovery`.  Returns ``(victim, node.remove id)``
        per crash, for hosts that file follow-up records.
        """
        handled = []
        for record in self.take_new_crashes():
            live = live_nodes()
            if len(live) <= 1:
                self.mark_detected(record, now)
                self.mark_recovered(record, now)
                continue
            victim = self.resolve_crash_node(record, live)
            self.mark_detected(record, now)
            abort_move(victim)
            machines = drop_node(victim)
            self._unconfirmed_crashes.append(record)
            removed = self._telemetry.chronicle.record(
                "node.remove",
                time=now,
                parent=self._fault_chronicle_ids.get(record.fault_id),
                node=victim,
                machines=machines,
                reason="crash",
            )
            handled.append((victim, removed.get("id")))
        return handled

    @property
    def recovering(self) -> bool:
        """Whether a handled crash still awaits :meth:`confirm_recovery`."""
        return bool(self._unconfirmed_crashes)

    def confirm_recovery(self, now: float) -> None:
        """The host reached a planning boundary that left no move in
        flight: the controller saw the smaller cluster and needed no
        move, or its replacement move has completed — the allocation is
        feasible again, and every handled crash is recovered."""
        for record in self._unconfirmed_crashes:
            self.mark_recovered(record, now)
        self._unconfirmed_crashes = []

    def resolve_crash_node(
        self, record: FaultRecord, live_nodes: Sequence[int]
    ) -> int:
        """Pin the crash to a machine: the spec's target when it names a
        live node, else a seeded-RNG pick among the survivors."""
        live = sorted(live_nodes)
        if not live:
            raise FaultError("cannot crash a node: no live nodes")
        if record.node is not None and record.node in live:
            victim = record.node
        else:
            victim = live[int(self._rng.integers(0, len(live)))]
        record.node = victim
        return victim

    def stall_record(self, now: Optional[float] = None) -> Optional[FaultRecord]:
        now = self._now if now is None else now
        for record in self._stalls:
            if record.injected_at <= now + 1e-9 and (
                record.ends_at is None or now < record.ends_at - 1e-9
            ):
                return record
        return None

    def capacity_multiplier(self, node: int, now: Optional[float] = None) -> float:
        """Effective capacity of ``node`` (1.0 = healthy straggler-free)."""
        now = self._now if now is None else now
        multiplier = 1.0
        for record in self._slowdowns:
            if record.node == node and record.injected_at <= now + 1e-9:
                multiplier *= record.spec.capacity_multiplier
        return multiplier

    def capacity_multipliers(
        self, n_machines: int, now: Optional[float] = None
    ) -> np.ndarray:
        out = np.ones(n_machines)
        for machine in range(n_machines):
            out[machine] = self.capacity_multiplier(machine, now)
        return out

    @property
    def any_slowdown_active(self) -> bool:
        return bool(self._slowdowns)

    def forecast_multiplier(self, now: Optional[float] = None) -> float:
        """Product of the active drift windows' magnitudes (1.0 = honest
        forecasts)."""
        now = self._now if now is None else now
        multiplier = 1.0
        for record in self._drifts:
            if record.injected_at <= now + 1e-9:
                multiplier *= record.spec.magnitude
        return multiplier

    def take_corruption(self) -> Optional[FaultRecord]:
        """Consume one pending transfer-corruption marker, if any."""
        if self._corruption_queue:
            return self._corruption_queue.pop(0)
        return None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector({self.name!r}, seed={self.seed}, "
            f"fired={len(self.records)}, pending={self.pending_count})"
        )


def injector_from_config(config, telemetry=None) -> Optional[FaultInjector]:
    """Build the injector described by ``config.faults``.

    Returns None when fault injection is disabled, so hosts can do
    ``injector = injector or injector_from_config(config)`` and keep the
    fault-free fast path byte-identical.
    """
    fc = config.faults
    if not fc.enabled:
        return None
    if not fc.scenario:
        raise FaultError(
            "faults.enabled is set but faults.scenario names no file; "
            "either point it at a scenario JSON or construct the "
            "FaultInjector programmatically"
        )
    scenario = FaultScenario.from_file(fc.scenario)
    return FaultInjector(
        scenario,
        seed=fc.seed if fc.seed else None,
        telemetry=telemetry,
    )
