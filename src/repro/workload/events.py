"""Load events layered on top of the periodic base trace.

The paper's 4.5-month B2W window (August to mid-December 2016) contains
"Black Friday as well as several other periods of increased load (e.g.,
due to periodic promotions or load testing)".  We model each of these as a
:class:`LoadEvent` — a multiplicative disturbance with one of three
shapes — collected in an :class:`EventCalendar` that the generators apply
to a base series.

Shapes
------
``ramp``
    linear rise to the peak multiplier and symmetric fall (promotions,
    flash crowds);
``rect``
    constant multiplier for the whole duration (load tests);
``spike``
    near-instant jump followed by an exponential-style decay (the
    unexpected September spike of Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..errors import SimulationError

VALID_SHAPES = ("ramp", "rect", "spike")


@dataclass(frozen=True)
class LoadEvent:
    """One multiplicative load disturbance.

    Attributes
    ----------
    start_slot:
        first affected slot.
    duration_slots:
        number of affected slots (>= 1).
    magnitude:
        peak multiplier applied on top of the base load (1.0 = no-op;
        2.0 doubles the load at the event's peak).
    shape:
        one of ``ramp``, ``rect``, ``spike``.
    label:
        human-readable tag ("promo", "black-friday", ...).
    """

    start_slot: int
    duration_slots: int
    magnitude: float
    shape: str = "ramp"
    label: str = "event"

    def __post_init__(self) -> None:
        if self.start_slot < 0:
            raise SimulationError("event start_slot must be >= 0")
        if self.duration_slots < 1:
            raise SimulationError("event duration_slots must be >= 1")
        if self.magnitude < 1.0:
            raise SimulationError(
                f"event magnitude must be >= 1.0 (got {self.magnitude}); "
                "events only add load"
            )
        if self.shape not in VALID_SHAPES:
            raise SimulationError(
                f"unknown event shape {self.shape!r}; expected one of {VALID_SHAPES}"
            )

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.duration_slots

    def multipliers(self) -> np.ndarray:
        """Per-slot multiplier profile of length ``duration_slots``."""
        n = self.duration_slots
        extra = self.magnitude - 1.0
        x = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
        if self.shape == "rect":
            profile = np.ones(n)
        elif self.shape == "ramp":
            # Triangular: up to the peak at the midpoint, then back down.
            profile = 1.0 - np.abs(2.0 * x - 1.0)
            if n == 1:
                profile = np.ones(1)
        else:  # spike: sharp rise within the first ~10%, exponential decay
            rise = max(1, n // 10)
            profile = np.empty(n)
            profile[:rise] = np.linspace(0.3, 1.0, rise)
            decay = np.exp(-3.0 * np.linspace(0.0, 1.0, n - rise)) if n > rise else []
            profile[rise:] = decay
        return 1.0 + extra * profile


class EventCalendar:
    """An ordered collection of :class:`LoadEvent` applied multiplicatively."""

    def __init__(self, events: Iterable[LoadEvent] = ()):
        self._events: List[LoadEvent] = sorted(events, key=lambda e: e.start_slot)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> Sequence[LoadEvent]:
        return tuple(self._events)

    def add(self, event: LoadEvent) -> "EventCalendar":
        self._events.append(event)
        self._events.sort(key=lambda e: e.start_slot)
        return self

    def apply(self, base: np.ndarray) -> np.ndarray:
        """Return ``base`` with every event's multiplier profile applied."""
        out = np.asarray(base, dtype=float).copy()
        for event in self._events:
            lo = event.start_slot
            hi = min(event.end_slot, out.size)
            if lo >= out.size:
                continue
            out[lo:hi] *= event.multipliers()[: hi - lo]
        return out


def retail_season_calendar(
    slots_per_day: int,
    n_days: int,
    rng: np.random.Generator,
    black_friday_day: int = 116,
    include_unexpected_spike: bool = True,
) -> EventCalendar:
    """The event mix of B2W's August-December window (Sec. 8.3, Fig. 13).

    * small promotions every ~2 weeks (ramp, 1.2-1.6x, a few hours);
    * occasional internal load tests (rect, ~1.3x, 1-2 hours);
    * one unexpected September flash spike (Fig. 11), ~2x within minutes;
    * Black Friday: a sustained ~2.2x surge starting the prior evening
      (day 116 after Aug 1 = Nov 25 2016, matching Fig. 13's hour ~2800).
    """
    events: List[LoadEvent] = []
    day = 10
    while day < n_days - 2:
        start = day * slots_per_day + int(0.55 * slots_per_day)
        events.append(
            LoadEvent(
                start_slot=start,
                duration_slots=max(2, int(0.18 * slots_per_day)),
                magnitude=float(rng.uniform(1.2, 1.6)),
                shape="ramp",
                label="promo",
            )
        )
        day += int(rng.integers(12, 18))

    for test_day in range(20, n_days - 5, 30):
        start = test_day * slots_per_day + int(0.15 * slots_per_day)
        events.append(
            LoadEvent(
                start_slot=start,
                duration_slots=max(1, int(0.07 * slots_per_day)),
                magnitude=1.3,
                shape="rect",
                label="load-test",
            )
        )

    if include_unexpected_spike and n_days > 45:
        # A September day (~day 40 after Aug 1), mid-afternoon flash crowd.
        start = 40 * slots_per_day + int(0.62 * slots_per_day)
        events.append(
            LoadEvent(
                start_slot=start,
                duration_slots=max(2, int(0.25 * slots_per_day)),
                magnitude=2.0,
                shape="spike",
                label="unexpected-spike",
            )
        )

    if 0 <= black_friday_day < n_days:
        start = black_friday_day * slots_per_day - int(0.2 * slots_per_day)
        events.append(
            LoadEvent(
                start_slot=max(0, start),
                duration_slots=int(1.5 * slots_per_day),
                magnitude=2.2,
                shape="ramp",
                label="black-friday",
            )
        )
    return EventCalendar(events)
