"""Synthetic workload generators calibrated to the paper's traces.

The real B2W transaction logs and the 2016 Wikipedia dumps are not
redistributable, so this module generates seeded synthetic equivalents
that preserve every property the evaluation depends on:

* **B2W-like** (Fig. 1): strong diurnal cycle with ~10x peak-to-trough,
  evening peak, night trough, weekly seasonality, day-to-day level drift,
  and short-term multiplicative noise.  Optional event calendar layers on
  promotions, load tests, flash spikes, and Black Friday.
* **Wikipedia-like** (Fig. 6): hourly page-view series; the English
  edition is large and strongly periodic, the German edition smaller,
  noisier, and less predictable.

All generators take an explicit seed and are deterministic.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..errors import SimulationError
from . import memo
from .events import EventCalendar
from .trace import LoadTrace


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def diurnal_profile(slots_per_day: int, trough_ratio: float) -> np.ndarray:
    """Smooth daily shape in ``[trough_ratio, 1]`` with an evening peak.

    Built from two Fourier harmonics so mornings rise faster than nights
    fall, like Figure 1: minimum around 04:00, maximum around 16:00-21:00.
    """
    if not 0 < trough_ratio <= 1:
        raise SimulationError("trough_ratio must be in (0, 1]")
    hours = np.arange(slots_per_day) * 24.0 / slots_per_day
    # Primary daily wave (min near 4 am) plus a second harmonic that
    # broadens the daytime plateau.
    wave = (
        0.5 * (1.0 - np.cos(2.0 * np.pi * (hours - 4.0) / 24.0))
        + 0.12 * np.sin(4.0 * np.pi * (hours - 7.0) / 24.0)
    )
    wave -= wave.min()
    wave /= wave.max()
    return trough_ratio + (1.0 - trough_ratio) * wave


#: Weekly multipliers (Mon..Sun): slightly depressed weekends for retail.
RETAIL_WEEKLY_PATTERN = (1.00, 1.03, 1.05, 1.04, 1.02, 0.90, 0.82)


def _calendar_key(calendar: Optional[EventCalendar]):
    """A hashable key for an event calendar, or None when the calendar
    cannot be keyed (memoisation is then bypassed)."""
    if calendar is None:
        return ()
    try:
        return tuple(dataclasses.astuple(event) for event in calendar)
    except (TypeError, ValueError):
        return None


#: Correlation time of :func:`b2w_like_trace`'s intraday wobble (hours).
WOBBLE_HOURS = 3.0


def _ou_wobble(
    rng: np.random.Generator, total: int, sigma: float, slot_seconds: float
) -> np.ndarray:
    """``total`` slots of a stationary Ornstein-Uhlenbeck process with
    sigma ``sigma`` and correlation time :data:`WOBBLE_HOURS`, drawn from
    ``rng``: the start state, then one innovation per slot.  The
    innovations are one vector draw, the same stream as a draw per slot;
    only the recurrence runs in Python."""
    decay = float(np.exp(-1.0 / (WOBBLE_HOURS * 3600.0 / slot_seconds)))
    innovation = sigma * np.sqrt(1.0 - decay * decay)
    state = rng.normal(0.0, sigma)
    wobble = []
    for draw in rng.normal(0.0, innovation, total).tolist():
        state = state * decay + draw
        wobble.append(state)
    return np.array(wobble)


def b2w_like_trace(
    n_days: int,
    slot_seconds: float = 60.0,
    seed: int = 7,
    base_level: float = 12_000.0,
    peak_to_trough: float = 10.0,
    weekly_pattern=RETAIL_WEEKLY_PATTERN,
    noise_sigma: float = 0.035,
    drift_sigma: float = 0.05,
    wobble_sigma: float = 0.10,
    calendar: Optional[EventCalendar] = None,
    name: str = "b2w-like",
) -> LoadTrace:
    """Synthetic B2W shopping-cart/checkout load (requests per slot).

    Deterministic for a given argument tuple, so repeated calls with an
    integer ``seed`` are served from the per-process trace memo
    (:mod:`repro.workload.memo`); traces are immutable and safe to
    share.  Calls with a ``Generator`` seed (already-advanced stream)
    bypass the memo.

    Parameters
    ----------
    n_days:
        length of the trace in days.
    slot_seconds:
        slot length; 60 s matches the paper's per-minute measurements.
    base_level:
        approximate daily peak in requests per minute (Fig. 1 peaks
        around 20-25k requests/min; the default leaves room for events).
    peak_to_trough:
        target ratio between daily peak and nightly trough (~10, Fig. 1).
    weekly_pattern:
        length-7 multipliers, Monday first.
    noise_sigma:
        sigma of the per-slot lognormal noise (short-term variability).
    drift_sigma:
        sigma of the AR(1) day-level drift (day-to-day variability).
    wobble_sigma:
        stationary sigma of an Ornstein-Uhlenbeck *intraday wobble* with
        correlation time :data:`WOBBLE_HOURS`: hour-scale deviations
        (weather, news, small campaigns) that no time-of-day model can
        predict.  This is what bounds SPAR's accuracy at ~10% MRE on the
        real B2W trace (Fig. 5b); set it to 0 for a fully periodic trace.
    calendar:
        optional :class:`EventCalendar`; pass the result of
        :func:`~repro.workload.events.retail_season_calendar` for the
        4.5-month evaluation window.
    """
    if n_days < 1:
        raise SimulationError("n_days must be >= 1")
    if len(weekly_pattern) != 7:
        raise SimulationError("weekly_pattern must have exactly 7 entries")
    memo_key = None
    if isinstance(seed, (int, np.integer)):
        calendar_key = _calendar_key(calendar)
        if calendar_key is not None:
            memo_key = (
                "b2w", int(n_days), float(slot_seconds), int(seed),
                float(base_level), float(peak_to_trough),
                tuple(float(w) for w in weekly_pattern),
                float(noise_sigma), float(drift_sigma),
                float(wobble_sigma), calendar_key, str(name),
            )
            cached = memo.lookup(memo_key)
            if cached is not None:
                return cached
    rng = _rng(seed)
    slots_per_day = int(round(86_400.0 / slot_seconds))
    profile = diurnal_profile(slots_per_day, trough_ratio=1.0 / peak_to_trough)

    total = n_days * slots_per_day
    values = np.empty(total)
    day_level = 1.0
    for day in range(n_days):
        # AR(1) drift keeps consecutive days correlated but wandering.
        day_level = 1.0 + 0.7 * (day_level - 1.0) + rng.normal(0.0, drift_sigma)
        day_level = max(0.75, min(1.3, day_level))
        weekly = weekly_pattern[day % 7]
        lo = day * slots_per_day
        values[lo : lo + slots_per_day] = base_level * day_level * weekly * profile

    # Short-term multiplicative noise, slightly autocorrelated so the
    # trace wiggles like real traffic instead of white noise.
    white = rng.normal(0.0, noise_sigma, total)
    smooth = np.convolve(white, np.ones(5) / 5.0, mode="same")
    values *= np.exp(smooth)

    # Hour-scale unpredictable wobble (OU process in log space).
    if wobble_sigma > 0:
        values *= np.exp(_ou_wobble(rng, total, wobble_sigma, slot_seconds))

    if calendar is not None:
        values = calendar.apply(values)
    trace = LoadTrace(values, slot_seconds, name=name)
    if memo_key is not None:
        memo.insert(memo_key, trace)
    return trace


def wikipedia_like_trace(
    n_days: int,
    language: str = "en",
    seed: int = 11,
    name: Optional[str] = None,
) -> LoadTrace:
    """Synthetic hourly Wikipedia page-view series (Fig. 6).

    ``language="en"``: ~8M requests/hour peak, strong and clean daily
    cycle.  ``language="de"``: ~2M peak, weaker periodic component and
    noticeably more noise (the paper calls it "less predictable").
    """
    if language not in ("en", "de"):
        raise SimulationError(f"language must be 'en' or 'de' (got {language!r})")
    rng = _rng(seed)
    if language == "en":
        # Fig. 6a: ~4M..10M requests/hour, clean cycle.
        base, trough_ratio, noise_sigma, drift_sigma = 9.0e6, 0.42, 0.025, 0.02
    else:
        # Fig. 6a: ~0.5M..2.2M requests/hour, noisier cycle.
        base, trough_ratio, noise_sigma, drift_sigma = 2.2e6, 0.25, 0.07, 0.045
    trace = b2w_like_trace(
        n_days=n_days,
        slot_seconds=3600.0,
        seed=rng,
        base_level=base,
        peak_to_trough=1.0 / trough_ratio,
        weekly_pattern=(1.0, 1.0, 0.99, 0.99, 0.97, 1.02, 1.05),
        noise_sigma=noise_sigma,
        drift_sigma=drift_sigma,
        name=name or f"wikipedia-{language}",
    )
    return trace


def sine_trace(
    n_days: int,
    slot_seconds: float = 60.0,
    low: float = 1_000.0,
    high: float = 10_000.0,
    name: str = "sine",
) -> LoadTrace:
    """Noise-free sinusoidal demand, used by Figure 2 and in unit tests."""
    if high < low or low < 0:
        raise SimulationError("need 0 <= low <= high")
    slots_per_day = int(round(86_400.0 / slot_seconds))
    total = n_days * slots_per_day
    x = np.arange(total) * 2.0 * np.pi / slots_per_day
    values = low + (high - low) * 0.5 * (1.0 - np.cos(x))
    return LoadTrace(values, slot_seconds, name=name)
