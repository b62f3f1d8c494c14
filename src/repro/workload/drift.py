"""Drift workloads: regime changes that break fixed-period forecasting.

The paper's traces are *stationary-periodic*: tomorrow looks like
yesterday, so SPAR's fixed-period regression wins.  The predictor-zoo
shootout needs the opposite — workloads whose generating process changes
mid-trace:

* :func:`drifting_period_trace` — the daily cycle slowly stretches, so a
  model locked to ``T`` slots drifts out of phase with reality;
* :func:`growing_amplitude_trace` — the diurnal swing (and peak) grows
  steadily, so history-window averages systematically under-forecast;
* :func:`novel_spike_trace` — sharp load spikes appear only *after* the
  training window, so nothing in the fitted model anticipates them;
* :func:`level_shift_trace` — the whole level steps (e.g. a marketing
  launch multiplies traffic), stranding models fitted pre-shift.

All generators are deterministic for a given argument tuple, share the
:func:`~repro.workload.generators.diurnal_profile` day shape (peak to
trough :data:`PEAK_TO_TROUGH`) and per-slot lognormal noise
(:data:`NOISE_SIGMA`), default to hourly slots (seconds-fast capacity
sims), and keep an initial *quiet* prefix regime-change-free so
experiments can train on it.  The size of each regime change is a
module constant.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .generators import _rng, diurnal_profile
from .trace import LoadTrace


#: Daily peak-to-trough ratio and per-slot noise sigma of every trace.
PEAK_TO_TROUGH = 6.0
NOISE_SIGMA = 0.02
#: The drifted day is this much longer at the end of the trace.
PERIOD_DRIFT = 0.35
#: The diurnal swing grows by this factor over the drifting days.
AMPLITUDE_GROWTH = 0.8
#: Novel spikes: how many, their peak multiple and their decay time.
N_SPIKES = 3
SPIKE_MAGNITUDE = 2.2
SPIKE_HOURS = 4.0
#: The level shift's multiple and the hours it ramps over.
SHIFT_FACTOR = 2.4
RAMP_HOURS = 6.0


def _slots_per_day(slot_seconds: float) -> int:
    slots = int(round(86_400.0 / slot_seconds))
    if slots < 2:
        raise SimulationError(
            f"slot_seconds={slot_seconds} leaves fewer than 2 slots per day"
        )
    return slots


def _noise(values: np.ndarray, rng) -> np.ndarray:
    return values * np.exp(rng.normal(0.0, NOISE_SIGMA, values.size))


def drifting_period_trace(
    n_days: int = 14,
    slot_seconds: float = 3600.0,
    base_level: float = 8_000.0,
    quiet_days: int = 7,
    seed: int = 31,
) -> LoadTrace:
    """Diurnal load whose cycle *stretches* after the quiet prefix.

    During the first ``quiet_days`` the instantaneous period is exactly
    one day; afterwards it lengthens linearly until it is
    ``1 + PERIOD_DRIFT`` days long at the end of the trace.  A fixed-T
    periodic model keeps forecasting yesterday's phase and slides
    steadily out of alignment.
    """
    if n_days < 1 or not 0 <= quiet_days <= n_days:
        raise SimulationError("need 1 <= n_days and 0 <= quiet_days <= n_days")
    rng = _rng(seed)
    slots_per_day = _slots_per_day(slot_seconds)
    profile = diurnal_profile(slots_per_day, 1.0 / PEAK_TO_TROUGH)
    total = n_days * slots_per_day
    quiet = quiet_days * slots_per_day
    # Instantaneous frequency in cycles/slot: 1/P while quiet, then the
    # period dilates linearly to (1 + drift) * P.
    t = np.arange(total, dtype=float)
    dilation = np.ones(total)
    if total > quiet:
        progress = (t[quiet:] - quiet) / max(total - quiet, 1)
        dilation[quiet:] = 1.0 + PERIOD_DRIFT * progress
    phase = np.cumsum(1.0 / (slots_per_day * dilation))
    phase -= phase[0]
    # Sample the day profile at the (fractional, wrapped) phase position.
    pos = (phase % 1.0) * slots_per_day
    grid = np.arange(slots_per_day + 1, dtype=float)
    wrapped = np.concatenate([profile, profile[:1]])
    values = base_level * np.interp(pos, grid, wrapped)
    return LoadTrace(_noise(values, rng), slot_seconds, name="period-drift")


def growing_amplitude_trace(
    n_days: int = 14,
    slot_seconds: float = 3600.0,
    base_level: float = 8_000.0,
    quiet_days: int = 7,
    seed: int = 37,
) -> LoadTrace:
    """Diurnal load whose daily swing grows after the quiet prefix.

    The deviation from the daily mean is scaled by a factor ramping from
    1 to ``1 + AMPLITUDE_GROWTH``, so peaks rise while the mean level
    holds — models calibrated on the quiet prefix under-forecast every
    subsequent peak a little more.
    """
    if n_days < 1 or not 0 <= quiet_days <= n_days:
        raise SimulationError("need 1 <= n_days and 0 <= quiet_days <= n_days")
    rng = _rng(seed)
    slots_per_day = _slots_per_day(slot_seconds)
    profile = diurnal_profile(slots_per_day, 1.0 / PEAK_TO_TROUGH)
    total = n_days * slots_per_day
    quiet = quiet_days * slots_per_day
    t = np.arange(total, dtype=float)
    envelope = np.ones(total)
    if total > quiet:
        envelope[quiet:] = 1.0 + AMPLITUDE_GROWTH * (t[quiet:] - quiet) / max(
            total - quiet, 1
        )
    shape = np.tile(profile, n_days)
    mean = float(profile.mean())
    values = base_level * np.clip(mean + (shape - mean) * envelope, 0.02, None)
    return LoadTrace(_noise(values, rng), slot_seconds, name="amp-growth")


def novel_spike_trace(
    n_days: int = 14,
    slot_seconds: float = 3600.0,
    base_level: float = 8_000.0,
    quiet_days: int = 7,
    seed: int = 41,
) -> LoadTrace:
    """Diurnal load with sharp spikes that only start after the prefix.

    ``N_SPIKES`` multiplicative spikes (instant onset, exponential
    decay over ``SPIKE_HOURS``) land at seeded-random slots past
    ``quiet_days`` — a flash-crowd pattern no model fitted on the quiet
    prefix has ever seen.
    """
    if n_days < 1 or not 0 <= quiet_days < n_days:
        raise SimulationError("need 1 <= n_days and 0 <= quiet_days < n_days")
    rng = _rng(seed)
    slots_per_day = _slots_per_day(slot_seconds)
    profile = diurnal_profile(slots_per_day, 1.0 / PEAK_TO_TROUGH)
    total = n_days * slots_per_day
    quiet = quiet_days * slots_per_day
    values = base_level * np.tile(profile, n_days)
    decay_slots = max(SPIKE_HOURS * 3600.0 / slot_seconds, 1.0)
    starts = np.sort(rng.integers(quiet, total, size=N_SPIKES))
    multiplier = np.ones(total)
    for start in starts:
        length = total - int(start)
        ramp = (SPIKE_MAGNITUDE - 1.0) * np.exp(
            -np.arange(length) / decay_slots
        )
        multiplier[start:] = np.maximum(multiplier[start:], 1.0 + ramp)
    values *= multiplier
    return LoadTrace(_noise(values, rng), slot_seconds, name="novel-spike")


def level_shift_trace(
    n_days: int = 14,
    slot_seconds: float = 3600.0,
    base_level: float = 8_000.0,
    shift_day: int = 9,
    seed: int = 43,
) -> LoadTrace:
    """Diurnal load whose level steps by ``SHIFT_FACTOR`` mid-trace.

    The multiplier ramps linearly over ``RAMP_HOURS`` starting at
    ``shift_day`` and then stays — the marketing-launch scenario.
    Models fitted before the shift keep forecasting the old level.
    """
    if n_days < 1 or not 0 <= shift_day < n_days:
        raise SimulationError("need 1 <= n_days and 0 <= shift_day < n_days")
    rng = _rng(seed)
    slots_per_day = _slots_per_day(slot_seconds)
    profile = diurnal_profile(slots_per_day, 1.0 / PEAK_TO_TROUGH)
    total = n_days * slots_per_day
    values = base_level * np.tile(profile, n_days)
    start = shift_day * slots_per_day
    ramp_slots = max(int(round(RAMP_HOURS * 3600.0 / slot_seconds)), 1)
    multiplier = np.ones(total)
    ramp_end = min(start + ramp_slots, total)
    multiplier[start:ramp_end] = np.linspace(
        1.0, SHIFT_FACTOR, ramp_end - start, endpoint=False
    )
    multiplier[ramp_end:] = SHIFT_FACTOR
    values *= multiplier
    return LoadTrace(_noise(values, rng), slot_seconds, name="level-shift")
