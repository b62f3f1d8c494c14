"""Load-trace container used across prediction, planning and simulation.

A :class:`LoadTrace` is an immutable, uniformly-sampled series of
aggregate load values (requests or transactions per slot) plus the slot
length.  It offers the handful of transformations the paper's evaluation
needs: slicing by slot or by wall-clock duration, resampling to coarser
slots, scaling (the paper replays B2W's trace at 10x speed), and
train/test splitting for the prediction study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import SimulationError

#: Slots per day for one-minute sampling (the paper's T = 1440).
MINUTES_PER_DAY = 1440
#: Slots per day for hourly sampling (the Wikipedia traces).
HOURS_PER_DAY = 24


@dataclass(frozen=True)
class LoadTrace:
    """Uniformly-sampled aggregate load series.

    Attributes
    ----------
    values:
        load per slot; non-negative floats.
    slot_seconds:
        length of one slot in seconds.
    name:
        human-readable label used in reports.
    """

    values: np.ndarray
    slot_seconds: float
    name: str = "trace"

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise SimulationError("trace values must be a non-empty 1-D array")
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise SimulationError("trace values must be finite and non-negative")
        if self.slot_seconds <= 0:
            raise SimulationError("slot_seconds must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return LoadTrace(
                self.values[idx].copy(), self.slot_seconds, name=self.name
            )
        return float(self.values[idx])

    @property
    def duration_seconds(self) -> float:
        return len(self) * self.slot_seconds

    @property
    def duration_days(self) -> float:
        return self.duration_seconds / 86_400.0

    @property
    def slots_per_day(self) -> int:
        per_day = 86_400.0 / self.slot_seconds
        return int(round(per_day))

    @property
    def peak(self) -> float:
        return float(self.values.max())

    @property
    def trough(self) -> float:
        return float(self.values.min())

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def peak_to_trough(self) -> float:
        """Ratio between the highest and lowest slot (Fig. 1 shows ~10x)."""
        trough = self.trough
        if trough <= 0:
            raise SimulationError("trace touches zero; peak/trough undefined")
        return self.peak / trough

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def scaled(self, factor: float) -> "LoadTrace":
        """Multiply every slot by ``factor`` (e.g. the paper's 10x replay)."""
        if factor < 0:
            raise SimulationError("scale factor must be non-negative")
        return LoadTrace(self.values * factor, self.slot_seconds, name=self.name)

    def as_rate_per_second(self) -> np.ndarray:
        """Convert per-slot counts to an average rate (per second) per slot."""
        return self.values / self.slot_seconds

    def compressed(self, speedup: float) -> "LoadTrace":
        """Replay the trace ``speedup`` times faster (the paper's 10x).

        Slot counts are unchanged but each slot now spans ``1/speedup``
        of its original duration, so the offered *rate* rises by the
        speedup factor — exactly how the paper compresses a full day of
        B2W traffic into 2.4 hours of benchmark time (Sec. 7).
        """
        if speedup <= 0:
            raise SimulationError("speedup must be positive")
        return LoadTrace(
            self.values, self.slot_seconds / speedup, name=f"{self.name}@{speedup:g}x"
        )

    def per_second_rates(self) -> np.ndarray:
        """Expand to one offered-rate sample per simulated second.

        Linear interpolation between slot midpoints; used to feed the
        second-granularity DBMS simulator.
        """
        rates = self.as_rate_per_second()
        total_seconds = int(round(self.duration_seconds))
        if total_seconds < 1:
            raise SimulationError("trace shorter than one second")
        slot_mid = (np.arange(len(self)) + 0.5) * self.slot_seconds
        t = np.arange(total_seconds) + 0.5
        return np.interp(t, slot_mid, rates)

    def slice_days(self, start_day: float, n_days: float) -> "LoadTrace":
        """Extract ``n_days`` starting at ``start_day`` (fractions allowed)."""
        per_day = 86_400.0 / self.slot_seconds
        lo = int(round(start_day * per_day))
        hi = int(round((start_day + n_days) * per_day))
        if not 0 <= lo < hi <= len(self):
            raise SimulationError(
                f"day slice [{start_day}, {start_day + n_days}) out of range "
                f"for a {self.duration_days:.2f}-day trace"
            )
        return LoadTrace(
            self.values[lo:hi].copy(), self.slot_seconds, name=self.name
        )

    def smoothed(self, window: int) -> "LoadTrace":
        """Centered moving average, used only for display-style outputs."""
        if window < 1:
            raise SimulationError("window must be >= 1")
        if window == 1:
            return self
        kernel = np.ones(window) / window
        smoothed = np.convolve(self.values, kernel, mode="same")
        return LoadTrace(smoothed, self.slot_seconds, name=self.name)

    def split(self, train_slots: int) -> Tuple["LoadTrace", "LoadTrace"]:
        """Split into (train, test) at ``train_slots``."""
        if not 0 < train_slots < len(self):
            raise SimulationError(
                f"train_slots must be in (0, {len(self)}) (got {train_slots})"
            )
        return (
            LoadTrace(self.values[:train_slots].copy(), self.slot_seconds, self.name),
            LoadTrace(self.values[train_slots:].copy(), self.slot_seconds, self.name),
        )

    def concat(self, other: "LoadTrace") -> "LoadTrace":
        if other.slot_seconds != self.slot_seconds:
            raise SimulationError("cannot concat traces with different slots")
        return LoadTrace(
            np.concatenate([self.values, other.values]),
            self.slot_seconds,
            name=self.name,
        )

    def describe(self) -> str:
        """One-line summary used by benches and examples."""
        return (
            f"{self.name}: {len(self)} slots x {self.slot_seconds:.0f}s "
            f"({self.duration_days:.1f} days), mean={self.mean:,.0f}, "
            f"peak={self.peak:,.0f}, trough={self.trough:,.0f}"
        )
