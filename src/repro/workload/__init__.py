"""Workload traces, synthetic generators, and load-event calendars."""

from .drift import (
    drifting_period_trace,
    growing_amplitude_trace,
    level_shift_trace,
    novel_spike_trace,
)
from .events import EventCalendar, LoadEvent, retail_season_calendar
from .generators import (
    b2w_like_trace,
    diurnal_profile,
    sine_trace,
    wikipedia_like_trace,
)
from .io import (
    read_trace_csv,
    read_trace_csv_cached,
    write_trace_csv,
)
from .trace import HOURS_PER_DAY, MINUTES_PER_DAY, LoadTrace
from .wikipedia import (
    load_pagecounts_series,
    parse_hourly_totals,
    parse_pagecounts_hour,
)

__all__ = [
    "EventCalendar",
    "LoadEvent",
    "LoadTrace",
    "HOURS_PER_DAY",
    "MINUTES_PER_DAY",
    "b2w_like_trace",
    "diurnal_profile",
    "drifting_period_trace",
    "growing_amplitude_trace",
    "level_shift_trace",
    "novel_spike_trace",
    "retail_season_calendar",
    "sine_trace",
    "load_pagecounts_series",
    "parse_hourly_totals",
    "parse_pagecounts_hour",
    "read_trace_csv",
    "read_trace_csv_cached",
    "wikipedia_like_trace",
    "write_trace_csv",
]
