"""Tests for load events and the retail calendar."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workload import EventCalendar, LoadEvent, retail_season_calendar


class TestLoadEvent:
    def test_validation(self):
        with pytest.raises(SimulationError):
            LoadEvent(start_slot=-1, duration_slots=5, magnitude=1.5)
        with pytest.raises(SimulationError):
            LoadEvent(start_slot=0, duration_slots=0, magnitude=1.5)
        with pytest.raises(SimulationError):
            LoadEvent(start_slot=0, duration_slots=5, magnitude=0.5)
        with pytest.raises(SimulationError):
            LoadEvent(start_slot=0, duration_slots=5, magnitude=1.5, shape="zigzag")

    def test_rect_multipliers(self):
        event = LoadEvent(0, 4, magnitude=2.0, shape="rect")
        assert np.allclose(event.multipliers(), 2.0)

    def test_ramp_peaks_in_middle(self):
        event = LoadEvent(0, 9, magnitude=3.0, shape="ramp")
        mult = event.multipliers()
        assert np.argmax(mult) == 4
        assert mult.max() == pytest.approx(3.0)
        assert mult[0] == pytest.approx(1.0)
        assert mult[-1] == pytest.approx(1.0)

    def test_spike_rises_fast_and_decays(self):
        event = LoadEvent(0, 100, magnitude=2.0, shape="spike")
        mult = event.multipliers()
        peak_at = int(np.argmax(mult))
        assert peak_at <= 10                      # sharp rise
        assert mult[peak_at] == pytest.approx(2.0)
        assert mult[-1] < 1.2                     # decayed away

    def test_all_multipliers_at_least_one(self):
        for shape in ("ramp", "rect", "spike"):
            event = LoadEvent(0, 37, magnitude=1.7, shape=shape)
            assert np.all(event.multipliers() >= 1.0 - 1e-12)

    def test_end_slot(self):
        assert LoadEvent(10, 5, 1.5).end_slot == 15


class TestEventCalendar:
    def test_apply_single_event(self):
        base = np.ones(10)
        calendar = EventCalendar([LoadEvent(2, 3, magnitude=2.0, shape="rect")])
        out = calendar.apply(base)
        assert list(out[:2]) == [1.0, 1.0]
        assert list(out[2:5]) == [2.0, 2.0, 2.0]
        assert list(out[5:]) == [1.0] * 5

    def test_apply_does_not_mutate_input(self):
        base = np.ones(5)
        EventCalendar([LoadEvent(0, 5, 2.0, "rect")]).apply(base)
        assert np.all(base == 1.0)

    def test_event_past_end_is_clipped(self):
        base = np.ones(4)
        calendar = EventCalendar([LoadEvent(3, 10, 2.0, "rect")])
        out = calendar.apply(base)
        assert out[3] == 2.0

    def test_overlapping_events_compose(self):
        base = np.ones(4)
        calendar = EventCalendar(
            [LoadEvent(0, 4, 2.0, "rect"), LoadEvent(1, 2, 3.0, "rect")]
        )
        out = calendar.apply(base)
        assert out[1] == pytest.approx(6.0)

    def test_sorted_iteration_and_add(self):
        calendar = EventCalendar([LoadEvent(10, 1, 1.5)])
        calendar.add(LoadEvent(2, 1, 1.5))
        starts = [e.start_slot for e in calendar]
        assert starts == sorted(starts)
        assert len(calendar) == 2


class TestRetailCalendar:
    def test_contains_expected_event_types(self):
        rng = np.random.default_rng(0)
        calendar = retail_season_calendar(288, 135, rng)
        labels = {e.label for e in calendar}
        assert {"promo", "load-test", "black-friday", "unexpected-spike"} <= labels

    def test_black_friday_positioned_on_requested_day(self):
        rng = np.random.default_rng(0)
        calendar = retail_season_calendar(288, 135, rng, black_friday_day=116)
        bf = [e for e in calendar if e.label == "black-friday"][0]
        assert abs(bf.start_slot - 116 * 288) < 288

    def test_black_friday_optional(self):
        rng = np.random.default_rng(0)
        calendar = retail_season_calendar(288, 135, rng, black_friday_day=-1)
        assert not [e for e in calendar if e.label == "black-friday"]

    def test_spike_optional(self):
        rng = np.random.default_rng(0)
        calendar = retail_season_calendar(
            288, 135, rng, include_unexpected_spike=False
        )
        assert not [e for e in calendar if e.label == "unexpected-spike"]
