"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import fig11, fig12
from repro.workload import generators
from repro.workload import (
    b2w_like_trace,
    diurnal_profile,
    sine_trace,
    wikipedia_like_trace,
)

from .fixtures import step_trace


class TestDiurnalProfile:
    def test_range(self):
        profile = diurnal_profile(1440, trough_ratio=0.1)
        assert profile.min() == pytest.approx(0.1)
        assert profile.max() == pytest.approx(1.0)

    def test_trough_at_night_peak_in_daytime(self):
        profile = diurnal_profile(24, trough_ratio=0.1)
        assert np.argmin(profile) in range(2, 8)       # early morning
        assert np.argmax(profile) in range(12, 22)     # afternoon/evening

    def test_invalid_trough(self):
        with pytest.raises(SimulationError):
            diurnal_profile(24, trough_ratio=0.0)


class TestB2wLikeTrace:
    def test_deterministic(self):
        a = b2w_like_trace(3, seed=42)
        b = b2w_like_trace(3, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = b2w_like_trace(3, seed=1)
        b = b2w_like_trace(3, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_length(self):
        trace = b2w_like_trace(3, slot_seconds=60.0, seed=0)
        assert len(trace) == 3 * 1440

    def test_peak_to_trough_near_ten(self):
        """Fig. 1: 'the peak load is about 10x the trough'."""
        trace = b2w_like_trace(
            7, slot_seconds=300.0, seed=5, noise_sigma=0.0, wobble_sigma=0.0
        )
        ratio = trace.peak_to_trough()
        assert 8.0 <= ratio <= 14.0

    def test_daily_periodicity(self):
        """Autocorrelation at a 1-day lag should be strong."""
        trace = b2w_like_trace(7, slot_seconds=300.0, seed=9)
        values = trace.values
        per_day = trace.slots_per_day
        x = values[:-per_day] - values[:-per_day].mean()
        y = values[per_day:] - values[per_day:].mean()
        corr = float((x * y).mean() / (x.std() * y.std()))
        assert corr > 0.9

    def test_weekend_pattern_applied(self):
        trace = b2w_like_trace(
            14,
            slot_seconds=300.0,
            seed=3,
            noise_sigma=0.0,
            drift_sigma=0.0,
            wobble_sigma=0.0,
            weekly_pattern=(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5),
        )
        per_day = trace.slots_per_day
        weekday = trace.values[0:per_day].sum()
        saturday = trace.values[5 * per_day : 6 * per_day].sum()
        assert saturday == pytest.approx(0.5 * weekday, rel=1e-6)

    def test_invalid_args(self):
        with pytest.raises(SimulationError):
            b2w_like_trace(0)
        with pytest.raises(SimulationError):
            b2w_like_trace(2, weekly_pattern=(1.0, 1.0))


def ou_wobble_per_draw(rng, total, sigma, slot_seconds):
    """The wobble as first written: one ``rng.normal`` call per slot."""
    tau_slots = generators.WOBBLE_HOURS * 3600.0 / slot_seconds
    decay = np.exp(-1.0 / tau_slots)
    innovation = sigma * np.sqrt(1.0 - decay * decay)
    wobble = np.empty(total)
    state = rng.normal(0.0, sigma)
    for i in range(total):
        state = state * decay + rng.normal(0.0, innovation)
        wobble[i] = state
    return wobble


class TestWobble:
    @pytest.mark.parametrize("slot_seconds", [60.0, 300.0, 3600.0, 7.0])
    @pytest.mark.parametrize("sigma", [0.1, 0.03, 2.5])
    def test_one_vector_draw_is_the_per_draw_stream(self, slot_seconds, sigma):
        """Bit for bit, and the generator is left in the same state."""
        for seed, total in ((1, 1), (2, 97), (3, 4320)):
            ours, theirs = (
                np.random.default_rng(seed) for _ in range(2)
            )
            fast = generators._ou_wobble(ours, total, sigma, slot_seconds)
            slow = ou_wobble_per_draw(theirs, total, sigma, slot_seconds)
            assert fast.tobytes() == slow.tobytes()
            assert ours.random() == theirs.random()


class TestEvaluationTrace:
    """The Sec. 8.3 window Figs. 12 and 13 run (``fig12.season_setup``)."""

    @pytest.fixture(scope="class")
    def trace(self):
        return fig12.season_setup(n_days=135, seed=1).trace

    def test_four_and_a_half_months(self, trace):
        assert trace.duration_days == pytest.approx(135.0)
        assert trace.slot_seconds == 300.0

    def test_black_friday_creates_seasonal_peak(self, trace):
        """The Black Friday surge (day ~116) should dominate the trace."""
        per_day = trace.slots_per_day
        assert 114 <= int(np.argmax(trace.values)) // per_day < 119
        bf = trace.values[114 * per_day : 119 * per_day].max()
        ordinary = trace.values[60 * per_day : 70 * per_day].max()
        assert bf > 1.3 * ordinary


class TestWikipediaLikeTrace:
    def test_hourly_slots(self):
        trace = wikipedia_like_trace(7, language="en", seed=4)
        assert trace.slot_seconds == 3600.0
        assert len(trace) == 7 * 24

    def test_english_bigger_than_german(self):
        en = wikipedia_like_trace(7, "en", seed=4)
        de = wikipedia_like_trace(7, "de", seed=4)
        assert en.mean > 2 * de.mean

    def test_german_noisier_than_english(self):
        """The paper calls the German trace 'less predictable'."""
        en = wikipedia_like_trace(28, "en", seed=4)
        de = wikipedia_like_trace(28, "de", seed=4)

        def residual_noise(trace):
            values = trace.values / trace.values.mean()
            day = trace.slots_per_day
            diffs = values[day:] - values[:-day]
            return float(np.std(diffs))

        assert residual_noise(de) > residual_noise(en)

    def test_unknown_language(self):
        with pytest.raises(SimulationError):
            wikipedia_like_trace(7, "fr")


class TestSyntheticHelpers:
    def test_sine_trace_range(self):
        trace = sine_trace(2, slot_seconds=3600.0, low=100.0, high=1000.0)
        assert trace.trough == pytest.approx(100.0, abs=1.0)
        assert trace.peak == pytest.approx(1000.0, abs=1.0)

    def test_sine_invalid(self):
        with pytest.raises(SimulationError):
            sine_trace(1, low=10.0, high=5.0)

    def test_step_trace(self):
        trace = step_trace([1.0, 5.0], slots_per_level=3)
        assert list(trace) == [1.0, 1.0, 1.0, 5.0, 5.0, 5.0]

    def test_flash_crowd_spike_present(self):
        """Fig. 11's trace: a spike half-way through the evaluation day."""
        trace = fig11._spike_trace(eval_days=1, seed=6)
        base = b2w_like_trace(
            n_days=fig11.TRAIN_DAYS + 1, slot_seconds=60.0, seed=6,
            base_level=fig11.BENCHMARK_BASE_LEVEL,
        )
        per_day = trace.slots_per_day
        spike_day = fig11.TRAIN_DAYS + 0.5
        start = int(spike_day * per_day)
        window = slice(start, int((spike_day + 0.25) * per_day))
        assert np.array_equal(trace.values[:start], base.values[:start])
        assert trace.values[window].max() > (
            0.6 * fig11.SPIKE_MAGNITUDE * base.values[window].max()
        )
