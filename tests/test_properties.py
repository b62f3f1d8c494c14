"""Cross-cutting property-based tests (hypothesis).

Invariants that span modules: serialisation round trips, conservation
laws of the trace transformations, continuity of the capacity model, and
counting identities of the migration schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import effective_capacity, move_cost, move_time
from repro.squall import build_migration_schedule
from repro.workload import LoadTrace

from .fixtures import trace_from_csv_string, trace_to_csv_string

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


class TestTraceProperties:
    @given(values=values_strategy, slot=st.sampled_from([6.0, 60.0, 300.0]))
    @settings(max_examples=50, deadline=None)
    def test_csv_round_trip(self, values, slot):
        trace = LoadTrace(np.asarray(values), slot, name="prop")
        loaded = trace_from_csv_string(trace_to_csv_string(trace))
        assert loaded.slot_seconds == slot
        assert np.allclose(loaded.values, trace.values, rtol=1e-5, atol=1e-6)

    @given(
        values=values_strategy,
        speedup=st.sampled_from([2.0, 5.0, 10.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_compression_conserves_counts_and_scales_rates(self, values, speedup):
        trace = LoadTrace(np.asarray(values), 60.0)
        fast = trace.compressed(speedup)
        assert fast.values.sum() == pytest.approx(trace.values.sum())
        assert np.allclose(
            fast.as_rate_per_second(),
            speedup * trace.as_rate_per_second(),
        )


class TestModelContinuity:
    @given(
        b=st.integers(min_value=1, max_value=20),
        a=st.integers(min_value=1, max_value=20),
        f=st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_effective_capacity_is_continuous(self, b, a, f):
        eps = 1e-6
        left = effective_capacity(b, a, f, 100.0)
        right = effective_capacity(b, a, min(1.0, f + eps), 100.0)
        assert abs(right - left) < 1.0  # no jumps

    @given(
        b=st.integers(min_value=1, max_value=20),
        a=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_at_least_time_times_smaller_cluster(self, b, a):
        """A move can never cost less than keeping the smaller cluster
        for its duration."""
        assert move_cost(b, a) >= move_time(b, a) * min(b, a) - 1e-12


class TestScheduleCounting:
    @given(
        b=st.integers(min_value=1, max_value=25),
        a=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_machine_transfer_counts(self, b, a):
        """Scale-out: each sender sends delta transfers and each receiver
        receives s transfers (complete bipartite decomposition)."""
        if b == a:
            return
        schedule = build_migration_schedule(b, a)
        s, l = min(b, a), max(b, a)
        delta = l - s
        sent = {}
        received = {}
        for round_ in schedule.rounds:
            for t in round_:
                sent[t.sender] = sent.get(t.sender, 0) + 1
                received[t.receiver] = received.get(t.receiver, 0) + 1
        if a > b:
            assert all(v == delta for v in sent.values())
            assert all(v == s for v in received.values())
            assert len(sent) == s and len(received) == delta
        else:
            assert all(v == s for v in sent.values())
            assert all(v == delta for v in received.values())
            assert len(sent) == delta and len(received) == s

    @given(
        b=st.integers(min_value=1, max_value=25),
        a=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_data_conservation(self, b, a):
        """Sum of transfer fractions equals the moved fraction of Eq. 3's
        derivation, and every machine ends at 1/max(B,A) on scale-out."""
        schedule = build_migration_schedule(b, a)
        if b == a:
            assert schedule.moved_fraction == 0.0
            return
        expected = 1.0 - min(b, a) / max(b, a)
        assert schedule.moved_fraction == pytest.approx(expected)
