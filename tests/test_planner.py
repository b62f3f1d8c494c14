"""Tests for the DP planner (Algorithms 1-3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PStoreConfig, default_config
from repro.core import Planner, PlanRequest, model
from repro.errors import InfeasiblePlanError, PlanningError

from .planner_oracle import best_moves_reference


def planner(interval_seconds=600.0, **kwargs) -> Planner:
    return Planner(default_config().with_interval(interval_seconds))


class TestPrimitives:
    def test_move_duration_caches(self):
        p = planner()
        first = p.move_duration(3, 14)
        assert p.move_duration(3, 14) == first
        assert first == model.move_time_intervals(
            3, 14, p.config.partitions_per_node, p.config.d_intervals
        )

    def test_noop_duration_zero(self):
        assert planner().move_duration(4, 4) == 0

    def test_noop_cost_is_machines(self):
        assert planner().move_cost(4, 4) == 4.0

    def test_move_cost_formula(self):
        p = planner()
        expected = p.move_duration(2, 6) * model.avg_machines_allocated(2, 6)
        assert p.move_cost(2, 6) == pytest.approx(expected)

    def test_machines_needed(self):
        p = planner()
        q = p.config.q
        assert p.machines_needed([0.0, q, q + 1, 10 * q]) == [1, 1, 2, 10]
        assert p.machines_needed([]) == []


class TestPlanBasics:
    def test_flat_load_stays_put(self):
        p = planner()
        q = p.config.q
        schedule = p.plan([q * 1.5] * 8, initial_machines=2)
        assert schedule.final_machines == 2
        assert schedule.first_real_move is None

    def test_rising_load_scales_out(self):
        p = planner()
        q = p.config.q
        loads = [q * n for n in (1.0, 1.0, 1.5, 2.5, 3.5, 3.5, 3.5, 3.5)]
        schedule = p.plan(loads, initial_machines=1)
        assert schedule.final_machines == 4

    def test_capacity_respected_at_every_interval(self):
        p = planner()
        q = p.config.q
        loads = [q * n for n in (1.0, 1.2, 1.8, 2.4, 3.0, 3.3, 3.6, 3.9)]
        schedule = p.plan(loads, initial_machines=2)
        for t in range(1, len(loads) + 1):
            machines = schedule.machines_at(t)
            # At rest intervals the load must fit target capacity.
            in_flight = any(
                m.start < t < m.end and not m.is_noop for m in schedule
            )
            if not in_flight:
                assert loads[t - 1] <= machines * q + 1e-6

    def test_falling_load_scales_in(self):
        p = planner()
        q = p.config.q
        loads = [q * n for n in (3.5, 3.0, 2.0, 1.2, 0.8, 0.5, 0.5, 0.5)]
        schedule = p.plan(loads, initial_machines=4)
        assert schedule.final_machines < 4

    def test_scale_out_delayed_as_late_as_possible(self):
        """Minimizing cost pushes the scale-out toward the load rise."""
        p = planner()
        q = p.config.q
        loads = [q * 0.9] * 6 + [q * 1.9] * 2
        schedule = p.plan(loads, initial_machines=1)
        first = schedule.first_real_move
        assert first is not None
        # The move must complete by interval 6 (load rise at index 6 -> t=7).
        assert first.end <= 7
        # But it must not start at t=0 when one interval suffices.
        assert first.start > 0

    def test_single_interval_horizon(self):
        p = planner()
        schedule = p.plan([p.config.q * 0.5], initial_machines=1)
        assert schedule.final_machines == 1
        assert len(schedule) == 1

    def test_ends_with_fewest_feasible_machines(self):
        p = planner()
        q = p.config.q
        # Load spike in the middle, then a drop: the cheapest end state is
        # small even though the peak forced a scale-out.
        loads = [q * n for n in (1.0, 2.5, 2.5, 1.0, 0.6, 0.6, 0.6, 0.6, 0.6)]
        schedule = p.plan(loads, initial_machines=2)
        assert schedule.final_machines <= 2


class TestInfeasible:
    def test_unreachable_spike_raises(self):
        p = planner()
        q = p.config.q
        with pytest.raises(InfeasiblePlanError) as exc_info:
            p.plan([q * 10.0] * 2, initial_machines=1)
        assert exc_info.value.required_machines == 10

    def test_current_overload_raises(self):
        p = planner()
        q = p.config.q
        with pytest.raises(InfeasiblePlanError):
            p.plan(
                [q * 0.5] * 4,
                initial_machines=1,
                current_load=q * 5.0,
            )

    def test_max_machines_cap(self):
        cfg = default_config().with_interval(600.0)
        cfg = PStoreConfig(
            q=cfg.q,
            q_hat=cfg.q_hat,
            d_seconds=cfg.d_seconds,
            partitions_per_node=cfg.partitions_per_node,
            interval_seconds=600.0,
            max_machines=3,
        )
        p = Planner(cfg)
        with pytest.raises(InfeasiblePlanError):
            p.plan([cfg.q * 5] * 8, initial_machines=2)


class TestRequestValidation:
    def test_empty_load_rejected(self):
        with pytest.raises(PlanningError):
            PlanRequest(predicted_load=(), initial_machines=1)

    def test_zero_machines_rejected(self):
        with pytest.raises(PlanningError):
            PlanRequest(predicted_load=(1.0,), initial_machines=0)

    def test_negative_load_rejected(self):
        with pytest.raises(PlanningError):
            PlanRequest(predicted_load=(1.0, -2.0), initial_machines=1)

    # No capacity fits a NaN or an infinite load, and a negative
    # current load is not a measurement: each is refused up front with
    # the planner's own error (a NaN used to escape as ValueError from
    # math.ceil, +inf as OverflowError, and a negative current load was
    # planned).
    @pytest.mark.parametrize(
        "predicted, current",
        [
            ((1.0, math.nan), None),
            ((math.inf, 1.0), None),
            ((1.0, 2.0), math.nan),
            ((1.0, 2.0), math.inf),
            ((1.0, 2.0), -1.0),
        ],
        ids=["nan-prediction", "inf-prediction", "nan-current",
             "inf-current", "negative-current"],
    )
    def test_unplannable_loads_rejected(self, predicted, current):
        with pytest.raises(PlanningError):
            PlanRequest(
                predicted_load=predicted, initial_machines=1,
                current_load=current,
            )
        with pytest.raises(PlanningError):
            planner().plan(list(predicted), 1, current_load=current)

    def test_zero_current_load_accepted(self):
        req = PlanRequest(
            predicted_load=(1.0,), initial_machines=1, current_load=0.0
        )
        assert req.load_array() == [0.0, 1.0]

    def test_load_array_includes_current(self):
        req = PlanRequest(
            predicted_load=(10.0, 20.0), initial_machines=1, current_load=5.0
        )
        assert req.load_array() == [5.0, 10.0, 20.0]

    def test_load_array_defaults_current_to_first_prediction(self):
        req = PlanRequest(predicted_load=(10.0, 20.0), initial_machines=1)
        assert req.load_array()[0] == 10.0


class TestAgainstReference:
    """The bottom-up DP must agree with the literal recursive algorithms."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        horizon=st.integers(min_value=2, max_value=10),
        n0=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_schedules_on_random_loads(self, seed, horizon, n0):
        cfg = default_config().with_interval(600.0)
        rng = np.random.default_rng(seed)
        q = cfg.q
        # Random walk load, scaled to need 1..6 machines.
        loads = np.abs(rng.normal(2.5, 1.5, horizon)).clip(0.2, 6.0) * q
        # Keep t=0 feasible for the initial machine count.
        current = min(float(loads[0]), n0 * q * 0.95)
        p = Planner(cfg)
        try:
            fast = p.plan(list(loads), n0, current_load=current)
        except InfeasiblePlanError:
            with pytest.raises(InfeasiblePlanError):
                best_moves_reference(list(loads), n0, cfg, current_load=current)
            return
        slow = best_moves_reference(list(loads), n0, cfg, current_load=current)
        assert fast == slow

    def test_reference_on_figure3_shape(self):
        """The Fig. 3 schematic: 2 machines, T=9, ending at 4."""
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        loads = [q * n for n in (1.6, 1.6, 1.7, 2.0, 2.4, 2.8, 3.1, 3.4, 3.7)]
        fast = Planner(cfg).plan(loads, 2)
        slow = best_moves_reference(loads, 2, cfg)
        assert fast == slow
        assert fast.final_machines == 4


class TestEffectiveCapacityConstraint:
    def test_move_avoided_if_effcap_would_be_exceeded(self):
        """During a move capacity is degraded (Eq. 7); the planner must
        start moves early enough that the load fits eff-cap throughout."""
        p = planner()
        q = p.config.q
        # Load hugs the current capacity then jumps: a last-minute move
        # would dip below the load mid-migration.
        loads = [q * n for n in (1.9, 1.95, 1.98, 1.99, 2.9, 2.9, 2.9, 2.9)]
        schedule = p.plan(loads, initial_machines=2)
        for move in schedule:
            if move.is_noop:
                continue
            for i in range(1, move.duration + 1):
                eff = model.effective_capacity(
                    move.before, move.after, i / move.duration, q
                )
                load = loads[move.start + i - 1]
                assert load <= eff + 1e-6
