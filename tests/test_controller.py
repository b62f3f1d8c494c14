"""Tests for the Predictive Controller (Section 6)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PStoreConfig, default_config
from repro.core import PredictiveController
from repro.errors import PlanningError
from repro.prediction import LastValuePredictor, OraclePredictor


def controller_for(truth, cfg=None, **kwargs) -> PredictiveController:
    cfg = cfg or default_config().with_interval(600.0)
    predictor = OraclePredictor(truth)
    return PredictiveController(cfg, predictor, **kwargs)


def flat_history(value, n=4):
    return [float(value)] * n


class TestHorizon:
    def test_default_horizon_covers_two_migrations(self):
        cfg = default_config().with_interval(600.0)
        minimum = PredictiveController.minimum_horizon_intervals(cfg)
        # 2 * D / P = 2 * 7.74 / 6 intervals = 2.58 -> ceil + 1 = 4.
        assert minimum == 4
        ctrl = controller_for([100.0] * 100, cfg)
        assert ctrl.horizon_intervals == minimum

    def test_explicit_horizon_respected(self):
        cfg = replace(default_config().with_interval(600.0), horizon_intervals=9)
        ctrl = controller_for([100.0] * 100, cfg)
        assert ctrl.horizon_intervals == 9

    def test_bad_rate_multiplier_rejected(self):
        with pytest.raises(PlanningError):
            controller_for([100.0] * 100, emergency_rate_multiplier=0.0)


class TestSteadyState:
    def test_flat_load_no_action(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 1.5] * 50
        ctrl = controller_for(truth, cfg)
        decision = ctrl.decide(truth[:4], current_machines=2)
        assert not decision.acts
        assert ctrl.last_schedule is not None

    def test_future_move_waits(self):
        """A scale-out needed far in the future should not fire now."""
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        # Flat (even after 15% inflation) for a long stretch, then a rise
        # near the horizon edge.  The 1->2 move lasts one interval, so the
        # cheapest plan starts it later, not now.
        truth = [q * 0.8] * 6 + [q * 1.6] * 50
        ctrl = controller_for(truth, replace(cfg, horizon_intervals=8))
        decision = ctrl.decide(truth[:2], current_machines=1)
        assert not decision.acts
        assert "starts at interval" in decision.reason


class TestScaleOut:
    def test_imminent_rise_triggers_move(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 0.9] * 2 + [q * 1.9] * 50
        ctrl = controller_for(truth, replace(cfg, horizon_intervals=6))
        decision = ctrl.decide(truth[:2], current_machines=1)
        assert decision.acts
        assert decision.target_machines is not None
        assert decision.target_machines >= 2
        assert not decision.emergency

    def test_inflation_buffers_predictions(self):
        """With load just below capacity, the 15% inflation forces an
        extra machine."""
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        load = q * 1.95  # fits 2 machines raw, needs 3 after inflation
        truth = [load] * 50
        ctrl = controller_for(truth, replace(cfg, horizon_intervals=6))
        decision = ctrl.decide(
            flat_history(load), current_machines=2, current_load=q * 1.9
        )
        # Inflated to 2.24 q -> needs 3 machines.
        assert decision.acts
        assert decision.target_machines == 3


class TestScaleInDebounce:
    def test_requires_three_confirmations(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 0.4] * 60
        ctrl = controller_for(truth, replace(cfg, horizon_intervals=6))
        history = flat_history(q * 0.4)
        first = ctrl.decide(history, current_machines=3)
        second = ctrl.decide(history, current_machines=3)
        third = ctrl.decide(history, current_machines=3)
        assert not first.acts and "pending confirmation" in first.reason
        assert not second.acts
        assert third.acts
        assert third.target_machines is not None
        assert third.target_machines < 3

    def test_streak_resets_on_non_scale_in(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        predictor = LastValuePredictor().fit([1.0])
        ctrl = PredictiveController(replace(cfg, horizon_intervals=6), predictor)
        low = flat_history(q * 0.4)
        ctrl.decide(low, current_machines=3)  # streak 1
        # A steady plan at the right size resets the streak.
        ctrl.decide(flat_history(q * 2.5), current_machines=3)
        first_again = ctrl.decide(low, current_machines=3)
        assert not first_again.acts  # streak restarted

    @given(
        machines=st.integers(min_value=1, max_value=6),
        levels=st.lists(
            st.sampled_from([0.5, 1.5, 2.5, 4.0, 9.0]),
            min_size=1, max_size=16,
        ),
        oracle=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_acting_decision_clears_the_streak(
        self, machines, levels, oracle
    ):
        """Whatever acts -- a scale-out, a confirmed scale-in, the
        infeasible plan's emergency -- leaves no pending scale-in behind,
        so the loop that starts the move has nothing to reset.  The
        oracle sees rises coming (scale-outs after a pending scale-in);
        the last-value forecast does not (emergencies)."""
        cfg = replace(
            default_config().with_interval(600.0), horizon_intervals=6
        )
        q = cfg.q
        load = [q * machines] * 3 + [q * level for level in levels]
        predictor = (
            OraclePredictor(load + [load[-1]] * cfg.horizon_intervals)
            if oracle else LastValuePredictor().fit([1.0])
        )
        ctrl = PredictiveController(cfg, predictor)
        for now in range(3, len(load)):
            decision = ctrl.decide(load[: now + 1], current_machines=machines)
            if decision.acts:
                assert ctrl._scale_in_streak == 0, decision.reason
                machines = decision.target_machines


class TestEmergency:
    def test_infeasible_plan_falls_back_to_reactive(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        # A spike arriving immediately: no feasible plan from 1 machine.
        truth = [q * 6.0] * 50
        ctrl = controller_for(truth, replace(cfg, horizon_intervals=6))
        decision = ctrl.decide(
            flat_history(q * 6.0), current_machines=1, current_load=q * 6.0
        )
        assert decision.acts
        assert decision.emergency
        assert decision.target_machines == 7  # ceil(6.0 * 1.15)

    def test_emergency_uses_configured_rate(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 6.0] * 50
        ctrl = controller_for(
            truth, replace(cfg, horizon_intervals=6), emergency_rate_multiplier=8.0
        )
        decision = ctrl.decide(
            flat_history(q * 6.0), current_machines=1, current_load=q * 6.0
        )
        assert decision.rate_multiplier == 8.0

    def test_emergency_respects_max_machines(self):
        base = default_config().with_interval(600.0)
        cfg = PStoreConfig(
            q=base.q,
            q_hat=base.q_hat,
            d_seconds=base.d_seconds,
            interval_seconds=600.0,
            max_machines=4,
        )
        q = cfg.q
        ctrl = PredictiveController(
            replace(cfg, horizon_intervals=6), OraclePredictor([q * 9.0] * 50)
        )
        decision = ctrl.decide(
            flat_history(q * 9.0), current_machines=2, current_load=q * 9.0
        )
        assert decision.acts and decision.target_machines == 4

    def test_infeasible_at_the_cap_is_infeasible_but_at_size(self):
        """The load needs more machines than ``config.max_machines`` and
        the cluster already has them all: nothing to do, no emergency."""
        base = default_config().with_interval(600.0)
        cfg = PStoreConfig(
            q=base.q,
            q_hat=base.q_hat,
            d_seconds=base.d_seconds,
            interval_seconds=600.0,
            max_machines=4,
        )
        q = cfg.q
        ctrl = PredictiveController(
            replace(cfg, horizon_intervals=6), OraclePredictor([q * 9.0] * 50)
        )
        decision = ctrl.decide(
            flat_history(q * 9.0), current_machines=4, current_load=q * 9.0
        )
        assert decision.reason == "infeasible-but-at-size"
        assert decision.target_machines is None
        assert not decision.emergency and not decision.acts

    def test_no_emergency_when_already_at_required_size(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 6.0] * 50
        ctrl = controller_for(truth, replace(cfg, horizon_intervals=6))
        decision = ctrl.decide(
            flat_history(q * 6.0), current_machines=7, current_load=q * 6.9
        )
        # Current load above cap(7) makes the plan infeasible, but the
        # cluster is already at the predicted requirement (ceil(6.9) = 7).
        assert not decision.acts


    def test_emergency_resets_scale_in_streak(self):
        """An emergency interrupts a scale-in countdown: the debounce
        must restart from zero afterwards, not fire on stale votes."""
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        predictor = LastValuePredictor().fit([1.0])
        ctrl = PredictiveController(replace(cfg, horizon_intervals=6), predictor)
        low = flat_history(q * 0.4)
        ctrl.decide(low, current_machines=3)  # streak 1
        ctrl.decide(low, current_machines=3)  # streak 2
        spike = ctrl.decide(
            flat_history(q * 6.0), current_machines=1, current_load=q * 6.0
        )
        assert spike.emergency
        third = ctrl.decide(low, current_machines=3)
        # Without the reset this would be the 3rd confirmation and act.
        assert not third.acts
        assert "pending confirmation" in third.reason


class TestConfiguredHorizon:
    def test_config_horizon_used_when_set(self):
        cfg = default_config().with_interval(600.0)
        cfg = PStoreConfig.from_dict({**cfg.to_dict(), "horizon_intervals": 11})
        ctrl = controller_for([100.0] * 100, cfg)
        assert ctrl.horizon_intervals == 11


class TestForecastDrift:
    def _drifted_controller(self, truth, cfg, magnitude):
        from repro.faults import FaultInjector, FaultScenario, FaultSpec

        scenario = FaultScenario(
            faults=(
                FaultSpec(
                    kind="forecast_drift",
                    at_time=0.0,
                    duration_seconds=1e9,
                    magnitude=magnitude,
                ),
            ),
            seed=1,
        )
        injector = FaultInjector(scenario)
        injector.advance(0.0)
        controller = PredictiveController(
            replace(cfg, horizon_intervals=6), OraclePredictor(truth)
        )
        controller.start_run(None, injector)
        return controller

    def test_drift_scales_the_forecast(self):
        """A 2x drift makes flat load look like a spike: the controller
        over-provisions relative to the undrifted plan."""
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 1.5] * 50
        clean = controller_for(truth, replace(cfg, horizon_intervals=6))
        baseline = clean.decide(flat_history(q * 1.5), current_machines=2)
        assert not baseline.acts  # 1.5q * 1.15 still fits 2 machines

        drifted = self._drifted_controller(truth, cfg, magnitude=2.0)
        decision = drifted.decide(flat_history(q * 1.5), current_machines=2)
        assert decision.acts
        assert decision.target_machines is not None
        assert decision.target_machines > 2

    def test_unit_drift_is_a_noop(self):
        cfg = default_config().with_interval(600.0)
        q = cfg.q
        truth = [q * 1.5] * 50
        drifted = self._drifted_controller(truth, cfg, magnitude=1.0)
        decision = drifted.decide(flat_history(q * 1.5), current_machines=2)
        assert not decision.acts


class TestValidation:
    def test_zero_machines_rejected(self):
        ctrl = controller_for([100.0] * 50)
        with pytest.raises(PlanningError):
            ctrl.decide([100.0] * 4, current_machines=0)

    def test_works_with_any_predictor(self):
        cfg = default_config().with_interval(600.0)
        predictor = LastValuePredictor().fit([1.0])
        ctrl = PredictiveController(replace(cfg, horizon_intervals=5), predictor)
        decision = ctrl.decide([cfg.q * 0.5] * 3, current_machines=1)
        assert not decision.acts
