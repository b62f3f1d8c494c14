"""Tests for the provisioning strategies."""

from dataclasses import replace

import pytest

from repro.config import default_config
from repro.elasticity import (
    NO_ACTION,
    PStoreStrategy,
    ReactiveStrategy,
    SimpleStrategy,
    StaticStrategy,
)
from repro.elasticity.manual import ManualStrategy
from repro.elasticity.reactive import RATE_MULTIPLIER, SCALE_OUT_THRESHOLD
from repro.elasticity.simple import MORNING_HOUR, NIGHT_HOUR
from repro.errors import SimulationError
from repro.prediction import (
    LastValuePredictor,
    OnlinePredictor,
    OraclePredictor,
    SparPredictor,
)


CFG = default_config().with_interval(600.0)
Q = CFG.q


class TestStatic:
    def test_never_acts(self):
        strategy = StaticStrategy(4)
        strategy.reset(4)
        for slot in range(10):
            assert strategy.decide(slot, [Q * 100], 4) is NO_ACTION

    def test_name(self):
        assert StaticStrategy(10).name == "static-10"

    def test_wrong_initial_size_rejected(self):
        with pytest.raises(SimulationError):
            StaticStrategy(4).reset(2)

    def test_invalid_machines(self):
        with pytest.raises(SimulationError):
            StaticStrategy(0)


class TestSimple:
    def test_scales_out_in_morning(self):
        strategy = SimpleStrategy(8, 3, slots_per_day=24)
        strategy.reset(3)
        # Hourly slots: the slot holding MORNING_HOUR is the first day slot.
        morning = int(MORNING_HOUR)
        assert not strategy.decide(morning - 1, [100.0], 3).acts
        decision = strategy.decide(morning, [100.0], 3)
        assert decision.target_machines == 8

    def test_scales_in_at_night(self):
        strategy = SimpleStrategy(8, 3, slots_per_day=24)
        strategy.reset(3)
        night = int(NIGHT_HOUR)
        assert not strategy.decide(night - 1, [100.0], 8).acts
        decision = strategy.decide(night, [100.0], 8)
        assert decision.target_machines == 3

    def test_no_action_when_already_at_target(self):
        strategy = SimpleStrategy(8, 3, slots_per_day=24)
        strategy.reset(3)
        assert not strategy.decide(12, [100.0], 8).acts

    def test_ignores_load_entirely(self):
        """The Simple strategy is blind to load (Fig. 13, right)."""
        strategy = SimpleStrategy(8, 3, slots_per_day=24)
        strategy.reset(3)
        quiet = strategy.decide(12, [1.0], 3)
        slammed = strategy.decide(12, [1e9], 3)
        assert quiet.target_machines == slammed.target_machines == 8

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimpleStrategy(2, 4, slots_per_day=24)   # day < night
        with pytest.raises(SimulationError):
            SimpleStrategy(4, 2, slots_per_day=0)


class TestReactive:
    def make(self, **kwargs):
        return ReactiveStrategy(CFG, **kwargs)

    def test_scales_out_on_overload(self):
        strategy = self.make()
        strategy.reset(2)
        overload = 0.95 * 2 * CFG.q_hat
        decision = strategy.decide(0, [overload], 2)
        assert decision.acts
        assert decision.target_machines > 2
        assert decision.rate_multiplier == RATE_MULTIPLIER

    def test_does_not_act_below_threshold(self):
        strategy = self.make()
        strategy.reset(2)
        assert not strategy.decide(0, [0.5 * 2 * CFG.q_hat], 2).acts
        at_threshold = SCALE_OUT_THRESHOLD * 2 * CFG.q_hat
        assert not strategy.decide(1, [at_threshold], 2).acts

    def test_scale_in_needs_patience(self):
        strategy = self.make(scale_in_patience=3)
        strategy.reset(4)
        low = Q * 0.8  # fits 1 machine
        assert not strategy.decide(0, [low], 4).acts
        assert not strategy.decide(1, [low], 4).acts
        decision = strategy.decide(2, [low], 4)
        assert decision.acts
        assert decision.target_machines == 1

    def test_patience_resets_on_load_return(self):
        strategy = self.make(scale_in_patience=3)
        strategy.reset(4)
        low = Q * 0.8
        strategy.decide(0, [low], 4)
        strategy.decide(1, [Q * 3.9], 4)  # load returns
        assert not strategy.decide(2, [low], 4).acts
        assert not strategy.decide(3, [low], 4).acts

    def test_max_machines_cap(self):
        strategy = self.make(max_machines=3)
        strategy.reset(3)
        assert not strategy.decide(0, [Q * 50], 3).acts

    def test_validation(self):
        with pytest.raises(SimulationError):
            self.make(scale_in_patience=0)


class TestManual:
    def test_fires_at_scheduled_slot(self):
        strategy = ManualStrategy([(5, 4), (10, 2, 8.0)])
        strategy.reset(2)
        assert not strategy.decide(4, [1.0], 2).acts
        decision = strategy.decide(5, [1.0], 2)
        assert decision.target_machines == 4

    def test_late_consultation_still_fires(self):
        strategy = ManualStrategy([(5, 4)])
        strategy.reset(2)
        decision = strategy.decide(9, [1.0], 2)
        assert decision.target_machines == 4

    def test_rate_multiplier_carried(self):
        strategy = ManualStrategy([(0, 4, 8.0)])
        strategy.reset(2)
        assert strategy.decide(0, [1.0], 2).rate_multiplier == 8.0

    def test_action_at_current_size_skipped(self):
        strategy = ManualStrategy([(0, 2)])
        strategy.reset(2)
        assert not strategy.decide(0, [1.0], 2).acts

    def test_reset_restarts_schedule(self):
        strategy = ManualStrategy([(0, 4)])
        strategy.reset(2)
        assert strategy.decide(0, [1.0], 2).acts
        strategy.reset(2)
        assert strategy.decide(0, [1.0], 2).acts

    def test_validation(self):
        with pytest.raises(SimulationError):
            ManualStrategy([(0,)])
        with pytest.raises(SimulationError):
            ManualStrategy([(-1, 4)])
        with pytest.raises(SimulationError):
            ManualStrategy([(0, 0)])


class TestPStoreStrategy:
    def test_requires_fitted_predictor(self):
        with pytest.raises(SimulationError):
            PStoreStrategy(CFG, LastValuePredictor())
        with pytest.raises(SimulationError):
            PStoreStrategy(CFG, SparPredictor(period=24))

    def test_a_learner_is_accepted_unfitted_and_waits_for_its_first_fit(self):
        online = OnlinePredictor(
            LastValuePredictor(), refit_every=100, min_training=4
        )
        strategy = PStoreStrategy(replace(CFG, horizon_intervals=6), online)
        history = []
        for slot in range(3):
            history.append(Q * 0.9)
            online.observe(history[-1])
            assert strategy.decide(slot, history, 1) is NO_ACTION
        history.append(Q * 1.9)
        online.observe(history[-1])             # the fourth: first fit
        assert online.is_fitted
        decision = strategy.decide(3, history, 1)
        assert decision.acts and decision.target_machines >= 2

    def test_warmup_produces_no_action(self):
        class SlowStart(LastValuePredictor):
            """A predictor that, like SPAR, needs warm-up context."""

            @property
            def min_history(self):
                return 10

        predictor = SlowStart().fit([Q])
        strategy = PStoreStrategy(CFG, predictor)
        assert not strategy.decide(0, [Q], 2).acts

    def test_acts_like_controller(self):
        truth = [Q * 0.9] * 2 + [Q * 1.9] * 60
        predictor = OraclePredictor(truth)
        strategy = PStoreStrategy(replace(CFG, horizon_intervals=6), predictor)
        strategy.reset(1)
        decision = strategy.decide(1, truth[:2], 1)
        assert decision.acts
        assert decision.target_machines >= 2

    def test_name_default(self):
        predictor = OraclePredictor([1.0, 2.0])
        assert PStoreStrategy(CFG, predictor).name == "p-store"
