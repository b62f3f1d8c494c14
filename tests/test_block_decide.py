"""A capacity run decides a block of slots per call
(``PredictiveController.decide_run``); the per-slot loop it replaced is
``tests/controller_oracle.py``.  Every run here goes both ways and must
agree bitwise: the capacity payload and every output series, the
controller's final ``_scale_in_streak`` and ``_last_schedule``.

The runs cover every registered predictor at two Q fractions, blocks of
the default size and of three slots (so scale-in streaks cross block
edges), a flash crowd that forces emergencies, and a machine limit that
clamps plans and emergencies.  A forecast row the planner refuses ends
its block and is refused at the slot the oracle refuses it, and one
feasibility gather stays within ``GATHER_BYTES``.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import SINGLE_NODE_SATURATION_TPS, default_config
from repro.core import planner as planner_module
from repro.core.controller import PredictiveController
from repro.core.planner import Planner
from repro.decision import NO_ACTION, ScaleDecision
from repro.elasticity.base import ProvisioningStrategy
from repro.elasticity.predictive import PStoreStrategy
from repro.errors import PlanningError
from repro.experiments.common import capacity_payload
from repro.prediction import get_predictor_spec, registered_predictors
from repro.sim import CapacitySimulator
from repro.sim import capacity_sim
from repro.workload.trace import LoadTrace

from . import controller_oracle as oracle
from . import zoo_oracles as zoo

TRAIN, EVALUATION = zoo.zoo_scale_series()
SLOT = zoo.ZOO_SLOT_SECONDS

#: A flash crowd on the evaluation days: a four-slot ramp to 3.4x the
#: load at slot 200, held for four slots, then back.
CROWD = EVALUATION.copy()
CROWD[200:212] *= [1.6, 2.2, 2.9, 3.4, 3.4, 3.4, 3.4, 3.4, 2.0, 1.4, 1.2, 1.1]

FITTED = {}


def _predictor(slug, evaluation):
    spec = get_predictor_spec(slug)
    if spec.needs_truth:
        return spec.factory(np.concatenate([TRAIN, evaluation]))
    if slug not in FITTED:
        FITTED[slug] = spec.for_period(zoo.ZOO_PERIOD).fit(TRAIN)
    return FITTED[slug]


def _config(fraction, max_machines=0):
    config = default_config().with_interval(SLOT).with_q(
        fraction * SINGLE_NODE_SATURATION_TPS
    )
    return dataclasses.replace(config, max_machines=max_machines)


def _trace(evaluation):
    return LoadTrace(evaluation * SLOT, SLOT)


def _both_ways(slug, config, evaluation, monkeypatch, block=None):
    """Run ``predictive:<slug>`` through the block entry and through the
    per-slot oracle; assert they agree and return the block run's result,
    strategy and its ``decide_run`` calls ``(count, offset, streak at
    entry)``."""
    if block is not None:
        monkeypatch.setattr(capacity_sim, "DECISION_BLOCK", block)
    calls = []
    decide_run = PredictiveController.decide_run

    def recording(controller, history, machines, count=1, current_load=None):
        streak = controller._scale_in_streak
        offset, decision = decide_run(
            controller, history, machines, count, current_load
        )
        calls.append((count, offset, streak))
        return offset, decision

    monkeypatch.setattr(PredictiveController, "decide_run", recording)
    initial = max(1, math.ceil(evaluation[0] * 1.3 / config.q))
    if config.max_machines:
        initial = min(initial, config.max_machines)
    runs = []
    for per_slot in (False, True):
        strategy = PStoreStrategy(
            config, _predictor(slug, evaluation), name=f"p-store[{slug}]"
        )
        if per_slot:
            result = oracle.capacity_run(
                _trace(evaluation), strategy, config, initial,
                history_seed=TRAIN,
            )
        else:
            result = CapacitySimulator(
                config, initial, history_seed=TRAIN
            ).run(_trace(evaluation), strategy)
        runs.append((result, strategy.controller))
    (block_run, fast), (slot_run, slow) = runs
    assert capacity_payload(block_run) == capacity_payload(slot_run)
    for name in ("machines", "eff_cap_target", "eff_cap_max", "migrating"):
        assert getattr(block_run, name).tobytes() == getattr(
            slot_run, name
        ).tobytes(), name
    assert fast._scale_in_streak == slow._scale_in_streak
    assert fast._last_schedule == slow._last_schedule
    assert any(offset > 0 for _, offset, _ in calls)
    return block_run, calls


@pytest.mark.parametrize("fraction", (0.5, 0.8))
@pytest.mark.parametrize("slug", registered_predictors())
def test_every_predictor_decides_blocks_as_slots(slug, fraction, monkeypatch):
    result, _ = _both_ways(slug, _config(fraction), EVALUATION, monkeypatch)
    assert result.moves_started > 0


@pytest.mark.parametrize("slug", ("spar", "seasonal", "oracle"))
def test_scale_in_streaks_cross_block_edges(slug, monkeypatch):
    _, calls = _both_ways(
        slug, _config(0.65), EVALUATION, monkeypatch, block=3
    )
    assert any(count > 1 and streak > 0 for count, _, streak in calls)


@pytest.mark.parametrize("slug", ("spar", "naive", "seasonal"))
@pytest.mark.parametrize("block", (None, 3))
def test_a_flash_crowd_forces_emergencies(slug, block, monkeypatch):
    result, _ = _both_ways(slug, _config(0.65), CROWD, monkeypatch, block)
    assert result.emergencies > 0


@pytest.mark.parametrize("slug", ("spar", "oracle"))
def test_a_machine_limit_clamps_plans_and_emergencies(slug, monkeypatch):
    limit = 8
    config = _config(0.65, max_machines=limit)
    assert CROWD.max() * config.prediction_inflation > config.q * limit
    reasons = []
    act = PredictiveController._act

    def acting(controller, schedule, needed, machines):
        decision = act(controller, schedule, needed, machines)
        reasons.append(decision.reason)
        return decision

    monkeypatch.setattr(PredictiveController, "_act", acting)
    result, _ = _both_ways(slug, config, CROWD, monkeypatch)
    assert result.machines.max() == limit
    assert "infeasible-but-at-size" in reasons


class _Scripted(ProvisioningStrategy):
    """Decisions by slot (``NO_ACTION`` elsewhere); a block walks the
    script to its first acting decision."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def decide(self, slot, history_tps, current_machines):
        return self.script.get(slot, NO_ACTION)

    def decide_run(self, slot, history_tps, current_machines, count):
        for offset in range(count):
            decision = self.decide(slot + offset, None, current_machines)
            if decision.acts:
                break
        return offset, decision


def test_an_acting_decision_that_moves_nothing_holds_the_slot():
    """A decision that acts but whose target the pool leaves nothing to
    do (the current size, or past the limit at it) starts no move: its
    slot holds the allocation and the next block starts after it."""
    config = _config(0.65, max_machines=6)
    script = {
        5: ScaleDecision(target_machines=4),       # the current size
        9: ScaleDecision(target_machines=6),
        40: ScaleDecision(target_machines=9),      # past the limit, at it
        41: ScaleDecision(target_machines=3),
        80: ScaleDecision(target_machines=2, emergency=True),
    }
    trace = _trace(EVALUATION[:120])
    block = CapacitySimulator(config, 4).run(trace, _Scripted(script))
    slots = oracle.capacity_run(trace, _Scripted(script), config, 4)
    assert capacity_payload(block) == capacity_payload(slots)
    for name in ("machines", "eff_cap_target", "eff_cap_max", "migrating"):
        assert getattr(block, name).tobytes() == getattr(slots, name).tobytes()
    assert block.moves_started == 3


@pytest.mark.parametrize("bad", (math.nan, -1.0, math.inf))
def test_a_refused_row_ends_its_block_and_is_refused_at_its_slot(
    bad, monkeypatch
):
    """A forecast row the planner would refuse ends the block before it;
    the slot is then decided alone and raises ``PlanningError`` where the
    per-slot loop does, with the same controller state."""
    config = _config(0.65)
    model = _predictor("seasonal", EVALUATION)
    initial = max(1, math.ceil(EVALUATION[0] * 1.3 / config.q))
    # Put the bad row three slots into a block the clean run decides.
    _, calls = _both_ways("seasonal", config, EVALUATION, monkeypatch)
    monkeypatch.undo()
    starts, length = [], len(TRAIN) - 1
    for count, offset, _ in calls:
        starts.append((length + 1, offset))
        length += offset + 1
    origin = next(s for s, offset in starts if offset >= 5) + 2
    forecasts = type(model).forecasts

    def spoiled(self, series, origins, horizon):
        rows = np.array(forecasts(self, series, origins, horizon))
        rows[np.asarray(origins) == origin, 3] = bad
        return rows

    monkeypatch.setattr(type(model), "forecasts", spoiled)
    seen = {"block": [], "slot": []}
    decide_run, decide_cycle = PredictiveController.decide_run, oracle.decide_cycle

    def block_entry(controller, history, machines, count=1, current_load=None):
        seen["block"].append([len(history) - 1, count, None])
        decided = decide_run(controller, history, machines, count, current_load)
        seen["block"][-1][2] = decided[0]
        return decided

    def slot_entry(controller, history, machines, current_load=None):
        seen["slot"].append(len(history) - 1)
        return decide_cycle(controller, history, machines, current_load)

    monkeypatch.setattr(PredictiveController, "decide_run", block_entry)
    monkeypatch.setattr(oracle, "decide_cycle", slot_entry)
    states = []
    for per_slot in (False, True):
        strategy = PStoreStrategy(config, model)
        with pytest.raises(PlanningError, match="finite and non-negative"):
            if per_slot:
                oracle.capacity_run(
                    _trace(EVALUATION), strategy, config, initial,
                    history_seed=TRAIN,
                )
            else:
                CapacitySimulator(config, initial, history_seed=TRAIN).run(
                    _trace(EVALUATION), strategy
                )
        controller = strategy.controller
        states.append((controller._scale_in_streak, controller._last_schedule))
    assert states[0] == states[1]
    assert seen["slot"][-1] == origin
    # The block holding the row decided the two slots before it and
    # stopped; the next call started at the row and raised.
    assert seen["block"][-2] == [origin - 2, capacity_sim.DECISION_BLOCK, 1]
    assert seen["block"][-1][0::2] == [origin, None]


class TestGatherBudget:
    """One feasibility gather holds at most ``GATHER_BYTES`` of gathered
    loads, or one row when a row alone is larger; rows are gathered only
    as the walk reaches them."""

    @staticmethod
    def _gathers(planner, loads, n0, monkeypatch, take=None):
        sizes = []
        feasibility = Planner._feasibility

        def gathering(self, grid, block, n0):
            sizes.append((len(block), 8 * grid.windows.size))
            return feasibility(self, grid, block, n0)

        monkeypatch.setattr(Planner, "_feasibility", gathering)
        plans = planner.rows(loads, n0)
        answers = [next(plans) for _ in range(take or len(loads))]
        return sizes, answers

    def test_a_z330_grid_gathers_one_row_at_a_time(self, monkeypatch):
        config = default_config().with_interval(3600.0)
        planner = Planner(config)
        horizon = PredictiveController.minimum_horizon_intervals(config)
        peak = config.q * 329.5
        loads = np.full((3, horizon + 1), peak)
        loads[:, 0] = config.q * 320
        sizes, answers = self._gathers(planner, loads, 320, monkeypatch)
        assert len(planner._grid(330, horizon).cap) == 330
        assert sizes and all(rows == 1 for rows, _ in sizes)
        assert sizes[0][1] > planner_module.GATHER_BYTES
        assert len(sizes) == 3

    def test_rows_at_one_z_share_a_gather_up_to_the_budget(self, monkeypatch):
        config = default_config().with_interval(SLOT)
        planner = Planner(config)
        loads = np.full((40, 8), config.q * 9.5)  # Z = 10
        loads[::2] *= 1.25  # Z = 12 on even rows
        budget = 6 * 8 * planner._grid(12, 7).windows.size
        monkeypatch.setattr(planner_module, "GATHER_BYTES", budget)
        sizes, _ = self._gathers(planner, loads, 10, monkeypatch, take=7)
        # Row 0 gathers rows 0, 2, .. 10 at Z = 12, row 1 the odd rows
        # 1 .. 15 at Z = 10; rows 2 .. 6 are already gathered.
        assert [rows for rows, _ in sizes] == [6, 8]
        assert all(rows * size <= budget for rows, size in sizes)
