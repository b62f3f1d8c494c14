"""Tests for the decision -> move hand-off: the one
:class:`~repro.decision.ScaleDecision`, its clamp rule, and the one
blame rule the loops use to parent a violation."""

import dataclasses
import itertools
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.sla import (
    CAUSE_FAULT,
    CAUSE_HEADROOM,
    CAUSE_MIGRATION,
    CAUSE_UNDER_FORECAST,
    attribute_violation,
)
from repro.config import default_config
from repro.decision import NO_ACTION, ScaleDecision
from repro.errors import PStoreError
from repro.elasticity import PStoreStrategy
from repro.elasticity.base import ProvisioningStrategy
from repro.prediction import LastValuePredictor, OnlinePredictor
from repro.serve.controller import OnlineController
from repro.sim import CapacitySimulator, ElasticDbSimulator
from repro.telemetry import FlightRecorder, Telemetry
from repro.telemetry.causal import blame
from repro.workload.trace import LoadTrace

CFG = default_config().with_interval(60.0)


# ----------------------------------------------------------------------
# One type
# ----------------------------------------------------------------------


@pytest.mark.parametrize("level", [0.5, 6.0], ids=["steady", "acts"])
def test_strategy_passes_the_controllers_decision_through(level):
    strategy = PStoreStrategy(CFG, LastValuePredictor().fit([CFG.q]))
    made = []
    inner = strategy.controller.decide

    def spy(*args, **kwargs):
        made.append(inner(*args, **kwargs))
        return made[-1]

    strategy.controller.decide = spy
    decision = strategy.decide(3, [CFG.q * level] * 4, 2)
    assert decision is made[0]
    assert decision.acts == (level > 1)


# ----------------------------------------------------------------------
# One clamp rule
# ----------------------------------------------------------------------


@given(
    target=st.one_of(st.none(), st.integers(min_value=-3, max_value=40)),
    machines=st.integers(min_value=1, max_value=30),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
)
def test_target_from_is_none_or_a_real_move_within_the_cap(
    target, machines, cap
):
    result = ScaleDecision(target_machines=target).target_from(machines, cap)
    if result is None:
        # Nothing to do only for the reasons the rule names.
        capped = target if cap is None or target is None else min(target, cap)
        assert capped is None or capped == machines or capped < 1
        return
    assert result >= 1
    assert result != machines
    assert result <= target
    if cap is not None:
        assert result <= cap


class Script(ProvisioningStrategy):
    """Hands out ``decisions`` one per consultation, from the second
    planning boundary on."""

    name = "script"

    def __init__(self, *decisions):
        self.todo = list(decisions)

    def decide(self, slot, history_tps, current_machines):
        if slot < 1 or not self.todo:
            return NO_ACTION
        return self.todo.pop(0)


def ask_once(target):
    return Script(ScaleDecision(target_machines=target, reason="scripted"))


#: Small enough that the move is over within a few planner intervals.
POOL_CFG = dataclasses.replace(CFG, database_kb=60_000.0)
START, ASKED = 2, 8


class Outcome(NamedTuple):
    """The most machines a loop held, and the moves it says it started."""

    most: int
    moves_started: int
    emergencies: int


def pool_capacity_sim(tel, pool, strategy, slots=10):
    config = dataclasses.replace(POOL_CFG, max_machines=pool)
    trace = LoadTrace(np.full(slots, config.q * 60.0), 60.0)
    result = CapacitySimulator(config, START, telemetry=tel).run(
        trace, strategy
    )
    return Outcome(
        result.machines.max(), result.moves_started, result.emergencies
    )


def pool_elastic_sim(tel, pool, strategy, slots=10):
    sim = ElasticDbSimulator(
        POOL_CFG, max_machines=pool, initial_machines=START, seed=3,
        telemetry=tel,
    )
    result = sim.run(np.full(60 * slots, POOL_CFG.q), strategy)
    return Outcome(
        result.machines.max(), result.moves_started, result.emergencies
    )


def pool_serve(tel, pool, strategy, slots=10):
    learner = OnlinePredictor(           # first fit out of reach: warm-up
        LastValuePredictor(), refit_every=1, min_training=99
    )
    controller = OnlineController(
        POOL_CFG, learner, initial_machines=START,
        max_machines=pool, telemetry=tel,
    )
    controller._reactive = strategy      # warm-up: the fallback decides
    history, most = [], START
    for slot in range(slots):
        history.append(POOL_CFG.q)
        controller.on_interval(slot, history, (slot + 1) * 60.0)
        most = max(most, controller.status()["machines"])
    status = controller.status()
    return Outcome(most, status["moves_started"], status["emergencies"])


LOOPS = pytest.mark.parametrize(
    "loop", [pool_capacity_sim, pool_elastic_sim, pool_serve],
    ids=["capacity_sim", "elastic_sim", "serve"],
)


@pytest.mark.parametrize("pool", range(3, 13))
@LOOPS
def test_every_loop_clamps_an_over_pool_target_to_its_pool(loop, pool):
    """The same decision — go to 8 machines — in a pool of 3 to 12: every
    loop moves to what the pool allows and never allocates beyond it."""
    tel = Telemetry()
    most = loop(tel, pool, ask_once(ASKED)).most
    (start,) = tel.chronicle.by_kind("migration.start")
    assert (start["before"], start["after"]) == (START, min(ASKED, pool))
    (complete,) = tel.chronicle.by_kind("migration.complete")
    assert complete["after"] == min(ASKED, pool)
    assert most == min(ASKED, pool)


@pytest.mark.parametrize("pool", [3, 10])
@LOOPS
def test_every_loop_counts_the_moves_it_chronicles(loop, pool):
    """Out to 8 as an emergency, back in to 3, out to 5: what a loop
    reports as started (and as emergencies) is its ``migration.start``
    records (and the emergency ones among them).  At pool 3 the first
    move goes to 3 and the other two are clamped to where it is."""
    tel = Telemetry()
    outcome = loop(tel, pool, Script(
        ScaleDecision(target_machines=ASKED, emergency=True, reason="crowd"),
        ScaleDecision(target_machines=3, reason="calm"),
        ScaleDecision(target_machines=5, reason="ramp"),
    ), slots=40)
    starts = tel.chronicle.by_kind("migration.start")
    assert outcome.moves_started == len(starts) == (1 if pool == 3 else 3)
    assert outcome.emergencies == sum(s["emergency"] for s in starts) == 1
    assert len(tel.chronicle.by_kind("migration.complete")) == len(starts)


@pytest.mark.parametrize("pool", [0, -1])
@LOOPS
def test_no_loop_freezes_on_a_pool_below_one(loop, pool):
    """A pool below one machine is refused when the loop is built, or
    (the capacity simulator's ``config.max_machines = 0``) means
    unbounded — never a loop that clamps every move away."""
    tel = Telemetry()
    try:
        outcome = loop(tel, pool, ask_once(ASKED))
    except PStoreError:
        return
    assert outcome.moves_started == 1
    assert outcome.most == ASKED


# ----------------------------------------------------------------------
# One blame rule
# ----------------------------------------------------------------------


PARENT_KIND_TO_BUCKETS = {
    "fault.injected": {CAUSE_FAULT},
    "migration.start": {CAUSE_MIGRATION},
    "forecast.snapshot": {CAUSE_UNDER_FORECAST, CAUSE_HEADROOM},
}


@pytest.mark.parametrize(
    "fault, moving, scored",
    list(itertools.product([False, True], repeat=3)),
)
def test_write_time_parent_and_read_time_bucket_agree(fault, moving, scored):
    """``blame`` (which record a violation is parented on) and
    ``attribute_violation`` (which bucket ``pstore explain`` sorts it
    into) rank fault > move > forecast the same way, for every
    combination of evidence."""
    chronicle = FlightRecorder()
    scored_snapshot = chronicle.record("forecast.snapshot", time=60.0)
    last_snapshot = chronicle.record("forecast.snapshot", time=120.0)
    chronicle.record("fault.injected", time=130.0)
    move = SimpleNamespace(
        record_id=chronicle.record("migration.start", time=140.0)["id"]
    )

    parent = blame(
        chronicle,
        fault=7 if fault else 0,
        move=move if moving else None,
        scored={"snapshot_id": scored_snapshot["id"]} if scored else None,
    )
    by_id = {rec["id"]: rec for rec in chronicle.records}
    # The record as ElasticDbSimulator writes it for the same evidence.
    violation = {
        "fault_seconds": 7 if fault else 0,
        "migrating_seconds": 11 if moving else 0,
        "measured_tps": 900.0,
        "inflated_tps": 1000.0 if scored else None,
    }
    assert attribute_violation(violation) in PARENT_KIND_TO_BUCKETS[
        by_id[parent]["kind"]
    ]
    if not fault and not moving:
        expected = scored_snapshot if scored else last_snapshot
        assert parent == expected["id"]


def test_blame_skips_evidence_that_was_never_chronicled():
    chronicle = FlightRecorder()
    snapshot = chronicle.record("forecast.snapshot", time=60.0)
    # A fault window with no fault.injected record, a move started with
    # telemetry off, a shadow forecast scored without a snapshot.
    assert blame(
        chronicle, fault=3, move=SimpleNamespace(record_id=None),
        scored={"snapshot_id": None},
    ) == snapshot["id"]
    assert blame(FlightRecorder()) is None


# ----------------------------------------------------------------------
# The three loops that chronicle violations
# ----------------------------------------------------------------------

#: A flash crowd: calm long enough for a forecast to exist, then a jump
#: beyond what the machine limit can serve, so violations happen both
#: while the emergency move runs and after it, with nothing in flight.
CALM, CROWD = 4, 16


def _crowd_config():
    return dataclasses.replace(CFG, max_machines=4)


def _tps(config, slots):
    return np.concatenate([
        np.full(CALM, config.q * 1.2), np.full(slots - CALM, config.q * 9.0)
    ])


def _predictive(config, tel):
    return PStoreStrategy(
        config, LastValuePredictor().fit([config.q]), telemetry=tel
    )


def loop_capacity_sim(tel):
    config = _crowd_config()
    trace = LoadTrace(_tps(config, CALM + CROWD) * 60.0, 60.0)
    CapacitySimulator(config, 2, telemetry=tel).run(
        trace, _predictive(config, tel)
    )
    return "capacity.insufficient"


def loop_elastic_sim(tel):
    config = _crowd_config()
    sim = ElasticDbSimulator(
        config, max_machines=10, initial_machines=2, seed=3, telemetry=tel
    )
    sim.run(
        np.repeat(_tps(config, CALM + CROWD), 60), _predictive(config, tel)
    )
    return "sla.violation"


def loop_serve(tel):
    config = _crowd_config()
    controller = OnlineController(
        config, LastValuePredictor().fit([config.q]), initial_machines=2,
        telemetry=tel,
    )
    tps = _tps(config, CALM + CROWD)
    for slot in range(tps.size):
        controller.on_interval(slot, list(tps[: slot + 1]), (slot + 1) * 60.0)
    return "capacity.insufficient"


def test_serve_cap_reaches_the_planner():
    """A flash crowd beyond a ``pstore serve --max-machines 3`` pool:
    one emergency decision that reaches the cap, then
    ``infeasible-but-at-size`` every slot — not an emergency per slot
    that the pool rule then drops."""
    tel = Telemetry()
    controller = OnlineController(
        CFG, LastValuePredictor().fit([CFG.q]), initial_machines=2,
        max_machines=3, telemetry=tel,
    )
    tps = _tps(CFG, CALM + CROWD)
    for slot in range(tps.size):
        controller.on_interval(slot, list(tps[: slot + 1]), (slot + 1) * 60.0)
    decisions = tel.chronicle.by_kind("plan.decision")
    emergencies = [d for d in decisions if d["emergency"]]
    assert [(d["machines"], d["target_machines"]) for d in emergencies] == [
        (2, 3)
    ]
    (start,) = tel.chronicle.by_kind("migration.start")
    (complete,) = tel.chronicle.by_kind("migration.complete")
    assert (start["before"], complete["after"]) == (2, 3)
    after = [d["reason"] for d in decisions if d["time"] > complete["time"]]
    assert after and set(after) == {"infeasible-but-at-size"}
    assert controller.status()["emergencies"] == 1


@pytest.mark.parametrize(
    "loop", [loop_capacity_sim, loop_elastic_sim, loop_serve],
    ids=["capacity_sim", "elastic_sim", "serve"],
)
def test_loops_pick_the_same_parent_kind_for_the_same_evidence(loop):
    tel = Telemetry()
    violation_kind = loop(tel)
    by_id = {rec["id"]: rec for rec in tel.chronicle.records}
    in_flight = False
    seen = set()
    for record in tel.chronicle.records:
        if record["kind"] == "migration.start":
            in_flight = True
        elif record["kind"] in ("migration.complete", "migration.aborted"):
            in_flight = False
        elif record["kind"] == violation_kind:
            parent_kind = by_id[record["parent"]]["kind"]
            assert parent_kind == (
                "migration.start" if in_flight else "forecast.snapshot"
            ), record
            seen.add(in_flight)
    assert seen == {False, True}, "the scenario must produce both cases"
