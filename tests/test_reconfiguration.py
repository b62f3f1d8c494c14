"""Tests for :class:`repro.squall.migrator.Reconfiguration`, the one
owner of a move's lifecycle, for the three loops that hold one, and
for the row-level :class:`~repro.squall.ClusterMigrator`."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import PStoreConfig, default_config
from repro.elasticity.base import NO_ACTION, ProvisioningStrategy, ScaleDecision
from repro.faults import FaultInjector, FaultSpec
from repro.hstore import Cluster, Column, Schema, Table
from repro.prediction import LastValuePredictor, OnlinePredictor
from repro.serve.controller import OnlineController
from repro.sim import CapacitySimulator, ElasticDbSimulator
from repro.squall import ClusterMigrator
from repro.squall.migrator import Reconfiguration
from repro.telemetry import Telemetry
from repro.workload.trace import LoadTrace

BEFORE, AFTER = 3, 5
DECISION_ID = "pd-test-00000"


# ----------------------------------------------------------------------
# Checkpoint form: cut anywhere, rebuild, carry on bit-identically
# ----------------------------------------------------------------------


class TestCheckpointReplay:
    @given(
        before=st.integers(min_value=1, max_value=9),
        after=st.integers(min_value=1, max_value=9),
        slots=st.integers(min_value=0, max_value=40),
        d_scale=st.sampled_from([0.5, 1.0, 3.0, 8.0]),
        rate_multiplier=st.sampled_from([1.0, 8.0]),
        outcome=st.sampled_from(["complete", "abort"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_cut_anywhere(
        self, before, after, slots, d_scale, rate_multiplier, outcome
    ):
        assume(before != after)
        config = default_config().with_interval(300.0)
        config = dataclasses.replace(
            config, d_seconds=config.d_seconds * d_scale
        )
        first_tel = Telemetry()
        first = Reconfiguration(
            config, before, after,
            config.migration_rate_kbps * rate_multiplier, first_tel,
        )
        first.start(
            600.0, ScaleDecision(reason="r", record_id=DECISION_ID), slot=1
        )
        for _ in range(slots):          # cuts land mid-round as a rule
            if first.migration.done:
                break
            first.step_slot(300.0)

        doc = json.loads(json.dumps(first.state_dict(), sort_keys=True))
        second_tel = Telemetry()
        second_tel.chronicle.restore(
            first_tel.chronicle.snapshot(), seq=first_tel.chronicle.seq
        )
        # Endpoints and rate are placeholders the restore overwrites.
        second = Reconfiguration(config, 1, 2, 1.0, second_tel)
        second.restore_state(doc)

        def same():
            a, b = first.migration, second.migration
            assert a.data_fractions().tobytes() == b.data_fractions().tobytes()
            assert a.machines_allocated() == b.machines_allocated()
            assert a.done == b.done
            assert first.state_dict() == second.state_dict()

        same()
        if not first.migration.done:
            assert first.step_slot(300.0) == second.step_slot(300.0)
            same()
        for move in (first, second):
            if outcome == "complete":
                move.complete(9000.0)
            else:
                move.abort(9000.0, "drain")
        assert first_tel.chronicle.records[-1] == second_tel.chronicle.records[-1]
        assert first_tel.chronicle.records[-1]["parent"] == first.record_id

    def test_telemetry_off_emits_nothing_and_returns_no_id(self):
        from repro.telemetry.runtime import NullTelemetry

        move = Reconfiguration(
            default_config(), 2, 4, 244.0, NullTelemetry()
        )
        move.start(0.0, ScaleDecision(record_id=DECISION_ID), slot=0)
        assert move.record_id is None
        assert move.complete(10.0) is None
        assert move.abort(10.0, "why") is None


# ----------------------------------------------------------------------
# The same move through every loop and the row-level migrator
# ----------------------------------------------------------------------


class OneMove(ProvisioningStrategy):
    """Asks for BEFORE -> AFTER once, at the first consultation."""

    name = "one-move"

    def __init__(self):
        self.asked = False

    def decide(self, slot, history_tps, current_machines):
        if self.asked or current_machines != BEFORE:
            return NO_ACTION
        self.asked = True
        return ScaleDecision(
            target_machines=AFTER, reason="scripted", record_id=DECISION_ID
        )


def _kv_cluster() -> Cluster:
    schema = Schema([Table(
        "kv", [Column("k", "str"), Column("v", "int", nullable=True)],
        primary_key="k",
    )])
    cluster = Cluster(schema, BEFORE, 2, 120)
    for i in range(300):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _small_config() -> PStoreConfig:
    # A small database, so the move spans a few intervals at most.
    return dataclasses.replace(
        default_config().with_interval(60.0), database_kb=60_000.0
    )


def run_capacity_sim(tel, abort):
    config = _small_config()
    trace = LoadTrace(np.full(12, config.q * 2 * 60.0), 60.0)
    CapacitySimulator(config, BEFORE, telemetry=tel).run(trace, OneMove())
    return config


def run_elastic_sim(tel, abort):
    config = _small_config()
    injector = None
    if abort:
        injector = FaultInjector(
            [FaultSpec(kind="node_crash", at_time=70.0)], telemetry=tel
        )
    sim = ElasticDbSimulator(
        config, max_machines=8, initial_machines=BEFORE, seed=3,
        telemetry=tel, injector=injector,
    )
    sim.run(np.full(600, config.q * 2), OneMove())
    return config


def run_serve(tel, abort):
    config = _small_config()
    learner = OnlinePredictor(
        LastValuePredictor(), refit_every=1, min_training=99
    )
    controller = OnlineController(
        config, learner, initial_machines=BEFORE, telemetry=tel
    )
    assert controller.mode == "warmup"       # so the fallback decides
    controller._reactive = OneMove()
    history = []
    for slot in range(12):
        history.append(config.q * 2)
        controller.on_interval(slot, history, (slot + 1) * 60.0)
        if abort and controller.migrating:
            controller.shutdown((slot + 1) * 60.0 + 1.0, reason="SIGINT")
            break
    return config


def run_cluster_migrator(tel, abort):
    config = _small_config()
    migrator = ClusterMigrator(_kv_cluster(), config, telemetry=tel)
    migration = migrator.start_move(AFTER, ScaleDecision(record_id=DECISION_ID))
    if abort:
        migrator.advance(migration.round_seconds / 2)
        migrator.abort("node 4 crashed")
    while migrator.migrating:
        migrator.advance(7.0)
    return config


LOOPS = {
    "capacity_sim": run_capacity_sim,
    "elastic_sim": run_elastic_sim,
    "serve": run_serve,
    "cluster_migrator": run_cluster_migrator,
}

#: What every chronicle record carries besides its payload.
ENVELOPE = {"id", "kind", "time", "parent"}
#: The payload of a move's lifecycle records, the same in every loop ...
LIFECYCLE_KEYS = {
    "migration.start": {
        "before", "after", "rate_kbps", "est_seconds", "emergency", "reason",
    },
    "migration.complete": {"before", "after", "seconds"},
    "migration.aborted": {
        "before", "after", "reason", "elapsed", "rolled_back_fraction",
    },
}
#: ... but for what only that site knows, on ``migration.start``: the
#: planner slot of the decision, or the rounds of the bucket schedule.
START_EXTRAS = {
    "capacity_sim": {"slot"},
    "elastic_sim": {"slot"},
    "serve": {"slot"},
    "cluster_migrator": {"rounds"},
}


def _lifecycle(tel) -> list:
    return [
        r for r in tel.chronicle.records if r["kind"] in LIFECYCLE_KEYS
    ]


def _move_counters(tel) -> dict:
    return {
        s["name"]: s["value"] for s in tel.metrics.snapshot()
        if s["kind"] == "counter"
        and s["name"].endswith(("moves_started", "moves_aborted", "emergencies"))
    }


def _assert_key_sets(loop, records) -> None:
    for record in records:
        expected = ENVELOPE | LIFECYCLE_KEYS[record["kind"]]
        if record["kind"] == "migration.start":
            expected = expected | START_EXTRAS[loop]
        assert set(record) == expected, (loop, record["kind"])


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_one_move_one_record_shape(loop):
    tel = Telemetry()
    config = LOOPS[loop](tel, abort=False)
    start, complete = _lifecycle(tel)
    assert (start["kind"], complete["kind"]) == (
        "migration.start", "migration.complete"
    )
    # The serve controller chronicles a fallback decision itself.
    decisions = tel.chronicle.by_kind("plan.decision")
    assert start["parent"] == (
        decisions[-1]["id"] if decisions else DECISION_ID
    )
    assert complete["parent"] == start["id"]
    _assert_key_sets(loop, (start, complete))
    for record in (start, complete):
        assert (record["before"], record["after"]) == (BEFORE, AFTER)
    assert (start["emergency"], start["reason"]) == (
        (False, "scripted") if loop != "cluster_migrator" else (False, "")
    )
    assert start["rate_kbps"] == config.migration_rate_kbps
    assert complete["seconds"] == complete["time"] - start["time"]
    assert complete["seconds"] >= start["est_seconds"] - 60.0
    # Every record the move wrote hangs off its start record.
    for record in tel.chronicle.records:
        if record["kind"] in ("migration.round", "node.add", "node.remove"):
            assert record["parent"] == start["id"]
    histogram = tel.metrics.histogram("migrate.duration_seconds")
    assert histogram.count == 1
    # The chronicle is the only record of the lifecycle, and the move
    # counts itself: one counter set, whichever loop ran it.
    assert not [s for s in tel.tracer.spans if s.name.startswith("migration.")]
    assert _move_counters(tel) == {"migrate.moves_started": 1}


def test_the_cluster_migrator_moves_at_the_decisions_rate():
    """The decision sets the rate (8 x R, Fig. 11's boosted mode) and
    its emergency and reason land on ``migration.start``."""
    tel = Telemetry()
    config = _small_config()
    migrator = ClusterMigrator(_kv_cluster(), config, telemetry=tel)
    migration = migrator.start_move(5, ScaleDecision(
        target_machines=5, rate_multiplier=8.0, emergency=True, reason="x",
    ))
    assert migration.rate_kbps == 8.0 * config.migration_rate_kbps
    (start,) = tel.chronicle.by_kind("migration.start")
    assert (start["rate_kbps"], start["emergency"], start["reason"]) == (
        8.0 * config.migration_rate_kbps, True, "x"
    )
    assert _move_counters(tel) == {
        "migrate.moves_started": 1, "migrate.emergencies": 1,
    }


@pytest.mark.parametrize(
    "loop", ["elastic_sim", "serve", "cluster_migrator"]
)
def test_one_abort_one_record_shape(loop):
    tel = Telemetry()
    LOOPS[loop](tel, abort=True)
    start, aborted = _lifecycle(tel)[:2]
    assert (start["kind"], aborted["kind"]) == (
        "migration.start", "migration.aborted"
    )
    assert aborted["parent"] == start["id"]
    _assert_key_sets(loop, (start, aborted))
    assert (aborted["before"], aborted["after"]) == (BEFORE, AFTER)
    assert aborted["elapsed"] == aborted["time"] - start["time"]
    assert 0.0 <= aborted["rolled_back_fraction"] < 1.0
    assert not [s for s in tel.tracer.spans if s.name.startswith("migration.")]
    assert _move_counters(tel)["migrate.moves_aborted"] == 1
    # The aborted move never also completes.
    assert not [
        r for r in tel.chronicle.records
        if r["kind"] == "migration.complete" and r["parent"] == start["id"]
    ]
