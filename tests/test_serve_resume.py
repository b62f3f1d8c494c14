"""Crash/resume tests for the serve control plane checkpointing.

The headline property: SIGKILL-ing a checkpointing serve run and
resuming from its checkpoint directory must converge to the *same*
chronicle tail and summary counters as a run that was never interrupted
— no interval closed twice, no duplicate report counted, the in-flight
migration resumed on the identical float trajectory.  The in-process
crash model (stop without drain) leaves exactly the on-disk state a real
``kill -9`` does, because checkpoints are written only at interval
closes and the post-stop rollback is never persisted.
"""

import asyncio
import json

import pytest

from repro.errors import PredictionError, SimulationError
from repro.experiments.serve import (
    SERVE_SEED,
    SERVE_TRIGGER,
    chronicle_projection,
    run_resume_scenario,
    run_scenario,
)
from repro.serve.persist import CHECKPOINT_SCHEMA, CheckpointStore


# ----------------------------------------------------------------------
# CheckpointStore mechanics
# ----------------------------------------------------------------------


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        records = [{"id": "pd-100-00001", "kind": "plan.decision"}]
        store.save({"machines": 3}, records)
        doc, loaded = CheckpointStore(tmp_path / "ckpt").load()
        assert doc["schema"] == CHECKPOINT_SCHEMA
        assert doc["machines"] == 3
        assert loaded == records

    def test_incremental_chronicle_append(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recs = [{"id": f"r-{i}", "kind": "k"} for i in range(3)]
        store.save({}, recs[:1])
        store.save({}, recs)
        lines = (tmp_path / "chronicle.jsonl").read_text().splitlines()
        assert len(lines) == 3           # appended, not rewritten
        _, loaded = CheckpointStore(tmp_path).load()
        assert loaded == recs

    def test_unacknowledged_tail_is_trimmed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recs = [{"id": f"r-{i}", "kind": "k"} for i in range(2)]
        store.save({}, recs)
        # Simulate a crash between the chronicle append and the snapshot
        # replace: extra rows exist that no checkpoint acknowledges.
        with (tmp_path / "chronicle.jsonl").open("a") as handle:
            handle.write(json.dumps({"id": "r-orphan", "kind": "k"}) + "\n")
            handle.write('{"torn')  # and a torn partial write behind it
        _, loaded = CheckpointStore(tmp_path).load()
        assert [r["id"] for r in loaded] == ["r-0", "r-1"]
        lines = (tmp_path / "chronicle.jsonl").read_text().splitlines()
        assert len(lines) == 2           # tail physically removed

    def test_load_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(SimulationError, match="no checkpoint"):
            CheckpointStore(tmp_path).load()

    def test_schema_mismatch_raises(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text(
            json.dumps({"schema": "pstore.serve-checkpoint/v999"})
        )
        with pytest.raises(SimulationError, match="schema"):
            CheckpointStore(tmp_path).load()

    def test_corrupt_snapshot_raises(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text("{not json")
        with pytest.raises(SimulationError, match="corrupt"):
            CheckpointStore(tmp_path).load()

    def test_shrinking_chronicle_is_a_caller_bug(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({}, [{"id": "a"}, {"id": "b"}])
        with pytest.raises(SimulationError, match="shrank"):
            store.save({}, [{"id": "a"}])

    def test_missing_acknowledged_chronicle_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({}, [{"id": "a"}])
        (tmp_path / "chronicle.jsonl").unlink()
        with pytest.raises(SimulationError, match="missing"):
            CheckpointStore(tmp_path).load()


# ----------------------------------------------------------------------
# Component state round-trips
# ----------------------------------------------------------------------


class TestComponentStateRoundTrips:
    def test_online_predictor_restores_exact_model(self):
        import numpy as np

        from repro.prediction import SeasonalNaivePredictor
        from repro.prediction.online import OnlinePredictor

        def fresh():
            return OnlinePredictor(
                SeasonalNaivePredictor(4), refit_every=6, max_history=40
            )

        first = fresh()
        series = [10.0, 20.0, 30.0, 40.0] * 5
        first.observe_many(series)
        # Advance past the last refit so the model is cadence-stale: a
        # restore that refit on the *current* history would diverge.
        first.observe_many([99.0, 98.0, 97.0])

        second = fresh()
        second.restore_state(first.state_dict())
        assert second.is_fitted
        assert second.fit_count == first.fit_count
        np.testing.assert_array_equal(
            second.predict_next(3), first.predict_next(3)
        )

    def test_online_predictor_rejects_wrong_base(self):
        from repro.prediction import LastValuePredictor, SeasonalNaivePredictor
        from repro.prediction.online import OnlinePredictor

        first = OnlinePredictor(SeasonalNaivePredictor(2), refit_every=4)
        first.observe_many([1.0, 2.0] * 4)
        other = OnlinePredictor(LastValuePredictor(), refit_every=4)
        with pytest.raises(PredictionError, match="base predictor"):
            other.restore_state(first.state_dict())

    def test_accuracy_tracker_restores_windows_and_pending(self):
        from repro.telemetry import AccuracyTracker

        first = AccuracyTracker(window=4)
        first.record_forecast(0, [10.0, 12.0], inflated=[11.5, 13.8])
        first.observe(1, 11.0)
        first.record_forecast(1, [14.0])

        second = AccuracyTracker(window=4)
        second.restore_state(first.state_dict())
        assert second.errors("predictor", 1) == first.errors("predictor", 1)
        assert second.pending_count == first.pending_count
        # The restored pending forecast must still harvest normally.
        harvested = second.observe(2, 13.0)
        assert [h["predicted"] for h in harvested] == [14.0, 12.0]

    def test_migration_restore_is_bit_exact(self):
        import dataclasses

        import numpy as np

        from repro.config import default_config
        from repro.serve.controller import OnlineController
        from repro.prediction import LastValuePredictor
        from repro.telemetry.runtime import NullTelemetry

        config = default_config().with_interval(300.0)
        # Stretch D so the move spans many intervals and the checkpoint
        # lands mid-round (the interesting float trajectory to replay).
        config = dataclasses.replace(config, d_seconds=config.d_seconds * 8)
        tel = NullTelemetry()

        def fresh():
            predictor = LastValuePredictor().fit([1000.0])
            return OnlineController(
                config, predictor, initial_machines=2, telemetry=tel
            )

        first = fresh()
        # Drive load high enough to start a multi-round scale-out, then
        # step a few intervals so the migration is mid-flight.
        history = [1000.0, 30000.0]
        first.on_interval(1, history, 600.0)
        assert first.migrating
        for slot in range(2, 5):
            history.append(30000.0)
            first.on_interval(slot, history, (slot + 1) * 300.0)
        assert first.migrating

        second = fresh()
        second.restore_state(first.state_dict())
        assert second.migrating
        np.testing.assert_array_equal(
            second._move.migration.data_fractions(),
            first._move.migration.data_fractions(),
        )
        assert (
            second._move.migration.machines_allocated()
            == first._move.migration.machines_allocated()
        )
        # And they keep evolving identically.
        history.append(30000.0)
        first.on_interval(5, history, 1800.0)
        second.on_interval(5, history, 1800.0)
        assert first.migrating == second.migrating
        assert first.machines == second.machines

    def test_flight_recorder_restore_continues_sequence(self):
        from repro.telemetry.causal import FlightRecorder

        first = FlightRecorder()
        first.record("plan.decision", time=100.0)
        first.record("migration.start", time=200.0)

        second = FlightRecorder()
        second.restore(first.snapshot(), seq=first.seq)
        assert second.last("migration.start") == first.last("migration.start")
        rec = second.record("migration.complete", time=300.0)
        assert rec["id"].endswith("-00003")  # numbering continues


# ----------------------------------------------------------------------
# Kill-9-then-resume convergence (the tentpole acceptance test)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def resume_runs(tmp_path_factory):
    """Baseline, crashed, and resumed runs of the drift scenario.

    The crash lands at report 90 — past the drift (slot 72), so the
    checkpoint carries a refit predictor, a hot accuracy window, and
    reactive-fallback state: the hardest state to reconstruct.
    """
    baseline_summary, baseline_chronicle = run_scenario(
        SERVE_SEED, SERVE_TRIGGER
    )
    ckpt = tmp_path_factory.mktemp("serve-ckpt")
    killed, resumed, merged = run_resume_scenario(
        SERVE_SEED, SERVE_TRIGGER, checkpoint_dir=ckpt, kill_after=90
    )
    return {
        "baseline": baseline_summary,
        "baseline_chronicle": baseline_chronicle,
        "killed": killed,
        "resumed": resumed,
        "merged_chronicle": merged,
    }


class TestKillThenResume:
    def test_crash_really_lost_the_tail(self, resume_runs):
        assert resume_runs["killed"]["intervals"] < resume_runs["baseline"]["intervals"]
        assert not resume_runs["killed"]["drained"]

    def test_resumed_run_flags_itself(self, resume_runs):
        assert resume_runs["resumed"]["resumed"] is True
        assert resume_runs["killed"]["resumed"] is False
        assert resume_runs["resumed"]["checkpoint_saves"] > 0

    def test_summary_converges_to_uninterrupted_run(self, resume_runs):
        baseline, resumed = resume_runs["baseline"], resume_runs["resumed"]
        for field in (
            "intervals",
            "violations",
            "moves_started",
            "emergencies",
            "trigger_fires",
            "trigger_recoveries",
            "steady_machines",
            "machines",
            "mode",
            "watermark",
        ):
            assert resumed[field] == baseline[field], field

    def test_chronicle_tail_converges(self, resume_runs):
        base = chronicle_projection(resume_runs["baseline_chronicle"])
        merged = chronicle_projection(resume_runs["merged_chronicle"])
        assert merged == base

    def test_no_interval_closed_twice(self, resume_runs):
        # Reports ingested must match the uninterrupted run exactly: the
        # full-trace replay after resume was deduplicated, not recounted.
        baseline, resumed = resume_runs["baseline"], resume_runs["resumed"]
        assert resumed["reports"] == baseline["reports"]
        assert resumed["duplicate_reports"] > 0
        assert resumed["late_reports"] == baseline["late_reports"]

    def test_resume_is_chronicled(self, resume_runs):
        resumes = [
            rec
            for rec in resume_runs["merged_chronicle"]
            if rec["kind"] == "service.resume"
        ]
        assert len(resumes) == 1
        assert resumes[0]["intervals"] == resume_runs["killed"]["intervals"]

    def test_resume_restarts_within_one_interval_of_watermark(
        self, resume_runs
    ):
        resume = next(
            rec
            for rec in resume_runs["merged_chronicle"]
            if rec["kind"] == "service.resume"
        )
        interval = resume_runs["baseline"]["interval_seconds"]
        assert resume["watermark"] >= resume["intervals"] * interval - interval


# ----------------------------------------------------------------------
# Resume plumbing errors
# ----------------------------------------------------------------------


class TestResumeErrors:
    def test_resume_without_dir_raises(self):
        from repro.config import default_config
        from repro.prediction import LastValuePredictor
        from repro.serve import ControlPlane, ServeOptions
        from repro.telemetry.runtime import NullTelemetry

        with pytest.raises(SimulationError, match="checkpoint directory"):
            ControlPlane(
                default_config().with_interval(300.0),
                LastValuePredictor().fit([1.0]),
                source=None,
                options=ServeOptions(resume=True),
                telemetry=NullTelemetry(),
            )

    def test_interval_mismatch_raises(self, tmp_path):
        from repro.config import default_config
        from repro.prediction import LastValuePredictor
        from repro.serve import ControlPlane, ServeOptions
        from repro.telemetry.runtime import NullTelemetry

        store = CheckpointStore(tmp_path)
        store.save({"interval_seconds": 300.0, "processed": 0}, [])
        with pytest.raises(SimulationError, match="does not.*match|match"):
            ControlPlane(
                default_config().with_interval(600.0),
                LastValuePredictor().fit([1.0]),
                source=None,
                options=ServeOptions(
                    checkpoint_dir=str(tmp_path), resume=True
                ),
                telemetry=NullTelemetry(),
            )
