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

import json
import os
import pathlib
import shutil
import subprocess
import sys

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
        with pytest.raises(PredictionError, match="base_type.*does not match"):
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
        store.save({"v": 1, "interval_seconds": 300.0, "processed": 0}, [])
        with pytest.raises(
            SimulationError, match="interval_seconds.*does not match"
        ):
            ControlPlane(
                default_config().with_interval(600.0),
                LastValuePredictor().fit([1.0]),
                source=None,
                options=ServeOptions(
                    checkpoint_dir=str(tmp_path), resume=True
                ),
                telemetry=NullTelemetry(),
            )


# ----------------------------------------------------------------------
# A checkpoint the parent commit wrote (pstore.serve-checkpoint/v1)
# ----------------------------------------------------------------------

V1_FIXTURE = pathlib.Path(__file__).parent / "data" / "serve-checkpoint-v1"


class TestParentWrittenCheckpoint:
    def test_v1_fixture_resumes_and_converges(self, resume_runs, tmp_path):
        """The directory under ``tests/data`` was cut by the PR 15 code
        at report 100 of the drift scenario, a move in flight (recipe in
        its README).  Resuming it must land where the uninterrupted run
        does, and the next save rewrites it as v2."""
        from repro.experiments.serve import SERVE_DAYS, _run_plane

        ckpt = tmp_path / "ckpt"
        shutil.copytree(V1_FIXTURE, ckpt)   # load trims the log in place
        before = json.loads((ckpt / "checkpoint.json").read_text())
        assert before["schema"] == "pstore.serve-checkpoint/v1"
        assert before["controller"]["migration"] is not None

        resumed, merged = _run_plane(
            SERVE_SEED, SERVE_TRIGGER, None, SERVE_DAYS,
            checkpoint_dir=str(ckpt), resume=True,
        )
        baseline = resume_runs["baseline"]
        assert resumed["resumed"] is True
        for field in ("intervals", "violations", "moves_started",
                      "emergencies", "trigger_fires", "trigger_recoveries",
                      "steady_machines", "mode", "watermark", "reports"):
            assert resumed[field] == baseline[field], field
        assert chronicle_projection(merged) == chronicle_projection(
            resume_runs["baseline_chronicle"]
        )
        after = json.loads((ckpt / "checkpoint.json").read_text())
        assert after["schema"] == CHECKPOINT_SCHEMA


# ----------------------------------------------------------------------
# The gate, from the command line: one line, no traceback, nothing touched
# ----------------------------------------------------------------------

SERVE_ARGS = [
    "--source", "replay:b2w", "--days", "1", "--train-days", "1",
    "--slot-seconds", "3600", "--speed", "0", "--predictor", "ar",
    "--out", "none", "--status-every", "0", "--quiet",
]


def _pstore(*args):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def good_checkpoint(tmp_path_factory):
    """A v2 checkpoint directory written by ``pstore serve`` itself."""
    ckpt = tmp_path_factory.mktemp("cli") / "ckpt"
    done = _pstore("serve", *SERVE_ARGS, "--checkpoint", str(ckpt))
    assert done.returncode == 0, done.stderr
    return ckpt


def _edit(mutate):
    def apply(ckpt):
        path = ckpt / "checkpoint.json"
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc, sort_keys=True))
    return apply


def _truncate(ckpt):
    path = ckpt / "checkpoint.json"
    path.write_text(path.read_text()[:200])


def _drop_chronicle_rows(ckpt):
    path = ckpt / "chronicle.jsonl"
    path.write_text("".join(path.read_text().splitlines(True)[:5]))


#: damage -> what the one error line must name besides the file.
REJECTED = {
    "truncated": (_truncate, "corrupt checkpoint"),
    "not-json": (
        lambda ckpt: (ckpt / "checkpoint.json").write_text("PK\x03\x04"),
        "corrupt checkpoint",
    ),
    "unknown-schema": (
        _edit(lambda doc: doc.update(schema="pstore.serve-checkpoint/v9")),
        "schema 'pstore.serve-checkpoint/v9'",
    ),
    "version-from-the-future": (
        _edit(lambda doc: doc["depository"].update(v=2)),
        "depository.v: version 2",
    ),
    "missing-component": (
        _edit(lambda doc: doc.pop("monitor")), "monitor: missing",
    ),
    "ill-typed-field": (
        _edit(lambda doc: doc["monitor"].update(closed="x")),
        "monitor.closed: expected int",
    ),
    "missing-nested-field": (
        _edit(lambda doc: doc["controller"]["reactive"].pop("below_streak")),
        "controller.reactive.below_streak: missing",
    ),
    "other-predictor": (
        _edit(lambda doc: doc["predictor"].update(base_type="SparPredictor")),
        "predictor.base_type: checkpointed 'SparPredictor'",
    ),
    "short-chronicle": (_drop_chronicle_rows, "chronicle rows but only 5"),
}


class TestResumeRejectionsAtTheCommandLine:
    def test_the_good_checkpoint_does_resume(self, good_checkpoint, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(good_checkpoint, ckpt)
        done = _pstore("serve", *SERVE_ARGS, "--resume", str(ckpt))
        assert done.returncode == 0, done.stderr
        assert "served 24 intervals" in done.stdout

    @pytest.mark.parametrize("damage", sorted(REJECTED))
    def test_rejected_with_one_line(self, good_checkpoint, tmp_path, damage):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(good_checkpoint, ckpt)
        mutate, names = REJECTED[damage]
        mutate(ckpt)
        before = {p.name: p.read_bytes() for p in sorted(ckpt.iterdir())}

        done = _pstore("serve", *SERVE_ARGS, "--resume", str(ckpt))

        assert done.returncode == 1
        assert done.stdout == ""
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1, done.stderr           # no traceback
        assert lines[0].startswith("error: ")
        assert str(ckpt) in lines[0] and names in lines[0], lines[0]
        after = {p.name: p.read_bytes() for p in sorted(ckpt.iterdir())}
        assert after == before
