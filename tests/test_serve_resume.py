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
from repro.serve.persist import (
    CHECKPOINT_SCHEMA,
    JOURNAL_FILE,
    CheckpointStore,
    read_checkpoint,
)

from .checkpoint_oracle import Document


# ----------------------------------------------------------------------
# CheckpointStore mechanics
# ----------------------------------------------------------------------


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        records = [{"id": "pd-100-00001", "kind": "plan.decision"}]
        store.save(Document({"machines": 3}), records)
        doc, loaded = CheckpointStore(tmp_path / "ckpt").load()
        assert doc["schema"] == CHECKPOINT_SCHEMA
        assert doc["machines"] == 3
        assert loaded == records

    def test_incremental_chronicle_append(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recs = [{"id": f"r-{i}", "kind": "k"} for i in range(3)]
        store.save(Document({}), recs[:1])
        store.save(Document({}), recs)
        lines = (tmp_path / "chronicle.jsonl").read_text().splitlines()
        assert len(lines) == 3           # appended, not rewritten
        _, loaded = CheckpointStore(tmp_path).load()
        assert loaded == recs

    def test_unacknowledged_tail_is_trimmed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recs = [{"id": f"r-{i}", "kind": "k"} for i in range(2)]
        store.save(Document({}), recs)
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
        store.save(Document({}), [{"id": "a"}, {"id": "b"}])
        with pytest.raises(SimulationError, match="shrank"):
            store.save(Document({}), [{"id": "a"}])

    def test_missing_acknowledged_chronicle_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(Document({}), [{"id": "a"}])
        (tmp_path / "chronicle.jsonl").unlink()
        with pytest.raises(SimulationError, match="missing"):
            CheckpointStore(tmp_path).load()


    def test_a_fresh_run_into_a_used_directory_starts_both_logs_over(
        self, tmp_path
    ):
        used = CheckpointStore(tmp_path)
        used.save(Document({"n": [1.0] * 99}), [{"id": "old-0"}])
        used.save(
            Document({"n": [1.0] * 100}), [{"id": "old-0"}, {"id": "old-1"}]
        )
        assert used.journal_rows == 1
        CheckpointStore(tmp_path).save(
            Document({"n": [9.0]}), [{"id": "new-0"}]
        )
        doc, loaded = CheckpointStore(tmp_path).load()
        assert doc["n"] == [9.0] and loaded == [{"id": "new-0"}]


# ----------------------------------------------------------------------
# The journal: a save is what changed, a load is the whole document
# ----------------------------------------------------------------------


def _state(n, move=None):
    """What a plane's document does between intervals: a counter, a
    series that grows, a window that slides, clocks that all advance
    under keys that stay, and a component that comes and goes."""
    from repro.persist import encode

    return {
        "v": 1,
        "processed": n,
        "fit_series": [float(i) for i in range(400)],   # never changes
        "monitor": {"v": 1, "rates": [i * 0.5 for i in range(n)]},
        "window": [(i, i + 0.25) for i in range(max(0, n - 4), n)],
        "clocks": encode({f"n{i}": 60.0 * n + i for i in range(6)}),
        "move": move,
    }


def _whole(state, seq, rows):
    """The text a whole-snapshot save of ``state`` would have written."""
    return json.dumps(
        dict(state, schema=CHECKPOINT_SCHEMA, chronicle_rows=rows, seq=seq),
        sort_keys=True,
    )


def _records(n):
    return [{"id": f"r-{i}", "kind": "k"} for i in range(n)]


def _saved(directory, saves):
    """A store after ``saves`` saves of ``_state(1..saves)``; save ``n``
    acknowledges ``2 n`` chronicle rows."""
    store = CheckpointStore(directory)
    for n in range(1, saves + 1):
        store.save(Document(_state(n)), _records(2 * n))
    return store


def _assert_holds(directory, n, seq=None):
    """Loading a copy of ``directory`` gives save ``n``, to the byte."""
    copy = directory.parent / f"{directory.name}-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(directory, copy)
    assert json.dumps(read_checkpoint(copy), sort_keys=True) == _whole(
        _state(n), seq or n, 2 * n
    )
    store = CheckpointStore(copy)
    doc, records = store.load()
    assert json.dumps(doc, sort_keys=True) == _whole(_state(n), seq or n, 2 * n)
    assert records == _records(2 * n)
    return store


class TestJournal:
    def test_a_save_writes_what_changed(self, tmp_path):
        store = _saved(tmp_path / "ckpt", 5)
        assert (store.saves, store.journal_rows, store.compactions) == (5, 4, 0)
        base = (tmp_path / "ckpt" / "checkpoint.json").stat().st_size
        journal = (tmp_path / "ckpt" / JOURNAL_FILE).read_text().splitlines()
        assert len(journal) == 4
        assert store.bytes_written == base + sum(len(r) + 1 for r in journal)
        row = json.loads(journal[-1])
        assert (row["seq"], row["chronicle_rows"]) == (5, 10)
        assert {json.dumps(op["path"]): sorted(op) for op in row["ops"]} == {
            '["processed"]': ["path", "set"],
            '["monitor", "rates"]': ["path", "slide"],
            '["window"]': ["path", "slide"],
            '["clocks", "values"]': ["path", "set"],
        }
        assert len(journal[-1]) < base / 10
        _assert_holds(tmp_path / "ckpt", 5)

    def test_the_base_is_rewritten_before_the_journal_is_half_of_it(
        self, tmp_path
    ):
        directory = tmp_path / "ckpt"
        store, rewrites = CheckpointStore(directory), 0
        for n in range(1, 61):
            store.save(Document(_state(n)), _records(2 * n))
            rewrites += store.journal_rows == 0
            assert 2 * (directory / JOURNAL_FILE).stat().st_size <= (
                directory / "checkpoint.json"
            ).stat().st_size
        assert store.compactions == rewrites - 1 >= 2    # less the first base
        assert read_checkpoint(directory)["seq"] == 60
        _assert_holds(directory, 60)

    def test_a_component_that_comes_back_brings_nothing_stale(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        first = {"v": 1, "before": 2, "after": 5, "half_steps": 7}
        second = {"v": 1, "before": 5, "after": 3, "half_steps": 0}
        for n, move in enumerate((None, first, None, second), start=1):
            store.save(Document(_state(n, move)), [])
        assert store.journal_rows == 3
        doc, _ = CheckpointStore(tmp_path / "ckpt").load()
        assert doc["move"] == second

    def test_a_load_makes_the_next_save_a_base(self, tmp_path):
        _saved(tmp_path / "ckpt", 4)
        store = CheckpointStore(tmp_path / "ckpt")
        store.load()
        assert store.journal_rows == 3
        store.save(Document(_state(5)), _records(10))
        assert store.journal_rows == 0
        assert (tmp_path / "ckpt" / JOURNAL_FILE).read_bytes() == b""
        base = json.loads((tmp_path / "ckpt" / "checkpoint.json").read_text())
        assert base["seq"] == 5 and base["processed"] == 5
        store.save(Document(_state(6)), _records(12))
        assert store.journal_rows == 1
        _assert_holds(tmp_path / "ckpt", 6)


def _open_under(directory):
    """Files under ``directory`` this process holds open."""
    fds = pathlib.Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    found = []
    for fd in fds.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:                 # closed while we listed
            continue
        if target.startswith(str(directory.resolve()) + os.sep):
            found.append(target)
    return found


class TestLogHandles:
    def test_the_logs_stay_open_between_saves(self, tmp_path):
        store = _saved(tmp_path / "ckpt", 3)
        assert sorted(
            pathlib.Path(path).name for path in _open_under(tmp_path)
        ) == ["checkpoint.delta.jsonl", "chronicle.jsonl"]
        store.close()
        assert _open_under(tmp_path) == []
        store.save(Document(_state(4)), _records(8))      # reopens them
        store.close()
        _assert_holds(tmp_path / "ckpt", 4)

    def test_nothing_is_open_after_the_plane_drains(self, tmp_path):
        from repro.experiments.serve import _run_plane

        summary, _ = _run_plane(
            SERVE_SEED, SERVE_TRIGGER, None, 1,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert summary["checkpoint_saves"] > 0
        assert _open_under(tmp_path) == []

    def test_a_base_rewrite_truncates_through_the_open_handle(
        self, tmp_path
    ):
        directory = tmp_path / "ckpt"
        store = CheckpointStore(directory)
        for n in range(1, 61):
            before = store.compactions
            store.save(Document(_state(n)), _records(2 * n))
            if store.compactions > before:
                break
        else:
            pytest.fail("no base rewrite in 60 saves")
        assert (directory / JOURNAL_FILE).read_bytes() == b""
        store.save(Document(_state(n + 1)), _records(2 * n + 2))
        journal = (directory / JOURNAL_FILE).read_bytes()
        assert journal.startswith(b"{") and journal.count(b"\n") == 1
        assert json.loads(journal)["seq"] == n + 1
        _assert_holds(directory, n + 1)

    def test_after_load_trims_the_logs_the_next_save_lands_in_the_new_files(
        self, tmp_path
    ):
        directory = tmp_path / "ckpt"
        store = _saved(directory, 4)
        # What a crash in the middle of save 5 leaves behind.
        with (directory / "chronicle.jsonl").open("a") as handle:
            handle.write(json.dumps({"id": "lost"}) + "\n")
        with (directory / JOURNAL_FILE).open("ab") as handle:
            handle.write(b'{"chronicle_rows": 99, "ops"')
        kept = {
            name: os.stat(directory / name).st_ino
            for name in ("chronicle.jsonl", JOURNAL_FILE)
        }
        store.load()                    # the same store, logs open before
        for name, inode in kept.items():
            assert os.stat(directory / name).st_ino != inode, name
        store.save(Document(_state(5)), _records(10))     # a base: load's rule
        store.save(Document(_state(6)), _records(12))     # a journal row
        store.close()
        assert store.journal_rows == 1
        _assert_holds(directory, 6)


class TestJournalCrashPoints:
    def test_torn_at_every_byte_of_the_last_row(self, tmp_path):
        directory = tmp_path / "ckpt"
        _saved(directory, 4)
        journal = (directory / JOURNAL_FILE).read_bytes()
        last = len(journal.splitlines(keepends=True)[-1])
        for lost in range(last + 1):
            (directory / JOURNAL_FILE).write_bytes(
                journal[:len(journal) - lost]
            )
            # One byte short is a row without its newline: not complete.
            store = _assert_holds(directory, 4 if lost == 0 else 3)
            # Both logs are back to what that save acknowledged, so rows
            # the resumed run appends follow a complete row.
            kept = (store.directory / JOURNAL_FILE).read_bytes()
            assert kept == journal[:len(journal) - (last if lost else 0)]
            chronicle = (store.directory / "chronicle.jsonl").read_text()
            assert len(chronicle.splitlines()) == (8 if lost == 0 else 6)

    def test_a_torn_row_does_not_hide_the_rows_of_the_resumed_run(
        self, tmp_path
    ):
        directory = tmp_path / "ckpt"
        _saved(directory, 4)
        with (directory / JOURNAL_FILE).open("ab") as handle:
            handle.write(b'{"chronicle_rows": 10, "ops": [{"pa')
        store = CheckpointStore(directory)
        store.load()
        for n in (5, 6, 7):
            store.save(Document(_state(n)), _records(2 * n))
        assert store.journal_rows == 2
        _assert_holds(directory, 7)

    def test_killed_between_the_base_replace_and_the_journal_truncate(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "ckpt"
        store = _saved(directory, 4)
        grown = dict(_state(5), fit_series=[0.5] * 4000)    # outgrows it
        real = os.replace

        def replace_then_die(src, dst):
            real(src, dst)
            raise KeyboardInterrupt("kill -9")

        monkeypatch.setattr(os, "replace", replace_then_die)
        with pytest.raises(KeyboardInterrupt):
            store.save(Document(grown), _records(10))
        monkeypatch.undo()
        rows = (directory / JOURNAL_FILE).read_text().splitlines()
        assert [json.loads(row)["seq"] for row in rows] == [2, 3, 4]
        assert read_checkpoint(directory)["seq"] == 5
        resumed = CheckpointStore(directory)
        doc, records = resumed.load()
        assert json.dumps(doc, sort_keys=True) == _whole(grown, 5, 10)
        assert records == _records(10)
        assert (directory / JOURNAL_FILE).read_bytes() == b""

    def test_crash_resume_save_crash_resume(self, tmp_path):
        directory = tmp_path / "ckpt"
        _saved(directory, 3)
        for n in (4, 6):
            # The crash: chronicle rows of a save that never finished,
            # then half of its journal row.
            with (directory / "chronicle.jsonl").open("a") as handle:
                handle.write(json.dumps({"id": "lost"}) + "\n")
            with (directory / JOURNAL_FILE).open("ab") as handle:
                handle.write(b'{"chronicle_rows": 99, "ops"')
            store = _assert_holds(directory, n - 1)
            shutil.rmtree(directory)
            shutil.copytree(store.directory, directory)
            store = CheckpointStore(directory)
            store.load()
            store.save(Document(_state(n)), _records(2 * n))
            store.save(Document(_state(n + 1)), _records(2 * n + 2))
        _assert_holds(directory, 7)

    def test_replay_equals_the_document_after_every_save(
        self, tmp_path, monkeypatch
    ):
        """The drift scenario, moves starting, completing and aborting:
        after every save a load of the directory is that save's state."""
        from repro.experiments.serve import SERVE_DAYS, _run_plane

        real, seen = CheckpointStore.save, []

        def save_then_load(store, plane, records):
            real(store, plane, records)
            state = plane.state_dict()
            copy = tmp_path / "copy"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(store.directory, copy)
            doc, rows = CheckpointStore(copy).load()
            assert json.dumps(doc, sort_keys=True) == _whole(
                state, store.saves, len(records)
            ), store.saves
            assert rows == json.loads(json.dumps(records))
            seen.append((store.journal_rows, state["controller"]["move"]))

        monkeypatch.setattr(CheckpointStore, "save", save_then_load)
        summary, _ = _run_plane(
            SERVE_SEED, SERVE_TRIGGER, None, SERVE_DAYS,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert summary["checkpoint_saves"] == len(seen) == 144
        assert summary["checkpoint_compactions"] >= 1
        assert summary["checkpoint_journal_rows"] == seen[-1][0]
        assert sum(rows > 0 for rows, _ in seen) > len(seen) / 2
        # The move went None -> live -> None -> live at least twice over.
        flips = sum(
            (a is None) != (b is None)
            for (_, a), (_, b) in zip(seen, seen[1:])
        )
        assert flips >= 4


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
            second._alloc.move.migration.data_fractions(),
            first._alloc.move.migration.data_fractions(),
        )
        assert (
            second._alloc.move.migration.machines_allocated()
            == first._alloc.move.migration.machines_allocated()
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
    at_kill = {}

    def on_kill(plane):
        # Before the resumed run rewrites the directory.
        folded = read_checkpoint(plane.options.checkpoint_dir)
        for meta in ("schema", "seq", "chronicle_rows"):
            folded.pop(meta)
        at_kill.update(
            folded=folded,
            state=json.loads(json.dumps(plane.state_dict(), sort_keys=True)),
        )

    killed, resumed, merged = run_resume_scenario(
        SERVE_SEED, SERVE_TRIGGER, checkpoint_dir=ckpt, kill_after=90,
        on_kill=on_kill,
    )
    return {
        "baseline": baseline_summary,
        "baseline_chronicle": baseline_chronicle,
        "killed": killed,
        "resumed": resumed,
        "merged_chronicle": merged,
        "at_kill": at_kill,
    }


#: Summary counters a resumed run must share with the uninterrupted one.
CONVERGED_FIELDS = (
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
)


def _assert_summary_converges(resumed, baseline):
    for field in CONVERGED_FIELDS:
        assert resumed[field] == baseline[field], (
            f"{field}: baseline={baseline[field]} resumed={resumed[field]}"
        )


class TestKillThenResume:
    def test_crash_really_lost_the_tail(self, resume_runs):
        assert resume_runs["killed"]["intervals"] < resume_runs["baseline"]["intervals"]
        assert not resume_runs["killed"]["drained"]

    def test_resumed_run_flags_itself(self, resume_runs):
        assert resume_runs["resumed"]["resumed"] is True
        assert resume_runs["killed"]["resumed"] is False
        assert resume_runs["resumed"]["checkpoint_saves"] > 0

    def test_checkpoint_is_the_state_at_the_kill(self, resume_runs):
        """The last journal fold is the state the plane died in."""
        folded = resume_runs["at_kill"]["folded"]
        state = resume_runs["at_kill"]["state"]
        differ = sorted(
            key for key in folded.keys() | state.keys()
            if folded.get(key) != state.get(key)
        )
        assert not differ, f"fields that differ: {', '.join(differ)}"

    def test_summary_converges_to_uninterrupted_run(self, resume_runs):
        _assert_summary_converges(
            resume_runs["resumed"], resume_runs["baseline"]
        )

    def test_chronicle_tail_converges(self, resume_runs):
        base = chronicle_projection(resume_runs["baseline_chronicle"])
        merged = chronicle_projection(resume_runs["merged_chronicle"])
        assert merged == base

    def test_a_kill_during_warmup_converges_too(self, resume_runs, tmp_path):
        """Report 30: the learner is 19 observations short of its first
        fit, and the strategy the controller built up front has decided
        nothing yet — it is checkpointed fresh and restored fresh."""
        killed, resumed, merged = run_resume_scenario(
            SERVE_SEED, SERVE_TRIGGER, checkpoint_dir=tmp_path, kill_after=30
        )
        assert killed["mode"] == "warmup"
        assert killed["predictor_fitted"] is False
        baseline = resume_runs["baseline"]
        for field in ("intervals", "violations", "moves_started", "mode",
                      "trigger_fires", "steady_machines", "reports"):
            assert resumed[field] == baseline[field], field
        assert chronicle_projection(merged) == chronicle_projection(
            resume_runs["baseline_chronicle"]
        )

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

    def test_a_resume_that_forgets_its_clocks_fails_to_converge(
        self, resume_runs, tmp_path, monkeypatch
    ):
        """A broken copy: the restored depository arms no duplicate
        suppression, so the full-trace replay is counted again.  The
        convergence assertions above must catch it."""
        from repro.serve.depository import Depository

        monkeypatch.setattr(Depository, "_rebuild", Depository._rebuild_heap)
        _, resumed, merged = run_resume_scenario(
            SERVE_SEED, SERVE_TRIGGER, checkpoint_dir=tmp_path, kill_after=90
        )
        baseline = resume_runs["baseline"]
        with pytest.raises(AssertionError):
            _assert_summary_converges(resumed, baseline)
        assert resumed["reports"] != baseline["reports"]
        assert chronicle_projection(merged) != chronicle_projection(
            resume_runs["baseline_chronicle"]
        )


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
        store.save(
            Document({"v": 1, "interval_seconds": 300.0, "processed": 0}), []
        )
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

FIXTURES = pathlib.Path(__file__).parent / "data"
#: directory -> (schema on disk, where its document keeps the move)
PARENT_WRITTEN = {
    "serve-checkpoint-v1": ("pstore.serve-checkpoint/v1", "migration"),
    "serve-checkpoint-v2": ("pstore.serve-checkpoint/v2", "move"),
}


def _converges(resume_runs, ckpt):
    """Resume the drift scenario from ``ckpt``: it must land where the
    uninterrupted run does, and leave a v2 base with a journal."""
    from repro.experiments.serve import SERVE_DAYS, _run_plane

    saved_before = read_checkpoint(ckpt).get("seq", 0)
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
    after = read_checkpoint(ckpt)
    assert after["schema"] == CHECKPOINT_SCHEMA
    assert after["seq"] == saved_before + resumed["checkpoint_saves"]
    assert after["processed"] == baseline["intervals"]
    assert (ckpt / JOURNAL_FILE).exists()
    return after


class TestParentWrittenCheckpoint:
    """The v1 and v2 directories under ``tests/data`` were cut by the
    PR 15 and the PR 16 code at report 100 of the drift scenario, a move
    in flight: no journal, no ``seq``.  The warm-up one was cut by the
    PR 22 code at report 30, before the predictor's first fit, when that
    code had built no predictive strategy yet (recipes in their READMEs).
    Resuming one must land where the uninterrupted run does, and the next
    save rewrites it as a v2 base with a journal behind it."""

    def test_v1_fixture_resumes_and_converges(self, resume_runs, tmp_path):
        self.resume(resume_runs, tmp_path, "serve-checkpoint-v1")

    def test_v2_fixture_resumes_and_converges(self, resume_runs, tmp_path):
        self.resume(resume_runs, tmp_path, "serve-checkpoint-v2")

    def test_warmup_fixture_resumes_into_the_strategy_built_up_front(
        self, resume_runs, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FIXTURES / "serve-checkpoint-warmup", ckpt)
        before = read_checkpoint(ckpt)
        assert before["processed"] == 29
        assert before["controller"]["mode"] == "warmup"
        assert before["controller"]["strategy"] is None
        assert before["predictor"]["fit_window"] is None
        after = _converges(resume_runs, ckpt)
        assert after["controller"]["strategy"] is not None

    def test_one_item_slides_written_by_the_parent_still_patch(
        self, resume_runs, tmp_path
    ):
        """``tests/data/serve-checkpoint-journal``: the base at save 96
        and three rows an earlier store wrote, every slide ``[k, item]``."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FIXTURES / "serve-checkpoint-journal", ckpt)
        rows = [
            json.loads(line)
            for line in (ckpt / JOURNAL_FILE).read_text().splitlines()
        ]
        slides = [op["slide"] for row in rows for op in row["ops"]
                  if "slide" in op]
        assert [row["seq"] for row in rows] == [97, 98, 99]
        assert slides and {len(slide) for slide in slides} == {2}
        assert read_checkpoint(ckpt)["processed"] == 99
        _converges(resume_runs, ckpt)

    def resume(self, resume_runs, tmp_path, fixture):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FIXTURES / fixture, ckpt)   # load trims in place
        schema, move = PARENT_WRITTEN[fixture]
        before = json.loads((ckpt / "checkpoint.json").read_text())
        assert before["schema"] == schema and "seq" not in before
        assert before["controller"][move] is not None
        assert read_checkpoint(ckpt)["processed"] == 99
        _converges(resume_runs, ckpt)


class TestARefitIsJournalledAsASlide:
    def test_the_refit_row_slides_the_fit_window_and_resumes(
        self, resume_runs, tmp_path
    ):
        """The drift scenario refits at interval 74 (report 75); killed
        one report later, that save is a journal row whose
        ``fit_window`` op appends the new observations, not the whole
        window."""
        from repro.experiments.serve import SERVE_DAYS, _run_plane

        ckpt = tmp_path / "ckpt"
        _run_plane(
            SERVE_SEED, SERVE_TRIGGER, None, SERVE_DAYS,
            checkpoint_dir=str(ckpt), kill_after=76,
        )
        rows = [
            json.loads(line)
            for line in (ckpt / JOURNAL_FILE).read_text().splitlines()
        ]
        refits = [
            op for row in rows for op in row["ops"]
            if op["path"] == ["predictor", "fit_window"]
        ]
        assert len(refits) == 1 and "set" not in refits[0]
        drop, *added = refits[0]["slide"]
        doc = read_checkpoint(ckpt)
        window = doc["predictor"]["fit_window"]
        assert 1 < len(added) < len(window)
        assert window[-len(added):] == added
        _converges(resume_runs, tmp_path / "ckpt")


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
    """Damage to the document: written back as a base with no journal
    behind it, or the journal's rows would write over the damage."""
    def apply(ckpt):
        doc = read_checkpoint(ckpt)
        mutate(doc)
        (ckpt / "checkpoint.json").write_text(json.dumps(doc, sort_keys=True))
        (ckpt / JOURNAL_FILE).write_text("")
    return apply


def _edit_journal(mutate):
    """Damage to the journal: ``mutate`` gets its rows, decoded — three
    of them, which the store writes here itself, since how many the run
    left behind depends on where its last compaction fell."""
    def apply(ckpt):
        store = CheckpointStore(ckpt)
        doc, records = store.load()
        for extra in range(4):                  # a base, then three rows
            doc = dict(doc, processed=doc["processed"] + extra)
            store.save(Document(doc), records)
        path = ckpt / JOURNAL_FILE
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 3
        mutate(rows)
        path.write_text("".join(
            row if type(row) is str else json.dumps(row, sort_keys=True) + "\n"
            for row in rows
        ))
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
    "accuracy-pair-not-numbers": (
        _edit(lambda doc: doc["accuracy"]["windows"]["values"][0].append(
            [1.0, None, "x"]
        )),
        "accuracy.windows: a pair is not [predicted, inflated or null, "
        "actual] numbers",
    ),
    "other-predictor": (
        _edit(lambda doc: doc["predictor"].update(base_type="SparPredictor")),
        "predictor.base_type: checkpointed 'SparPredictor'",
    ),
    "short-chronicle": (_drop_chronicle_rows, "chronicle rows but only 5"),
    "journal-path-into-a-scalar": (
        _edit_journal(lambda rows: rows[1]["ops"].append(
            {"path": ["processed", "closed"], "set": 1}
        )),
        "checkpoint.delta.jsonl row 2: path ['processed', 'closed'] leads "
        "nowhere: int has no 'closed'",
    ),
    "journal-slide-longer-than-its-list": (
        _edit_journal(lambda rows: rows[2]["ops"].append(
            {"path": ["monitor", "rates"], "slide": [10_000, 1.0]}
        )),
        "checkpoint.delta.jsonl row 3: slide of 10000 at "
        "['monitor', 'rates']: no list that long there",
    ),
    "journal-slide-without-an-item": (
        _edit_journal(lambda rows: rows[2]["ops"].append(
            {"path": ["monitor", "rates"], "slide": [3]}
        )),
        "checkpoint.delta.jsonl row 3: slide [3] at ['monitor', 'rates']: "
        "not a count to drop and the items to append",
    ),
    "journal-slide-not-a-list": (
        _edit_journal(lambda rows: rows[2]["ops"].append(
            {"path": ["monitor", "rates"], "slide": 5}
        )),
        "checkpoint.delta.jsonl row 3: slide 5 at ['monitor', 'rates']: "
        "not a count to drop and the items to append",
    ),
    "journal-seq-gap": (
        _edit_journal(lambda rows: rows.pop(1)),
        "checkpoint.delta.jsonl row 2: seq ",
    ),
    "journal-not-json-in-the-middle": (
        _edit_journal(lambda rows: rows.insert(1, "PK\x03\x04\n")),
        "checkpoint.delta.jsonl row 2: Expecting value",
    ),
    "journal-row-without-ops": (
        _edit_journal(lambda rows: rows[0].pop("ops")),
        "checkpoint.delta.jsonl row 1: no 'ops' in it",
    ),
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
