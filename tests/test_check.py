"""Tests for the correctness harness: invariants, differential, lint."""

import numpy as np
import pytest

from repro.check import differential, invariants
from repro.check import lint as lint_mod
from repro.errors import InvariantViolation, SimulationError
from repro.telemetry import Telemetry, telemetry_scope


class TestCheckLevels:
    def test_cheap_tier_is_the_default(self):
        assert invariants.check_level() == invariants.CHEAP
        assert invariants.enabled(invariants.CHEAP)
        assert not invariants.enabled(invariants.EXPENSIVE)

    def test_set_check_level_returns_previous(self):
        previous = invariants.set_check_level("expensive")
        try:
            assert previous == invariants.CHEAP
            assert invariants.enabled(invariants.EXPENSIVE)
        finally:
            invariants.set_check_level(previous)

    def test_check_scope_restores_on_exit_and_error(self):
        before = invariants.check_level()
        with invariants.check_scope("off"):
            assert not invariants.enabled(invariants.CHEAP)
        assert invariants.check_level() == before
        with pytest.raises(RuntimeError):
            with invariants.check_scope(invariants.EXPENSIVE):
                raise RuntimeError("boom")
        assert invariants.check_level() == before

    def test_unknown_level_rejected(self):
        with pytest.raises(InvariantViolation):
            invariants.set_check_level("paranoid")
        with pytest.raises(InvariantViolation):
            invariants.set_check_level(7)


class TestInvariantChecks:
    def test_fraction_conservation(self):
        invariants.check_fraction_conservation(
            np.array([0.5, 0.25, 0.25]), "test"
        )
        with pytest.raises(InvariantViolation, match="test"):
            invariants.check_fraction_conservation(
                np.array([0.5, 0.25, 0.30]), "test"
            )

    def test_nonnegative_backlog(self):
        invariants.check_nonnegative_backlog(np.zeros(4), "test")
        with pytest.raises(InvariantViolation, match="negative"):
            invariants.check_nonnegative_backlog(
                np.array([1.0, -0.5]), "test"
            )

    def test_monotone_clock(self):
        clock = invariants.MonotoneClock("test", start=0.0)
        clock.observe(1.0)
        clock.observe(1.0)  # equal is fine
        with pytest.raises(InvariantViolation, match="test"):
            clock.observe(0.5)

    def test_time_accounting(self):
        invariants.check_time_accounting(100.0, 100.0 + 1e-9, "test")
        with pytest.raises(InvariantViolation):
            invariants.check_time_accounting(90.0, 100.0, "test")

    def test_row_conservation_catches_lost_rows(self):
        cluster = differential._migration_cluster(nodes=2, rows=200)
        baseline = invariants.snapshot_row_counts(cluster)
        invariants.check_row_conservation(cluster, baseline, "test")
        pid = cluster.partition_ids[0]
        victim = cluster.partition(pid)
        keys = [f"key-{i}" for i in range(200)
                if cluster.route(f"key-{i}") is victim][:5]
        victim.extract_rows("kv", keys)
        with pytest.raises(InvariantViolation, match="row counts changed"):
            invariants.check_row_conservation(cluster, baseline, "test")

    def test_violation_emits_telemetry_event(self):
        tel = Telemetry()
        with telemetry_scope(tel):
            with pytest.raises(InvariantViolation):
                invariants.violated(
                    "test.inv", "something drifted", time=12.0, delta=0.5
                )
        records = tel.chronicle.by_kind("invariant.violation")
        assert len(records) == 1
        assert records[0]["time"] == 12.0
        assert records[0]["name"] == "test.inv"
        assert records[0]["message"] == "something drifted"
        assert records[0]["delta"] == 0.5
        assert tel.metrics.counter("check.invariant_violations").value == 1


class TestDifferentialSuites:
    def test_migration_suite_passes(self):
        report = differential.diff_migration_accounting()
        assert report.ok, report.describe()
        names = [c.name for c in report.checks]
        assert "migration.fluid-vs-buckets" in names
        assert "migration.rows-conserved" in names

    def test_dropped_bucket_caught_at_expensive_tier(self):
        # The migrator's own finish-time bucket-map check fires first.
        tel = Telemetry()
        with telemetry_scope(tel), invariants.check_scope("expensive"):
            report = differential.diff_migration_accounting(drop_bucket=True)
        assert not report.ok
        assert [c.name for c in report.failures] == ["migration.invariant"]
        assert len(tel.chronicle.by_kind("invariant.violation")) == 1

    def test_dropped_bucket_caught_at_cheap_tier(self):
        # Without the O(rows) tier, the suite's own end-to-end row
        # conservation comparison still catches the loss.
        tel = Telemetry()
        with telemetry_scope(tel), invariants.check_scope("cheap"):
            report = differential.diff_migration_accounting(drop_bucket=True)
        assert not report.ok
        names = [c.name for c in report.failures]
        assert "migration.rows-conserved" in names, report.describe()
        # Each failed check is one check.divergence record carrying its
        # name, delta, tolerance and detail.
        records = {
            r["name"]: r for r in tel.chronicle.by_kind("check.divergence")
        }
        assert sorted(records) == sorted(names)
        lost = records["migration.rows-conserved"]
        assert lost["delta"] > lost["tolerance"] == 0.0
        assert lost["detail"] == "3000 rows"

    def test_run_suite_rejects_unknown_names(self):
        with pytest.raises(SimulationError, match="unknown differential"):
            differential.run_suite(suites=("bogus",))
        with pytest.raises(SimulationError, match="unknown"):
            differential.run_suite(suites=("migration",), inject="bogus")

    def test_report_describe_marks_failures(self):
        report = differential.CheckReport(
            checks=[
                differential.DiffCheck("a", 0.0, 1.0, True),
                differential.DiffCheck("b", 2.0, 1.0, False, "oops"),
            ]
        )
        text = report.describe()
        assert "ok " in text and "FAIL" in text and "oops" in text
        assert [c.name for c in report.failures] == ["b"]


class TestLint:
    def test_repro_package_is_clean(self):
        assert lint_mod.lint_package() == []

    def test_bare_random_flagged(self):
        issues = lint_mod.lint_source("import random\n", "x.py")
        assert [i.code for i in issues] == [lint_mod.CODE_RANDOM]
        issues = lint_mod.lint_source("from random import choice\n", "x.py")
        assert [i.code for i in issues] == [lint_mod.CODE_RANDOM]

    def test_wall_clock_calls_flagged(self):
        src = (
            "import time\n"
            "import datetime\n"
            "a = time.time()\n"
            "b = datetime.datetime.now()\n"
        )
        issues = lint_mod.lint_source(src, "x.py")
        assert [i.code for i in issues] == [lint_mod.CODE_WALL_CLOCK] * 2
        assert [i.line for i in issues] == [3, 4]

    def test_from_time_import_flagged(self):
        issues = lint_mod.lint_source(
            "from time import monotonic\n", "x.py"
        )
        assert [i.code for i in issues] == [lint_mod.CODE_WALL_CLOCK]
        # sleep is not a clock read; importing it is fine.
        assert lint_mod.lint_source("from time import sleep\n", "x.py") == []

    def test_pragma_suppresses(self):
        src = "import time\nt = time.time()  # lint: wall-clock-ok\n"
        assert lint_mod.lint_source(src, "x.py") == []

    def test_allowlisted_file_skipped(self):
        src = "import time\nt = time.time()\n"
        assert lint_mod.lint_source(src, "telemetry/tracing.py") == []

    def test_syntax_error_reported_not_raised(self):
        issues = lint_mod.lint_source("def broken(:\n", "x.py")
        assert len(issues) == 1
        assert issues[0].code == "CHK000"


class TestCheckCli:
    def test_check_passes_on_migration_suite(self, capsys):
        from repro.cli import main

        code = main(["check", "--suite", "migration", "--skip-lint"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_injected_corruption_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main(
            ["check", "--suite", "migration", "--skip-lint",
             "--inject", "drop-bucket"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_divergence_lands_in_exported_event_log(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "tel"
        code = main(
            ["check", "--suite", "migration", "--skip-lint",
             "--inject", "drop-bucket", "--telemetry-out", str(out)]
        )
        assert code == 1
        assert not (out / "events.jsonl").exists()
        chronicle = (out / "chronicle.jsonl").read_text()
        assert "invariant.violation" in chronicle
