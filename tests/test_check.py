"""Tests for the correctness harness: invariants, the migration
differential, lint."""

from typing import Dict

import numpy as np
import pytest

from repro.check import invariants
from repro.config import default_config
from repro.errors import InvariantViolation
from repro.hstore import Cluster, Column, Schema, Table
from repro.squall.migrator import ClusterMigrator
from repro.telemetry import Telemetry, telemetry_scope

from . import lint as lint_mod

#: Absolute tolerance between fluid migration fractions and committed
#: bucket fractions at round commits: bucket granularity (1/buckets)
#: times the worst per-node bucket imbalance seen in a balanced plan.
MIGRATION_FRACTION_TOL = 0.05
#: The migration differential scales its 3-node cluster out to this.
MIGRATION_TARGET_NODES = 5


def _migration_cluster(nodes: int = 3, ppn: int = 2, buckets: int = 120,
                       rows: int = 3000) -> Cluster:
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(schema, nodes, ppn, buckets)
    for i in range(rows):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


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
        cluster = _migration_cluster(nodes=2, rows=200)
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


def _drop_one_bucket(cluster: Cluster, migrator: ClusterMigrator) -> None:
    """Corrupt the migration: silently discard the rows of one bucket
    that is scheduled to move, between advances, the way a buggy
    transfer would lose them (the bucket index keeps the keys)."""
    for moves in migrator._pair_buckets.values():
        for move in moves:
            owner = cluster.partition(cluster.plan.owner(move.bucket))
            keys = set(cluster._bucket_keys[move.bucket]["kv"])
            if keys:
                owner.extract_rows("kv", keys)
                return
    raise AssertionError("no scheduled bucket with rows to drop")


def _scale_out(drop_bucket: bool = False):
    """Scale the row-level cluster out one round at a time.  Returns the
    cluster, its row counts before the move, and the worst gap at any
    round commit between the fluid model's per-node data fractions and
    the bucket map's."""
    cluster = _migration_cluster()
    migrator = ClusterMigrator(cluster, default_config())
    baseline = invariants.snapshot_row_counts(cluster)
    migrator.start_move(MIGRATION_TARGET_NODES)
    active = migrator.active
    node_map = dict(active.node_map or {})
    worst = 0.0
    commits = 0
    while migrator.migrating:
        migrator.advance(active.round_seconds)
        commits += 1
        if drop_bucket and commits == 1:
            _drop_one_bucket(cluster, migrator)
        if migrator.migrating:
            fluid: Dict[int, float] = {}
            for logical, fraction in enumerate(active.data_fractions()):
                fluid[node_map.get(logical, logical)] = float(fraction)
            committed = cluster.bucket_fractions_by_node()
            gap = max(
                abs(fluid.get(node, 0.0) - committed.get(node, 0.0))
                for node in set(fluid) | set(committed)
            )
            worst = max(worst, gap)
    return cluster, baseline, worst


def _assert_rows_conserved(cluster: Cluster, baseline) -> None:
    final = invariants.snapshot_row_counts(cluster)
    lost = sum(abs(final[t] - baseline[t]) for t in baseline)
    assert lost == 0, f"{lost} of {sum(baseline.values())} rows changed"


@pytest.fixture(scope="module")
def scaled_out():
    """One clean 3 -> 5 scale-out, with every expensive invariant on."""
    with invariants.check_scope(invariants.EXPENSIVE):
        return _scale_out()


class TestDifferentialSuites:
    """The migration differential: a row-level scale-out checked against
    its own fluid model at every round commit, where the fluid fractions
    describe whole committed transfers, so the gap is bucket granularity
    plus plan imbalance."""

    def test_migration_suite_passes(self, scaled_out):
        cluster, _, worst = scaled_out
        assert cluster.n_nodes == MIGRATION_TARGET_NODES
        assert worst <= MIGRATION_FRACTION_TOL, (
            f"fluid-vs-buckets delta {worst:.3e} "
            f"(tol {MIGRATION_FRACTION_TOL:.3e})"
        )

    def test_rows_conserved(self, scaled_out):
        cluster, baseline, _ = scaled_out
        _assert_rows_conserved(cluster, baseline)

    def test_bucket_map_agrees_after_the_move(self, scaled_out):
        cluster, _, _ = scaled_out
        invariants.check_bucket_map_agreement(cluster, "test")

    def test_dropped_bucket_caught_at_expensive_tier(self):
        # The migrator's own finish-time bucket-map check fires.
        tel = Telemetry()
        with telemetry_scope(tel), invariants.check_scope("expensive"):
            with pytest.raises(InvariantViolation):
                _scale_out(drop_bucket=True)
        assert len(tel.chronicle.by_kind("invariant.violation")) == 1

    def test_dropped_bucket_caught_at_cheap_tier(self):
        # Without the O(rows) tier the move completes, and the
        # end-to-end row conservation assertion catches the loss.
        with invariants.check_scope("cheap"):
            cluster, baseline, _ = _scale_out(drop_bucket=True)
        with pytest.raises(AssertionError, match="of 3000 rows changed"):
            _assert_rows_conserved(cluster, baseline)


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
