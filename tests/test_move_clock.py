"""One move clock for both tick-level hosts.

``ElasticDbSimulator`` and ``ClusterMigrator`` spend a move's time by
the same rule, ``Allocation.next_slice``: a stall wedges every transfer,
a re-send included; else a slice pays off owed re-sends, then moves the
current round.  The simulator takes whole seconds of a slice at once and
its last second slice by slice; the migrator takes every slice as it
comes.  So a matched move — same schedule, rate, faults and retry-jitter
seed, its data moving from the same instant — keeps one timeline on both
hosts, to the simulator's one-second grain.

The simulator moves a move's data from the tick that closes the planner
interval, ``t0``, and stamps ``migration.start`` (and fires the
injector's ``on_migration`` faults) at ``t0 + 1``; the matched migrator
starts at ``t0`` and takes those faults as timed at ``t0 + 1``.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import default_config
from repro.decision import ScaleDecision
from repro.elasticity.manual import ManualStrategy
from repro.faults import FaultInjector, FaultSpec
from repro.hstore import Cluster, Column, Schema, Table
from repro.sim import ElasticDbSimulator, simulator
from repro.squall import ClusterMigrator
from repro.squall.migrator import Allocation
from repro.telemetry import Telemetry

from .test_block_control import N_SCENARIOS, SECONDS, _scenario

#: The move-clock records both hosts write: a move's ends and the
#: lifecycle of the faults that touch its transfers.
TIMELINE = (
    "migration.start", "migration.complete", "fault.injected",
    "fault.detected", "fault.retry", "fault.recovered",
)
MOVE_FAULTS = (None, "migration_stall", "transfer_corruption")


def _cluster(nodes: int) -> Cluster:
    schema = Schema([Table(
        "kv", [Column("k", "str"), Column("v", "int", nullable=True)],
        primary_key="k",
    )])
    cluster = Cluster(schema, nodes, default_config().partitions_per_node, 480)
    for i in range(960):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _config(cluster: Cluster):
    """The default model with the cluster's size as the database's, so
    both hosts' rounds take the same time."""
    return dataclasses.replace(default_config(), database_kb=cluster.total_data_kb)


@pytest.fixture
def arrivals(monkeypatch):
    """The instants clean copies of rounds arrive at, on any host: every
    one goes through ``Allocation.spend``'s ``commit``."""
    landed = []
    spend = Allocation.spend

    def recording(self, now, until, commit=None):
        def record(round_, time):
            landed.append(time)
            if commit is not None:
                commit(round_, time)
        return spend(self, now, until, record)

    monkeypatch.setattr(Allocation, "spend", recording)
    return landed


def _simulate(config, specs, strategy, offered, seed, initial):
    telemetry = Telemetry()
    injector = FaultInjector(specs, seed=seed, telemetry=telemetry)
    sim = ElasticDbSimulator(
        config, max_machines=8, initial_machines=initial, seed=11,
        injector=injector, telemetry=telemetry,
    )
    sim.run(offered, strategy)
    return telemetry.chronicle.records, injector


def _migrate(config, cluster, specs, moves, seed, horizon):
    """Each of the simulator's ``moves`` (its ``migration.start``
    records) on ``cluster``, its data from the same instant, under
    ``specs``; a move runs until it completes or the next one starts."""
    telemetry = Telemetry()
    injector = FaultInjector(specs, seed=seed, telemetry=telemetry)
    migrator = ClusterMigrator(cluster, config, telemetry=telemetry, injector=injector)
    starts = [move["time"] - 1.0 for move in moves] + [horizon]
    for move, until in zip(moves, starts[1:]):
        assert cluster.n_nodes == move["before"]
        # The migrator's clock only runs inside a move; between moves it
        # is set to where the simulator's next move moves data from.
        migrator._sim_time = move["time"] - 1.0
        migrator.start_move(move["after"], ScaleDecision(
            target_machines=move["after"],
            rate_multiplier=move["rate_kbps"] / config.migration_rate_kbps,
        ))
        migrator.advance(until - migrator.sim_time)
    # The simulator fires faults up to its last second's start.
    injector.advance(horizon - 1.0)
    return telemetry.chronicle.records


def _timeline(records, shift=0.0):
    """The records of the move clock at the simulator's one-second grain
    — each instant as the second it falls in, labelled by its end — in
    time order."""
    out = []
    for rec in records:
        if rec["kind"] not in TIMELINE or rec.get("fault_kind") not in MOVE_FAULTS:
            continue
        time = rec["time"] + (shift if rec["kind"] == "migration.start" else 0.0)
        out.append((
            math.ceil(time - 1e-9), rec["kind"], rec.get("fault_kind"),
            rec.get("attempt"), rec.get("before"), rec.get("after"),
        ))
    return sorted(out, key=lambda row: (row[0], repr(row)))


def _matched(sim_injector, specs):
    """``specs`` with each move-start fault timed where the simulator
    fired it."""
    fired = {
        id(record.spec): record.injected_at for record in sim_injector.records
    }
    timed = [spec for spec in specs if spec.on_migration is None]
    timed += [
        dataclasses.replace(spec, on_migration=None, at_time=fired[id(spec)])
        for spec in specs
        if spec.on_migration is not None and id(spec) in fired
    ]
    return timed


class TestStallDuringALastRoundResend:
    """A corruption lands on a 4 -> 8 move's last round, and a 100 s
    stall starts while the round is being re-sent: the re-send is
    wedged too, on both hosts."""

    SPECS = [
        FaultSpec(kind="transfer_corruption", at_time=131.0),
        FaultSpec(kind="migration_stall", at_time=133.0, duration_seconds=100.0),
    ]

    def _check(self, records, completed_second):
        kinds = [(r["kind"], r.get("fault_kind")) for r in records]
        stall = [r for r in records if r.get("fault_kind") == "migration_stall"]
        detected = [r["time"] for r in stall if r["kind"] == "fault.detected"]
        retries = [r["time"] for r in stall if r["kind"] == "fault.retry"]
        recovered = [r["time"] for r in stall if r["kind"] == "fault.recovered"]
        complete = [r["time"] for r in records if r["kind"] == "migration.complete"]
        assert detected == [133.0 + 30.0]
        assert len(retries) == 5 and retries[0] == 163.0
        assert recovered == [233.0]
        assert len(complete) == 1 and complete[0] > recovered[0]
        assert math.ceil(complete[0] - 1e-9) == completed_second
        assert ("fault.recovered", "transfer_corruption") in kinds

    def test_the_simulator_waits_the_stall_out(self):
        config = _config(_cluster(4))
        records, _ = _simulate(
            config, self.SPECS, ManualStrategy([(1, 8, 8.0)]),
            np.full(300, 2.0 * config.q), seed=0, initial=4,
        )
        assert [r["time"] for r in records if r["kind"] == "migration.start"] == [120.0]
        self._check(records, 237)

    def test_the_migrator_waits_the_stall_out(self):
        cluster = _cluster(4)
        config = _config(cluster)
        move = {"time": 120.0, "before": 4, "after": 8,
                "rate_kbps": 8.0 * config.migration_rate_kbps}
        records = _migrate(config, cluster, self.SPECS, [move], 0, 300.0)
        self._check(records, 237)


def _cross_host(seed, arrivals):
    specs, strategy, offered = _scenario(seed)
    # A crash ends a move by the host's abort, which the row-level host
    # leaves to its caller; every other fault shape stays.
    specs = [spec for spec in specs if spec.kind != "node_crash"]
    cluster = _cluster(3)
    config = _config(cluster)
    sim_records, sim_injector = _simulate(config, specs, strategy(), offered, seed, 3)
    sim_arrivals = list(arrivals)
    arrivals.clear()
    moves = [r for r in sim_records if r["kind"] == "migration.start"]
    migrator_records = _migrate(
        config, cluster, _matched(sim_injector, specs), moves, seed,
        float(SECONDS),
    )
    return sim_records, sim_arrivals, migrator_records, list(arrivals)


class TestCrossHost:
    """``test_block_control``'s fault schedules through both hosts."""

    @staticmethod
    def _assert_one_timeline(seed, arrivals):
        sim, sim_rounds, migrator, migrator_rounds = _cross_host(seed, arrivals)
        assert any(r["kind"] == "migration.start" for r in sim)
        assert _timeline(migrator, shift=1.0) == _timeline(sim)
        assert [math.ceil(t - 1e-9) for t in migrator_rounds] == [
            math.ceil(t - 1e-9) for t in sim_rounds
        ]

    @pytest.mark.parametrize("seed", range(N_SCENARIOS))
    def test_one_timeline(self, seed, arrivals):
        self._assert_one_timeline(seed, arrivals)

    def test_a_simulator_that_lets_a_stall_pass_a_done_move_fails(
        self, arrivals, monkeypatch
    ):
        """A broken copy: the simulator alone ignores a stall once every
        round has landed, re-sending through it.  Scenario 8 puts a
        stall on a last-round re-send."""

        class Guarded(Allocation):
            def next_slice(self, now, limit):
                end, stall = super().next_slice(now, limit)
                move = self.move
                if stall is None or move is None or not move.migration.done:
                    return end, stall
                return min(end, now + max(move.resend_seconds, 1e-9)), None

        monkeypatch.setattr(simulator, "Allocation", Guarded)
        with pytest.raises(AssertionError):
            self._assert_one_timeline(8, arrivals)
