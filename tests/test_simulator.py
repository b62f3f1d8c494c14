"""Tests for the full second-granularity elastic DBMS simulator."""

import numpy as np
import pytest

from repro.config import default_config
from repro.elasticity import NO_ACTION, ScaleDecision, StaticStrategy
from repro.elasticity.base import ProvisioningStrategy
from repro.elasticity.manual import ManualStrategy
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultSpec
from repro.sim import ElasticDbSimulator
from repro.telemetry import Telemetry

CFG = default_config()  # 60 s planner interval
QUIET = dict(skew_sigma=0.0, hot_episode_rate=0.0)


def simulator(**kwargs):
    defaults = dict(config=CFG, max_machines=6, initial_machines=2, seed=3)
    defaults.update(kwargs)
    return ElasticDbSimulator(**defaults)


class AskOnce(ProvisioningStrategy):
    """Asks for ``target`` machines at the second planning boundary."""

    name = "ask-once"
    RECORD_ID = "pd-test-00000"

    def __init__(self, target):
        self.target = target

    def decide(self, slot, history_tps, current_machines):
        if slot != 1:
            return NO_ACTION
        return ScaleDecision(
            target_machines=self.target, record_id=self.RECORD_ID
        )


class TestStaticRun:
    def test_underloaded_run_is_clean(self):
        sim = simulator(engine_kwargs=QUIET)
        offered = np.full(300, CFG.q * 2 * 0.5)
        result = sim.run(offered, StaticStrategy(2))
        assert result.sla_violations() == {50.0: 0, 95.0: 0, 99.0: 0}
        assert result.average_machines == 2.0
        assert result.moves_started == 0

    def test_overload_violates_sla(self):
        sim = simulator(engine_kwargs=QUIET)
        offered = np.full(300, CFG.q_hat * 2 * 1.4)
        result = sim.run(offered, StaticStrategy(2))
        assert result.sla_violations()[99.0] > 100

    def test_throughput_tracks_offered_below_saturation(self):
        sim = simulator(engine_kwargs=QUIET)
        offered = np.full(120, 300.0)
        result = sim.run(offered, StaticStrategy(2))
        assert result.completed_tps.mean() == pytest.approx(300.0, rel=0.05)

    def test_deterministic(self):
        offered = np.full(120, 400.0)
        a = simulator().run(offered, StaticStrategy(2))
        b = simulator().run(offered, StaticStrategy(2))
        assert np.array_equal(a.latency.series(99.0), b.latency.series(99.0))


class TestScaling:
    def test_manual_scale_out_increases_capacity(self):
        """Scaling 2 -> 4 under a load that saturates 2 machines must
        cut tail latency dramatically."""
        offered = np.full(1800, CFG.q_hat * 2 * 1.1)
        stay = simulator(engine_kwargs=QUIET).run(offered, StaticStrategy(2))
        # Scale at the first planning slot; migration takes ~6 min.
        grow = simulator(engine_kwargs=QUIET).run(
            offered, ManualStrategy([(1, 4)])
        )
        assert grow.machines[-1] == 4
        tail = slice(1200, 1800)  # after migration completes
        assert (
            grow.latency.series(99.0)[tail].mean()
            < 0.3 * stay.latency.series(99.0)[tail].mean()
        )

    def test_migration_interference_visible(self):
        """During the move, p99 should rise above the quiescent level
        (the Fig. 9c mechanism)."""
        offered = np.full(1200, CFG.q * 2 * 0.95)
        sim = simulator(engine_kwargs=QUIET, chunk_kb=8000.0)
        result = sim.run(offered, ManualStrategy([(1, 3, 8.0)]))
        migrating = result.migrating
        assert migrating.any()
        p99 = result.latency.series(99.0)
        assert p99[migrating].mean() > 1.5 * p99[~migrating][-300:].mean()

    def test_scale_in_retires_machines(self):
        offered = np.full(1200, CFG.q * 0.8)
        sim = simulator(engine_kwargs=QUIET)
        result = sim.run(offered, ManualStrategy([(1, 1)]))
        assert result.machines[-1] == 1
        assert result.moves_started == 1

    def test_machines_allocated_during_move_between_sizes(self):
        offered = np.full(1500, CFG.q * 0.5)
        sim = simulator(engine_kwargs=QUIET)
        result = sim.run(offered, ManualStrategy([(1, 6)]))
        during = result.machines[result.migrating]
        assert during.size > 0
        assert during.min() >= 2
        assert during.max() <= 6


def drive_with_shares(sim, offered, strategy):
    """``sim.run`` by hand, keeping every second's load shares."""
    gen, rows, block = sim.drive(offered, strategy), [], None
    while True:
        try:
            request = gen.send(block)
        except StopIteration as stop:
            return stop.value, np.vstack(rows)
        rows.append(request.shares)
        block = sim.engine.step_block(
            1.0, request.offered, request.shares,
            request.interference, request.capacity,
        )


class TestCrashMidMove:
    """A crash aborts the move in flight at its last committed round:
    only the machines that hold committed data stay active, and the next
    second's load is spread over them (less the victim).

    2 -> 6 and 6 -> 2 both take four ~65 s rounds from t=120; at t=280
    two have committed and the third is half done."""

    CRASH_AT = 280

    def crash(self, initial, target, victim):
        tel = Telemetry()
        injector = FaultInjector(
            [FaultSpec(kind="node_crash", at_time=float(self.CRASH_AT),
                       node=victim)],
            telemetry=tel,
        )
        sim = simulator(initial_machines=initial, engine_kwargs=QUIET,
                        telemetry=tel, injector=injector)
        result, shares = drive_with_shares(
            sim, np.full(420, CFG.q * 0.5), ManualStrategy([(1, target)])
        )
        (aborted,) = tel.chronicle.by_kind("migration.aborted")
        assert aborted["time"] == self.CRASH_AT
        assert 0.0 < aborted["rolled_back_fraction"] < 1.0
        p = CFG.partitions_per_node
        after = shares[self.CRASH_AT].reshape(-1, p).sum(axis=1)
        return result, after

    @pytest.mark.parametrize(
        "victim, survivors",
        [(3, [0, 1, 2]), (5, [0, 1, 2, 3])],
        ids=["holds-data", "still-empty"],
    )
    def test_scale_out_keeps_only_newcomers_that_received_a_round(
        self, victim, survivors
    ):
        result, after = self.crash(2, 6, victim)
        # Machines 2 and 3 were filled by the committed rounds; 4 and 5
        # were half way through theirs and go back to the pool.
        assert np.flatnonzero(after).tolist() == survivors
        assert np.allclose(after[survivors], 1.0 / len(survivors))
        assert result.machines[self.CRASH_AT - 1] == 6
        assert (result.machines[self.CRASH_AT:] == len(survivors)).all()
        assert not result.migrating[self.CRASH_AT:].any()

    def test_scale_in_drops_the_machines_already_drained(self):
        result, after = self.crash(6, 2, 0)
        # 5 and 4 were drained by the committed rounds; 3 and 2 were half
        # way out and still hold their data.
        assert np.flatnonzero(after).tolist() == [1, 2, 3]
        assert np.allclose(after[[1, 2, 3]], 1.0 / 3)
        assert (result.machines[self.CRASH_AT:] == 3).all()


class TestValidation:
    def test_empty_load_rejected(self):
        with pytest.raises(SimulationError):
            simulator().run(np.array([]), StaticStrategy(2))

    def test_negative_load_rejected(self):
        with pytest.raises(SimulationError):
            simulator().run(np.array([-1.0]), StaticStrategy(2))

    def test_initial_beyond_max_rejected(self):
        with pytest.raises(SimulationError):
            ElasticDbSimulator(CFG, max_machines=2, initial_machines=3)

    def test_target_beyond_max_clamped(self):
        """A target over the pool is clamped to it, as in every other
        loop; nothing is refused."""
        offered = np.full(240, CFG.q * 0.5)
        tel = Telemetry()
        sim = simulator(max_machines=3, initial_machines=2,
                        engine_kwargs=QUIET, telemetry=tel)
        result = sim.run(offered, AskOnce(5))
        assert result.moves_started == 1
        (start,) = tel.chronicle.by_kind("migration.start")
        assert start["parent"] == AskOnce.RECORD_ID
        assert (start["before"], start["after"]) == (2, 3)
        assert result.machines.max() == 3

    def test_target_beyond_pool_clamped_once_a_node_has_crashed(self):
        offered = np.full(480, CFG.q * 0.5)
        tel = Telemetry()
        injector = FaultInjector(
            [FaultSpec(kind="node_crash", at_time=10.0)], telemetry=tel
        )
        sim = simulator(max_machines=4, initial_machines=2,
                        engine_kwargs=QUIET, telemetry=tel, injector=injector)
        result = sim.run(offered, AskOnce(5))
        # One of four machines is dead: the move goes to the 3 left.
        assert result.moves_started == 1
        (start,) = tel.chronicle.by_kind("migration.start")
        assert (start["before"], start["after"]) == (1, 3)
        assert not tel.chronicle.by_kind("plan.rejected")

    def test_summary_format(self):
        offered = np.full(120, 100.0)
        result = simulator(engine_kwargs=QUIET).run(offered, StaticStrategy(2))
        text = result.summary()
        assert "static-2" in text and "avg machines" in text
