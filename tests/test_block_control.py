"""A move advanced a block at a time, and the rows the simulator builds
from it, against the per-second loop they replace.

``ActiveMigration.advance_seconds`` must equal one ``advance(1.0)`` per
second bit for bit, and every :class:`~repro.sim.simulator.BlockRequest`
of a fault-free run must carry the rows of ``per_second_control`` in
``tests/engine_oracle.py`` — a steady block as its one shares row.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.elasticity.manual import ManualStrategy
from repro.errors import MigrationError
from repro.faults import FaultInjector, FaultSpec
from repro.sim import ElasticDbSimulator
from repro.squall.migrator import ActiveMigration
from repro.squall.schedule import build_migration_schedule

from .engine_oracle import drive_requests

CFG = default_config()  # 60 s planner interval, 6 partitions per node
R = CFG.migration_rate_kbps


def _migration(before, after, partitions, rate, chunk_kb, database_kb):
    return ActiveMigration(
        build_migration_schedule(before, after), database_kb, rate,
        partitions, chunk_kb,
    )


def _assert_same_state(fast, slow):
    assert fast._fractions.tobytes() == slow._fractions.tobytes()
    assert fast._round_base.tobytes() == slow._round_base.tobytes()
    assert fast._round_index == slow._round_index
    assert fast._elapsed_in_round == slow._elapsed_in_round
    assert fast._progress_applied == slow._progress_applied
    assert fast.done == slow.done
    assert fast._completed_rounds == slow._completed_rounds


def _replay(fast, slow, blocks):
    """Advance ``fast`` by ``advance_seconds`` over ``blocks`` and
    ``slow`` one ``advance(1.0)`` per second, comparing every second;
    returns what the seconds straddled and how the move ended."""
    seen = {"boundary": False, "finished_mid_block": False}
    for k in blocks:
        if slow.done:
            break
        seconds = fast.advance_seconds(k)
        taken = len(seconds.rounds)
        assert 1 <= taken <= k
        for j in range(taken):
            assert seconds.fractions[j].tobytes() == slow.data_fractions().tobytes()
            assert seconds.allocation[j] == slow.machines_allocated()
            assert seconds.rounds[j] == slow._round_index
            assert (
                fast.migrating_machines(int(seconds.rounds[j]))
                == slow.migrating_machines()
            )
            round_before = slow._round_index
            slow.advance(1.0)
            if slow._round_index != round_before and not slow.done:
                seen["boundary"] |= slow._elapsed_in_round > 0.0
        _assert_same_state(fast, slow)
        if taken < k:
            assert fast.done
            seen["finished_mid_block"] = True
        else:
            assert taken == k
    return seen


class TestAdvanceSeconds:
    @given(
        before=st.integers(1, 10),
        after=st.integers(1, 10),
        partitions=st.integers(1, 6),
        boost=st.sampled_from([1.0, 8.0]),
        chunk_kb=st.sampled_from([250.0, 1000.0, 8000.0]),
        database_kb=st.sampled_from([CFG.database_kb, 20_000.0, 777_777.7]),
        blocks=st.lists(st.integers(1, 60), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_one_advance_per_second(
        self, before, after, partitions, boost, chunk_kb, database_kb, blocks
    ):
        if before == after:
            after = before % 10 + 1
        fast = _migration(
            before, after, partitions, boost * R, chunk_kb, database_kb
        )
        slow = copy.deepcopy(fast)
        # Repeat the blocks until the move is done.
        _replay(fast, slow, blocks * 20_000)
        assert fast.done and slow.done

    @pytest.mark.parametrize(
        "before, after, partitions, boost, database_kb",
        [
            (2, 6, 6, 1.0, CFG.database_kb),   # ~64.5 s rounds
            (6, 2, 6, 8.0, CFG.database_kb),   # ~8 s rounds
            (1, 10, 1, 8.0, 20_000.0),         # ~1 s rounds
            (10, 1, 6, 8.0, 20_000.0),         # several rounds a second
        ],
    )
    def test_straddles_boundaries_and_finishes_mid_block(
        self, before, after, partitions, boost, database_kb
    ):
        fast = _migration(before, after, partitions, boost * R, 1000.0, database_kb)
        slow = copy.deepcopy(fast)
        seen = _replay(fast, slow, [60] * 10_000)
        assert seen["finished_mid_block"]
        if fast.round_seconds > 1.0:
            assert seen["boundary"]

    def test_a_round_ending_a_hair_past_a_second_commits_in_it(self):
        """``advance``'s ``+ 1e-12``: a round with less than that left
        after its last whole second commits in that second."""
        schedule = build_migration_schedule(2, 4)
        pair_kb = schedule.fraction_per_transfer * CFG.database_kb
        fast = ActiveMigration(schedule, CFG.database_kb, pair_kb / (10 + 5e-13))
        assert 10.0 < fast.round_seconds < 10.0 + 1e-12
        slow = copy.deepcopy(fast)
        seconds = copy.deepcopy(fast).advance_seconds(12)
        assert list(seconds.rounds) == [0] * 10 + [1, 1]
        _replay(fast, slow, [12] + [60] * 10)
        assert fast.done

    def test_a_drained_machines_residue_is_clipped(self):
        """10 -> 9 leaves the drained machine at about -1e-17 after the
        last commit; the row of a second that starts there reads 0.0, as
        ``data_fractions()`` does."""
        migration = _migration(10, 9, 1, 8.0 * R, 1000.0, 777_777.7)
        migration.advance(migration.total_seconds + 1.0)
        assert (migration._fractions < 0).any()
        seconds = migration.advance_seconds(60)
        assert seconds.fractions.tobytes() == migration.data_fractions()[None].tobytes()
        assert (seconds.fractions >= 0).all()

    def test_a_done_move_spends_one_second(self):
        migration = _migration(3, 5, 6, R, 1000.0, CFG.database_kb)
        migration.advance(migration.total_seconds + 1.0)
        seconds = migration.advance_seconds(60)
        assert len(seconds.rounds) == 1
        assert seconds.rounds[0] == migration.schedule.n_rounds
        assert seconds.allocation[0] == 5

    def test_refuses_no_seconds(self):
        migration = _migration(3, 5, 6, R, 1000.0, CFG.database_kb)
        with pytest.raises(MigrationError):
            migration.advance_seconds(0)


def _requests(strategy, oracle, injector=None, offered=None, **kwargs):
    defaults = dict(config=CFG, max_machines=8, initial_machines=3, seed=11)
    defaults.update(kwargs)
    sim = ElasticDbSimulator(injector=injector, **defaults)
    if offered is None:
        offered = np.full(3000, 0.5 * CFG.q * 3)
    return drive_requests(sim, offered, strategy, oracle=oracle)


def _assert_same_requests(fast, slow):
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert (got.start, got.end) == (want.start, want.end)
        shares = np.broadcast_to(got.shares, want.shares.shape)
        assert shares.tobytes() == want.shares.tobytes()
        assert got.offered.tobytes() == want.offered.tobytes()
        for name in ("interference", "capacity"):
            assert (getattr(got, name) is None) == (getattr(want, name) is None)
        if want.interference is not None:
            for field in ("busy_fraction", "stall_seconds"):
                assert (
                    getattr(got.interference, field).tobytes()
                    == getattr(want.interference, field).tobytes()
                )
        if want.capacity is not None:
            assert got.capacity.tobytes() == want.capacity.tobytes()


def _assert_same_results(fast, slow):
    assert fast.machines.tobytes() == slow.machines.tobytes()
    assert fast.migrating.tobytes() == slow.migrating.tobytes()
    assert fast.completed_tps.tobytes() == slow.completed_tps.tobytes()
    for q in (50.0, 95.0, 99.0):
        assert fast.latency.series(q).tobytes() == slow.latency.series(q).tobytes()
    assert fast.moves_started == slow.moves_started


class TestControlRows:
    """Every fault-free block request against the per-second rows."""

    @pytest.mark.parametrize(
        "actions",
        [
            [(2, 6), (20, 3), (35, 8, 8.0), (40, 1, 8.0)],   # out, in, boosted
            [(1, 4), (3, 7), (9, 2)],                        # back to back
            [(0, 8, 8.0)],                                   # from tick 59
        ],
    )
    def test_requests_equal_the_per_second_rows(self, actions):
        fast, fast_requests = _requests(ManualStrategy(actions), oracle=False)
        slow, slow_requests = _requests(ManualStrategy(actions), oracle=True)
        assert slow.moves_started == len(actions)
        _assert_same_requests(fast_requests, slow_requests)
        _assert_same_results(fast, slow)

    def test_a_steady_block_is_one_row(self):
        _, requests = _requests(ManualStrategy([(2, 6)]), oracle=False)
        steady = [r for r in requests if r.interference is None]
        moving = [r for r in requests if r.interference is not None]
        assert steady and moving
        assert all(r.shares.ndim == 1 for r in steady)
        assert all(r.shares.shape == (r.ticks, 48) for r in moving)

    def test_fault_runs_keep_the_per_second_path(self):
        """Faults act per second: the simulator's own loop under an
        injector still builds the oracle's rows, a move's rows through
        the same scatter as a fault-free block's."""
        specs = [
            FaultSpec(kind="node_crash", at_time=400.0, node=4),
            FaultSpec(kind="node_slowdown", at_time=900.0,
                      duration_seconds=120.0, node=1, capacity_multiplier=0.5),
        ]
        strategy = lambda: ManualStrategy([(5, 6), (12, 8), (30, 3)])
        fast, fast_requests = _requests(
            strategy(), False, FaultInjector(specs, seed=5)
        )
        slow, slow_requests = _requests(
            strategy(), True, FaultInjector(specs, seed=5)
        )
        assert any(r.capacity is not None for r in slow_requests)
        assert fast.machines[405] == 3   # the crash aborted the first move
        _assert_same_requests(fast_requests, slow_requests)
        _assert_same_results(fast, slow)
