"""A move advanced a block at a time, and the rows the simulator builds
from it, against the per-second loop they replace.

``ActiveMigration.advance_seconds`` must equal one ``advance(1.0)`` per
second bit for bit, and every :class:`~repro.sim.simulator.BlockRequest`
must carry the rows of ``per_second_control`` in
``tests/engine_oracle.py`` — a fault-free steady block as its one shares
row.  Under a fault injector the simulator takes a block in slices of
the move clock (``Allocation.next_slice``) rounded up to whole seconds;
seeded scenarios of every fault kind hold its requests, results and both
chronicles to the per-second loop's, which spends every second slice by
slice of the same clock.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.elasticity.manual import ManualStrategy
from repro.elasticity.reactive import ReactiveStrategy
from repro.errors import MigrationError
from repro.faults import FaultInjector, FaultSpec
from repro.sim import ElasticDbSimulator
from repro.squall.migrator import ActiveMigration
from repro.squall.schedule import build_migration_schedule
from repro.telemetry import Telemetry

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


KINDS = (
    "node_crash", "node_slowdown", "migration_stall", "forecast_drift",
    "transfer_corruption",
)
SECONDS = 1500          # 25 planner intervals
N_SCENARIOS = 25


def _scenario(seed):
    """Seeded faults of every kind — timed at whole or fractional
    seconds, or on a move start — and a strategy that makes moves for
    them to hit: a manual timetable on even seeds, reactive on odd."""
    rng = np.random.default_rng(seed)
    specs = []
    for j in range(int(rng.integers(3, 7))):
        kind = KINDS[(seed + j) % len(KINDS)]
        when = rng.integers(3)
        if when == 0:
            trigger = dict(on_migration=int(rng.integers(1, 4)))
        elif when == 1:
            trigger = dict(at_time=float(rng.integers(0, SECONDS)))
        else:
            trigger = dict(at_time=round(float(rng.uniform(0, SECONDS)), 3))
        duration = float(rng.choice([rng.integers(1, 300), rng.uniform(1, 300)]))
        if kind == "node_crash":
            extra = dict(node=int(rng.integers(8)) if rng.random() < 0.5 else None)
        elif kind == "node_slowdown":
            extra = dict(
                node=int(rng.integers(8)), duration_seconds=duration,
                capacity_multiplier=float(rng.uniform(0.2, 0.9)),
            )
        elif kind == "forecast_drift":
            extra = dict(duration_seconds=duration,
                         magnitude=float(rng.uniform(0.5, 1.5)))
        elif kind == "migration_stall":
            extra = dict(duration_seconds=duration)
        else:
            extra = {}
        specs.append(FaultSpec(kind=kind, **trigger, **extra))
    if seed % 2:
        strategy = lambda: ReactiveStrategy(CFG, scale_in_patience=2, max_machines=8)
        # Load steps up and down, so the reactive strategy moves both ways.
        levels = rng.uniform(0.5, 7.0, SECONDS // 300) * CFG.q
        offered = np.repeat(levels, 300)
    else:
        slots = np.sort(rng.choice(np.arange(1, SECONDS // 60), 5, replace=False))
        actions = [
            (int(slot), int(rng.integers(1, 9)), float(rng.choice([1.0, 8.0])))
            for slot in slots
        ]
        strategy = lambda: ManualStrategy(actions)
        offered = np.full(SECONDS, 2.0 * CFG.q)
    return specs, strategy, offered


def _chaos_run(seed, oracle):
    specs, strategy, offered = _scenario(seed)
    telemetry = Telemetry()
    injector = FaultInjector(specs, seed=seed, telemetry=telemetry)
    result, requests = _requests(
        strategy(), oracle, injector, offered, telemetry=telemetry
    )
    return result, requests, injector.chronicle, telemetry.chronicle.records


class TestFaultRuns:
    """The block loop under a fault injector against the per-second
    loop, bit for bit."""

    @pytest.mark.parametrize("seed", range(N_SCENARIOS))
    def test_equals_the_per_second_loop(self, seed):
        fast, fast_requests, fast_faults, fast_records = _chaos_run(seed, False)
        slow, slow_requests, slow_faults, slow_records = _chaos_run(seed, True)
        assert slow.moves_started
        _assert_same_requests(fast_requests, slow_requests)
        _assert_same_results(fast, slow)
        assert fast.emergencies == slow.emergencies
        assert fast_faults == slow_faults
        assert fast_records == slow_records

    def test_the_scenarios_cover_every_fault_shape(self):
        """Every kind, fired at whole and fractional seconds and on move
        starts, windows overlapping, crashes and stalls hitting moves,
        under both strategies."""
        seen = set()
        for seed in range(N_SCENARIOS):
            specs, strategy, _ = _scenario(seed)
            seen.add(type(strategy()).__name__)
            windows = []
            for spec in specs:
                seen.add(spec.kind)
                if spec.on_migration is not None:
                    seen.add(("on_migration", spec.kind))
                    continue
                seen.add("whole" if spec.at_time.is_integer() else "fractional")
                if spec.is_windowed:
                    windows.append(
                        (spec.at_time, spec.at_time + spec.duration_seconds)
                    )
            windows.sort()
            if any(b[0] < a[1] for a, b in zip(windows, windows[1:])):
                seen.add("overlap")
        assert seen >= {
            *KINDS, "whole", "fractional", "overlap",
            ("on_migration", "node_crash"), ("on_migration", "migration_stall"),
            ("on_migration", "transfer_corruption"),
            "ManualStrategy", "ReactiveStrategy",
        }
