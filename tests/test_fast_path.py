"""Differential tests: the simulator's block stepping and the batched
:meth:`QueueingEngine.step_block` kernel must be bit-identical to the
scalar per-second loop in ``tests/engine_oracle.py`` — same RNG draws,
same per-second outputs.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.elasticity import StaticStrategy, StrategySpec
from repro.elasticity.manual import ManualStrategy
from repro.errors import SimulationError
from repro.experiments import benchmark_setup, fig09
from repro.faults import FaultInjector, FaultSpec
from repro.hstore.engine import (
    BlockStats,
    MigrationInterference,
    QueueingEngine,
    _SampleScratch,
)
from repro.sim import ElasticDbSimulator
from repro.telemetry import MetricsRegistry, Telemetry

from .engine_oracle import record_latency_ticks, run_scalar, scalar_step

CFG = default_config()  # 60 s planner interval


def _run(offered, strategy, blocks, injector=None, **kwargs):
    """One simulator run: engine blocks (``blocks``) or the scalar
    oracle answering each block tick by tick."""
    defaults = dict(
        config=CFG, max_machines=8, initial_machines=3, seed=11
    )
    defaults.update(kwargs)
    sim = ElasticDbSimulator(injector=injector, **defaults)
    if blocks:
        return sim.run(offered, strategy)
    return run_scalar(sim, offered, strategy)


def _assert_identical(fast, scalar):
    """Every per-second series must match bit for bit."""
    assert np.array_equal(fast.machines, scalar.machines)
    assert np.array_equal(fast.completed_tps, scalar.completed_tps)
    assert np.array_equal(fast.migrating, scalar.migrating)
    for q in (50.0, 95.0, 99.0):
        assert np.array_equal(
            fast.latency.series(q), scalar.latency.series(q)
        )
    assert fast.moves_started == scalar.moves_started
    assert fast.emergencies == scalar.emergencies


def _sinusoid(n, base=500.0, amp=300.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 6 * np.pi, n)
    return np.clip(base + amp * np.sin(x) + rng.normal(0, 20, n), 0, None)


class TestFastPathEquality:
    def test_fault_free_static(self):
        offered = _sinusoid(1800)
        fast = _run(offered, StaticStrategy(3), True)
        scalar = _run(offered, StaticStrategy(3), False)
        _assert_identical(fast, scalar)

    def test_with_migrations_and_interval_boundaries(self):
        """Scale-out and scale-in moves interleave with quiescent
        stretches; every migration second rides its interval's block as
        a row of shares and interference."""
        offered = _sinusoid(2400)
        strategy = lambda: ManualStrategy([(2, 5), (20, 3)])
        fast = _run(offered, strategy(), True)
        scalar = _run(offered, strategy(), False)
        assert scalar.moves_started == 2
        _assert_identical(fast, scalar)

    def test_with_injected_crash(self):
        """A timed node crash mid-run (recovery machinery active) must
        not desynchronise the fast path from the scalar loop."""
        offered = _sinusoid(1500)
        specs = [FaultSpec(kind="node_crash", at_time=700.0)]
        fast = _run(
            offered,
            StaticStrategy(3),
            True,
            injector=FaultInjector(specs, seed=5),
        )
        scalar = _run(
            offered,
            StaticStrategy(3),
            False,
            injector=FaultInjector(specs, seed=5),
        )
        _assert_identical(fast, scalar)

    def test_with_slowdown_window(self):
        """node_slowdown reaches the block kernel as per-tick capacity
        multipliers; outputs must still match exactly."""
        offered = _sinusoid(900)
        specs = [
            FaultSpec(
                kind="node_slowdown",
                at_time=200.0,
                duration_seconds=120.0,
                node=1,
                capacity_multiplier=0.5,
            )
        ]
        fast = _run(
            offered,
            StaticStrategy(3),
            True,
            injector=FaultInjector(specs, seed=9),
        )
        scalar = _run(
            offered,
            StaticStrategy(3),
            False,
            injector=FaultInjector(specs, seed=9),
        )
        _assert_identical(fast, scalar)

    def test_zero_load_stretch(self):
        """Ticks with no completed work draw no samples, so step_block
        samples only a block's completed rows; equality must survive
        them."""
        offered = np.concatenate(
            [np.zeros(200), _sinusoid(400), np.zeros(150)]
        )
        fast = _run(offered, StaticStrategy(2), True, initial_machines=2)
        scalar = _run(offered, StaticStrategy(2), False, initial_machines=2)
        _assert_identical(fast, scalar)
        # With a move in flight the completed rows must sample under
        # their own interference and service-rate rows.
        strategy = lambda: ManualStrategy([(1, 5), (9, 3)])
        fast = _run(offered, strategy(), True)
        scalar = _run(offered, strategy(), False)
        assert fast.migrating[150:200].all() and fast.migrating[600:650].all()
        _assert_identical(fast, scalar)

    @pytest.mark.parametrize("text", ["reactive:patience=10", "p-store"])
    def test_elastic_run_never_takes_a_scalar_step(
        self, text, fig09_day, monkeypatch
    ):
        """A fault-free elastic run goes through the block kernel only:
        one block per planner interval, scale-outs and scale-ins
        included, and not one ``QueueingEngine.step``."""
        simulator, strategy, history = fig09.prepare_approach(
            StrategySpec.parse(text), fig09_day
        )

        def no_step(*args, **kwargs):
            raise AssertionError("QueueingEngine.step called from drive")

        sizes = []
        step_block = QueueingEngine.step_block

        def spy(engine, dt, offered_block, *rows):
            sizes.append(len(offered_block))
            return step_block(engine, dt, offered_block, *rows)

        monkeypatch.setattr(QueueingEngine, "step", no_step)
        monkeypatch.setattr(QueueingEngine, "step_block", spy)
        result = simulator.run(fig09_day.offered_tps, strategy, history)
        # Blocks tile the day and start at the planner-boundary ticks:
        # [0, 59), [59, 119), ..., [8579, 8639), [8639, 8640).
        assert sizes == [59] + [60] * 143 + [1]
        steps = np.diff(result.machines)
        assert result.moves_started >= 3
        assert (steps > 0).any() and (steps < 0).any()


    @pytest.mark.parametrize("series", ["completed_tps", "p99", "machines"])
    def test_one_nudged_tick_fails_the_comparison(self, series):
        """The comparison has teeth: the two runs agree, and moving one
        tick of one series of the block run by one ulp breaks the
        agreement."""
        offered = _sinusoid(600)
        strategy = lambda: ManualStrategy([(2, 5)])
        blocks = _run(offered, strategy(), True)
        scalar = _run(offered, strategy(), False)
        _assert_identical(blocks, scalar)
        nudged = {
            "completed_tps": blocks.completed_tps,
            "p99": blocks.latency.series(99.0),
            "machines": blocks.machines,
        }[series]
        nudged[451] = np.nextafter(nudged[451], np.inf)
        with pytest.raises(AssertionError):
            _assert_identical(blocks, scalar)


class TestBlockTelemetry:
    """The engine and the simulator feed their metrics once per block.
    A run's snapshot and chronicle must equal the oracle's, whose engine
    records every tick, and the simulator's ``sim.*`` instruments must
    equal a per-tick replay of its latency series."""

    def test_migrating_backlogged_and_idle_blocks(self):
        offered = np.concatenate([
            np.zeros(130),            # idle: ticks that complete nothing
            _sinusoid(500),
            np.full(120, 3000.0),     # ~2x two machines: a backlog builds
            _sinusoid(470),           # the last block is 21 ticks long
        ])
        strategy = lambda: ManualStrategy([(3, 4), (14, 2)])
        recorded = []
        for blocks in (True, False):
            tel = Telemetry()
            result = _run(
                offered, strategy(), blocks, telemetry=tel, initial_machines=2
            )
            recorded.append((tel.metrics.snapshot(), tel.chronicle.snapshot()))
        assert recorded[0] == recorded[1]
        assert result.migrating.any()
        assert (result.completed_tps[:130] == 0.0).all()
        metrics = {m["name"]: m for m in recorded[0][0]}
        assert metrics["sim.sla_violation_seconds"]["value"] > 0
        assert metrics["engine.tick_p50_ms"]["count"] == offered.size
        replay = MetricsRegistry()
        record_latency_ticks(replay, result, CFG.sla_latency_ms)
        assert [
            m for m in recorded[0][0] if m["name"].startswith("sim.")
        ] == replay.snapshot()


@pytest.fixture(scope="module")
def fig09_day():
    return benchmark_setup(eval_days=1, seed=55)


class TestStepBlockKernel:
    """Direct engine-level equality of step_block vs repeated step()."""

    @pytest.mark.parametrize("chunk", [1, 7, 59, 128])
    def test_block_matches_scalar_steps(self, chunk):
        n_partitions = 18
        offered = _sinusoid(354, base=900.0, amp=500.0, seed=4)
        shares = np.full(n_partitions, 1.0 / n_partitions)

        scalar = QueueingEngine(n_partitions=n_partitions, seed=21)
        expected = [scalar_step(scalar, 1.0, float(v), shares) for v in offered]

        batched = QueueingEngine(n_partitions=n_partitions, seed=21)
        got = []
        for lo in range(0, offered.size, chunk):
            block = batched.step_block(
                1.0, offered[lo : lo + chunk], shares
            )
            for i in range(block.ticks):
                got.append(
                    (
                        block.p50_ms[i],
                        block.p95_ms[i],
                        block.p99_ms[i],
                        block.completed_tps[i],
                        block.backlog[i],
                    )
                )
        assert len(got) == len(expected)
        for tick, (stats, row) in enumerate(zip(expected, got)):
            assert (
                stats.p50_ms,
                stats.p95_ms,
                stats.p99_ms,
                stats.completed_tps,
                stats.backlog,
            ) == row, f"tick {tick} diverged"

    def test_block_matches_under_overload(self):
        """Sustained overload exercises the sequential backlog recursion
        (non-empty queue) instead of the zero-backlog closed form."""
        n_partitions = 12
        offered = np.full(120, 438.0 * 2 * 1.5)  # ~1.5x capacity
        shares = np.full(n_partitions, 1.0 / n_partitions)
        scalar = QueueingEngine(n_partitions=n_partitions, seed=2)
        expected = [scalar_step(scalar, 1.0, float(v), shares) for v in offered]
        batched = QueueingEngine(n_partitions=n_partitions, seed=2)
        block = batched.step_block(1.0, offered, shares)
        assert np.all(block.backlog[-10:] > 0)
        for i, stats in enumerate(expected):
            assert stats.p99_ms == block.p99_ms[i]
            assert stats.completed_tps == block.completed_tps[i]
            assert stats.backlog == block.backlog[i]

    def test_state_continuity_after_block(self):
        """A scalar step after a block must see exactly the state a pure
        scalar run would have."""
        n_partitions = 12
        offered = _sinusoid(240, base=800.0, amp=400.0, seed=8)
        shares = np.full(n_partitions, 1.0 / n_partitions)
        scalar = QueueingEngine(n_partitions=n_partitions, seed=13)
        expected = [scalar_step(scalar, 1.0, float(v), shares) for v in offered]
        mixed = QueueingEngine(n_partitions=n_partitions, seed=13)
        mixed.step_block(1.0, offered[:100], shares)
        for i in range(100, 240):
            stats = mixed.step(1.0, float(offered[i]), shares)
            assert stats.p99_ms == expected[i].p99_ms
            assert stats.completed_tps == expected[i].completed_tps


class TestOneSharesRow:
    """A 1-D shares row is validated and normalised once, then stands
    for every tick: ``_block_prep`` must equal the same row broadcast to
    ``(T, n)``, errors included."""

    PREP_FIELDS = (
        "offered", "arrivals", "mu_eff", "completed", "backlog_mid",
        "backlog_end", "total_completed",
    )

    @given(
        seed=st.integers(0, 10_000),
        ticks=st.sampled_from([1, 17, 60]),
        hot_rate=st.sampled_from([1.0 / 20_000.0, 0.01]),
        zeros=st.integers(0, 5),
        rows=st.sampled_from(["none", "interference", "capacity", "both"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_prep_equals_the_broadcast_row(
        self, seed, ticks, hot_rate, zeros, rows
    ):
        n = 12
        rng = np.random.default_rng(seed)
        shares = rng.uniform(0.0, 1.0, n)
        shares[rng.permutation(n)[:zeros]] = 0.0
        offered = rng.uniform(0.0, 1800.0, ticks)
        moving = capacity = None
        if rows in ("interference", "both"):
            busy = np.where(rng.random(n) < 0.4, 0.3, 0.0)
            moving = MigrationInterference(busy, busy * 0.5)
        if rows in ("capacity", "both"):
            capacity = rng.uniform(0.5, 1.0, (ticks, n))
        engines = [
            QueueingEngine(n_partitions=n, seed=seed, hot_episode_rate=hot_rate)
            for _ in range(2)
        ]
        preps = [
            engine._block_prep(1.0, offered, rows_of_shares, moving, capacity)
            for engine, rows_of_shares in zip(
                engines, [shares, np.tile(shares, (ticks, 1))]
            )
        ]
        row, full = preps
        for name in self.PREP_FIELDS:
            got = np.broadcast_to(getattr(row, name), (ticks, n)[: getattr(full, name).ndim])
            assert got.tobytes() == getattr(full, name).tobytes(), name
        for engine in engines[1:]:
            assert engine._backlog.tobytes() == engines[0]._backlog.tobytes()
            assert engine._hot_remaining.tobytes() == engines[0]._hot_remaining.tobytes()
        blocks = [
            engine.step_block(1.0, offered, rows_of_shares, moving, capacity)
            for engine, rows_of_shares in zip(
                engines, [shares, np.tile(shares, (ticks, 1))]
            )
        ]
        _blocks_equal(*blocks)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "shares must be finite"),
            (-0.25, "shares must be non-negative"),
            (0.0, "at least one partition must receive load"),
        ],
    )
    def test_a_bad_row_raises_the_same_error(self, bad, message):
        n, ticks = 6, 60
        shares = np.full(n, 0.0 if bad == 0.0 else 1.0)
        shares[2] = bad
        offered = np.full(ticks, 300.0)
        errors = []
        for rows in (shares, np.tile(shares, (ticks, 1))):
            engine = QueueingEngine(n_partitions=n, seed=1)
            with pytest.raises(SimulationError, match=message) as caught:
                engine.step_block(1.0, offered, rows)
            errors.append(str(caught.value))
            assert engine.time == 0.0
        assert errors[0] == errors[1]

    def test_a_wrong_width_row_is_refused(self):
        engine = QueueingEngine(n_partitions=6, seed=1)
        with pytest.raises(SimulationError, match="must have shape"):
            engine.step_block(1.0, np.full(5, 300.0), np.ones(7))


def _rows_match(expected, block, offset):
    for i in range(block.ticks):
        stats = expected[offset + i]
        assert (
            stats.time, stats.p50_ms, stats.p95_ms, stats.p99_ms,
            stats.completed_tps, stats.offered_tps, stats.max_utilization,
            stats.backlog,
        ) == (
            block.times[i], block.p50_ms[i], block.p95_ms[i], block.p99_ms[i],
            block.completed_tps[i], block.offered_tps[i],
            block.max_utilization[i], block.backlog[i],
        ), f"tick {offset + i} diverged"


class TestStepBlockPerTickRows:
    """step_block under per-tick shares, migration interference and
    capacity multipliers vs the same ticks through scalar step()."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 14),
        ticks=st.integers(1, 40),
        load=st.sampled_from([0.0, 0.4, 0.9, 1.6]),
        with_caps=st.booleans(),
        backlog=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_rows_match_scalar_under_any_chunking(
        self, seed, n, ticks, load, with_caps, backlog
    ):
        rng = np.random.default_rng(seed)
        # Hot episodes every ~15 ticks, so they carry across chunks.
        kwargs = dict(n_partitions=n, seed=seed, hot_episode_rate=1 / (15 * n))
        capacity = 73.0 * n
        offered = rng.uniform(0.0, 2.0, ticks) * load * capacity
        offered[rng.random(ticks) < 0.1] = 0.0
        shares = rng.uniform(0.0, 1.0, (ticks, n))
        shares[:, rng.integers(0, n)] += 0.05
        busy = np.where(
            rng.random((ticks, n)) < 0.3, rng.uniform(0.0, 0.95, (ticks, n)), 0.0
        )
        stall = np.where(busy > 0.0, rng.uniform(0.0, 0.4), 0.0)
        caps = rng.uniform(0.1, 1.0, (ticks, n)) if with_caps else None
        # Entry backlog: an overloaded lead-in, itself one block.
        lead = np.full(4 if backlog else 0, 2.0 * capacity)

        def tick_by_tick(step):
            for v in lead:
                step(1.0, float(v), np.ones(n))
            return [
                step(
                    1.0, float(offered[i]), shares[i],
                    MigrationInterference(busy[i], stall[i]),
                    None if caps is None else caps[i],
                )
                for i in range(ticks)
            ]

        scalar = QueueingEngine(telemetry=Telemetry(), **kwargs)
        expected = tick_by_tick(lambda *args: scalar_step(scalar, *args))
        # QueueingEngine.step, a block of one, reports the oracle's ticks.
        assert tick_by_tick(QueueingEngine(**kwargs).step) == expected
        for chunk in (1, 7, ticks):
            batched = QueueingEngine(telemetry=Telemetry(), **kwargs)
            if lead.size:
                batched.step_block(1.0, lead, np.ones(n))
            for lo in range(0, ticks, chunk):
                rows = slice(lo, lo + chunk)
                block = batched.step_block(
                    1.0, offered[rows], shares[rows],
                    MigrationInterference(busy[rows], stall[rows]),
                    None if caps is None else caps[rows],
                )
                _rows_match(expected, block, lo)
            # Fed once per block, the engine's metrics equal the
            # oracle's, which records every tick.
            assert (
                batched._telemetry.metrics.snapshot()
                == scalar._telemetry.metrics.snapshot()
            )

    # Rejections, on a 3-tick block over 4 partitions: the message names
    # the argument, and for a shape the one wanted and the one given.
    @pytest.mark.parametrize(
        "argument, rows, message",
        [
            ("shares", np.ones((2, 4)), r"shares .*\(3, 4\).*\(2, 4\)"),
            ("shares", np.ones((3, 5)), r"shares .*\(3, 4\).*\(3, 5\)"),
            ("shares", np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4]),
             "at least one partition"),
            ("shares", np.array([1.0, -0.5, 1.0, 1.0]), "non-negative"),
            ("shares", np.array([1.0, np.nan, 1.0, 1.0]), "shares .*finite"),
            ("busy", np.full((3, 4), -0.1), r"busy_fraction .*\[0, 1\)"),
            ("busy", np.full((3, 4), 1.0), r"busy_fraction .*\[0, 1\)"),
            ("busy", np.zeros((4, 4)), r"busy_fraction .*\(3, 4\).*\(4, 4\)"),
            ("stall", np.full(4, np.inf), "stall_seconds .*finite"),
            ("caps", np.array([1.0, 0.0, 1.0, 1.0]), "multipliers .*positive"),
            ("caps", np.ones((3, 3)),
             r"capacity_multipliers .*\(3, 4\).*\(3, 3\)"),
            ("caps", np.full((3, 4), np.nan), "capacity_multipliers .*finite"),
            ("offered", np.array([1.0, np.inf, 1.0]), "offered_block .*finite"),
        ],
    )
    def test_malformed_rows_are_rejected(self, argument, rows, message):
        args = dict(
            offered=np.full(3, 100.0), shares=np.ones(4),
            busy=np.zeros(4), stall=np.zeros(4), caps=None,
        )
        args[argument] = rows
        engine = QueueingEngine(n_partitions=4, seed=1)
        with pytest.raises(SimulationError, match=message):
            engine.step_block(
                1.0, args["offered"], args["shares"],
                MigrationInterference(args["busy"], args["stall"]),
                args["caps"],
            )
        # A rejected call leaves the engine where it was.
        fresh = QueueingEngine(n_partitions=4, seed=1)
        _rows_match(
            [scalar_step(fresh, 1.0, 100.0, np.ones(4)) for _ in range(3)],
            engine.step_block(1.0, np.full(3, 100.0), np.ones(4)),
            0,
        )


    # The same rejections through step, one row per argument.
    @pytest.mark.parametrize(
        "argument, row, message",
        [
            ("shares", np.ones(5), r"shares .*\(1, 4\).*\(5,\)"),
            ("shares", np.zeros(4), "at least one partition"),
            ("shares", np.array([1.0, -0.5, 1.0, 1.0]), "non-negative"),
            ("shares", np.array([1.0, np.nan, 1.0, 1.0]), "shares .*finite"),
            ("busy", np.full(4, -0.1), r"busy_fraction .*\[0, 1\)"),
            ("busy", np.full(4, 1.0), r"busy_fraction .*\[0, 1\)"),
            ("stall", np.full(4, np.inf), "stall_seconds .*finite"),
            ("caps", np.array([1.0, 0.0, 1.0, 1.0]), "multipliers .*positive"),
            ("caps", np.ones(3), r"capacity_multipliers .*\(1, 4\).*\(3,\)"),
            ("caps", np.full(4, np.nan), "capacity_multipliers .*finite"),
            ("offered", np.inf, "offered_block .*finite"),
            ("offered", np.nan, "offered_block .*finite"),
        ],
    )
    def test_malformed_rows_are_rejected_by_step(self, argument, row, message):
        args = dict(
            offered=100.0, shares=np.ones(4),
            busy=np.zeros(4), stall=np.zeros(4), caps=None,
        )
        args[argument] = row
        engine = QueueingEngine(n_partitions=4, seed=1)
        with pytest.raises(SimulationError, match=message):
            engine.step(
                1.0, args["offered"], args["shares"],
                MigrationInterference(args["busy"], args["stall"]),
                args["caps"],
            )
        # A rejected call leaves the engine where it was.
        fresh = QueueingEngine(n_partitions=4, seed=1)
        assert [engine.step(1.0, 100.0, np.ones(4)) for _ in range(3)] == [
            scalar_step(fresh, 1.0, 100.0, np.ones(4)) for _ in range(3)
        ]


class TestSamplingKernel:
    """The pieces of ``_block_sample_math`` against what they replace."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([1, 7, 60, 200]),
        ticks=st.sampled_from([1, 59, 300]),
        zeros=st.sampled_from(["none", "leading", "trailing", "interior", "most"]),
        ulps=st.integers(-4, 4),
        top=st.sampled_from([1.0, 1.7237803311822981]),
    )
    @settings(max_examples=60, deadline=None)
    def test_categorical_draw_is_searchsorted_right(
        self, seed, n, ticks, zeros, ulps, top
    ):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, (ticks, n)) ** 4
        third = max(1, n // 3)
        if zeros == "leading":
            weights[:, :third] = 0.0
        elif zeros == "trailing":
            weights[:, n - third:] = 0.0
        elif zeros == "interior":
            weights[:, third:2 * third] = 0.0
        elif zeros == "most":
            weights[rng.random((ticks, n)) < 0.9] = 0.0
        weights[:, rng.integers(0, n)] += 0.01  # every row completes work
        cdf = np.cumsum(weights / weights.sum(axis=1)[:, None], axis=1)
        # Scaling by a positive constant keeps each row sorted and moves
        # cdf[-1] a few ulp off wherever the cumsum left it.  Near 1.72,
        # ``x * (1024 / x)`` rounds below 1024 for about one row in
        # seven, whose last entry then sits in cell 1023, not at the
        # table's end (a key equal to it is compared, and clipped).
        cdf *= top * (1.0 + ulps * np.finfo(float).eps)
        top = cdf[:, -1:]
        keys = rng.random((ticks, 256)) * top
        keys[:, 0] = 0.0                      # u = 0
        keys[:, 1] = top[:, 0]                # u * cdf[-1] == cdf[-1]
        width = min(n, 254)
        keys[:, 2:2 + width] = cdf[:, :width]  # a key equal to an entry
        out = np.empty(keys.shape, dtype=np.intp)
        QueueingEngine._categorical_draw(_SampleScratch(), cdf, keys, out)
        for i in range(ticks):
            # The folded lookup: searchsorted, the n - 1 clip and the row
            # offset into the flat (ticks, n) grid, in one table.
            expected = np.minimum(
                np.searchsorted(cdf[i], keys[i], side="right"), n - 1
            ) + i * n
            assert np.array_equal(out[i], expected), f"row {i}"

    @pytest.mark.parametrize("size", [1, 2, 256, 257])
    def test_percentiles_equal_numpy_bitwise(self, size):
        """Scaled on the order statistics, as the block kernel turns
        seconds into milliseconds: equal to scaling every sample."""
        ms = np.random.default_rng(size).exponential(0.02, (40, size))
        for scale in (1.0, 1000.0):
            expected = np.percentile(ms * scale, [50, 95, 99], axis=-1)
            got = QueueingEngine._percentiles_50_95_99(ms.copy(), scale)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            one_row = QueueingEngine._percentiles_50_95_99(ms[3].copy(), scale)
            assert one_row.tobytes() == expected[:, 3].tobytes()

    def test_interleaved_engines_equal_sequential(self):
        """Draw A, draw B, math A, math B — the tensor driver's order,
        with both engines' draws alive at once — changes nothing, whether
        each engine works in its own scratch or both in rows of one."""
        n, ticks = 12, 30
        shares = np.ones(n)
        offered = {21: _sinusoid(ticks, base=600.0), 22: _sinusoid(ticks, seed=3)}
        busy = np.where(np.arange(n) < 4, 0.3, 0.0)
        moving = MigrationInterference(busy, busy * 0.5)
        sequential = {
            seed: QueueingEngine(n_partitions=n, seed=seed).step_block(
                1.0, offered[seed], shares, moving
            )
            for seed in offered
        }

        def prepared():
            engines = [QueueingEngine(n_partitions=n, seed=s) for s in offered]
            return engines, [
                e._block_prep(1.0, offered[s], shares, moving)
                for s, e in zip(offered, engines)
            ]

        def grids(prep):
            return [
                prep.arrivals, prep.mu_eff, prep.backlog_mid, prep.completed,
                prep.total_completed, prep.interference.busy_fraction,
                prep.interference.stall_seconds,
            ]

        def math(scratch, columns):
            return QueueingEngine._block_sample_math(
                scratch, *columns[:5], MigrationInterference(*columns[5:])
            )

        engines, preps = prepared()
        for e in engines:
            e._scratch.reserve(ticks, e.samples_per_tick)
            e._block_sample_draws(e._scratch, 0, ticks)
        for s, e, prep in zip(offered, engines, preps):
            block = e._block_finish(prep, *math(e._scratch, grids(prep)))
            _blocks_equal(block, sequential[s])

        engines, preps = prepared()
        shared = _SampleScratch()
        shared.reserve(2 * ticks, 256)
        for i, e in enumerate(engines):
            e._block_sample_draws(shared, i * ticks, ticks)
        fused = math(
            shared, [np.concatenate(c) for c in zip(*map(grids, preps))]
        )
        for i, (s, e) in enumerate(zip(offered, engines)):
            part = slice(i * ticks, (i + 1) * ticks)
            block = e._block_finish(preps[i], *(q[part] for q in fused))
            _blocks_equal(block, sequential[s])

    def test_block_stats_do_not_alias_the_scratch(self):
        """What one block returned must survive the next block's draws."""
        engine = QueueingEngine(n_partitions=6, seed=5)
        first = engine.step_block(1.0, np.full(20, 300.0), np.ones(6))
        kept = [np.array(getattr(first, f)) for f in BLOCK_FIELDS]
        engine.step_block(1.0, np.full(20, 120.0), np.ones(6))
        for name, before in zip(BLOCK_FIELDS, kept):
            assert np.array_equal(getattr(first, name), before), name
            for buffer in vars(engine._scratch).values():
                assert not np.shares_memory(getattr(first, name), buffer)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="counts ru_minflt"
    )
    def test_steady_state_blocks_do_not_page_fault(self):
        """A simulator's day of blocks — 59 ticks, then 60 after 60 —
        in a fresh interpreter, so the allocator's history is this
        script's alone: once warm, a block neither maps nor trims the
        sample batches (allocated per block they cost ~150 minor faults
        a block here)."""
        script = (
            "import resource, numpy as np\n"
            "from repro.hstore.engine import QueueingEngine\n"
            "engine = QueueingEngine(n_partitions=60, seed=3)\n"
            "rng = np.random.default_rng(0)\n"
            "def block(ticks):\n"
            "    offered = rng.uniform(0.3, 0.7, ticks) * 73 * 60\n"
            "    return engine.step_block(1.0, offered, np.ones((ticks, 60)))\n"
            "kept = [block(ticks) for ticks in (59, 60, 60)]\n"
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "before = faults()\n"
            "kept += [block(60) for _ in range(20)]\n"
            "print(faults() - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 200, done.stdout


BLOCK_FIELDS = [field.name for field in dataclasses.fields(BlockStats)]


def _blocks_equal(got, expected):
    for name in BLOCK_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
