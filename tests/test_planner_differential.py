"""Randomized differential test: the vectorized DP planner must agree
with the paper-literal recursive oracle (``tests/planner_oracle.py``) on
feasibility, plan cost, and the exact move sequence, across random load
curves, N0, max_machines, and migration-rate settings.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core import model
from repro.core import planner as planner_module
from repro.core.planner import Planner, PlanRequest
from repro.errors import InfeasiblePlanError
from repro.experiments.ablations import (
    _EffCapBlindPlanner,
    run_effcap_ablation,
)

from .planner_oracle import best_moves_reference, feasibility_reference

N_TRIALS = 150


def _random_case(rng):
    config = dataclasses.replace(
        default_config(),
        max_machines=int(rng.integers(0, 14)),  # 0 = unbounded
        d_seconds=float(rng.choice([300.0, 600.0, 2000.0, 4646.0])),
    )
    horizon = int(rng.integers(1, 16))
    base = rng.uniform(50, 3000)
    loads = tuple(
        float(v)
        for v in np.clip(
            base + rng.normal(0, base * 0.5, horizon), 0, None
        )
    )
    n0 = int(rng.integers(1, 10))
    return config, loads, n0


def _plan(callable_, *args, **kwargs):
    try:
        return callable_(*args, **kwargs), None
    except InfeasiblePlanError as exc:
        return None, exc


class TestPlannerDifferential:
    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(1234)
        feasible = infeasible = 0
        for trial in range(N_TRIALS):
            config, loads, n0 = _random_case(rng)
            planner = Planner(config)
            request = PlanRequest(
                predicted_load=loads, initial_machines=n0
            )
            fast, fast_err = _plan(planner.best_moves, request)
            ref, ref_err = _plan(
                best_moves_reference, loads, n0, config
            )
            assert (fast is None) == (ref is None), (
                f"trial {trial}: feasibility diverged "
                f"(loads={loads}, n0={n0})"
            )
            if fast is None:
                infeasible += 1
                assert (
                    fast_err.required_machines
                    == ref_err.required_machines
                )
            else:
                feasible += 1
                assert fast.moves == ref.moves, (
                    f"trial {trial}: plans diverged "
                    f"(loads={loads}, n0={n0})"
                )
        # The sweep must actually exercise both outcomes.
        assert feasible > 10
        assert infeasible > 10

    def test_matches_reference_with_current_load_override(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            config, loads, n0 = _random_case(rng)
            current = float(rng.uniform(0, 2500))
            planner = Planner(config)
            fast, _ = _plan(
                planner.best_moves,
                PlanRequest(
                    predicted_load=loads,
                    initial_machines=n0,
                    current_load=current,
                ),
            )
            ref, _ = _plan(
                best_moves_reference,
                loads,
                n0,
                config,
                current_load=current,
            )
            assert (fast is None) == (ref is None), trial
            if fast is not None:
                assert fast.moves == ref.moves, trial

    def test_cost_tables_reused_across_calls(self):
        """The per-(Z, horizon) grid cache must not leak state between
        requests with different load curves."""
        config = dataclasses.replace(default_config(), max_machines=8)
        planner = Planner(config)
        low = tuple([400.0] * 6)
        high = tuple([400.0, 500.0, 900.0, 1100.0, 1100.0, 900.0])
        for loads in (low, high, low, high):
            request = PlanRequest(predicted_load=loads, initial_machines=2)
            fast, fast_err = _plan(planner.best_moves, request)
            ref, ref_err = _plan(
                best_moves_reference, loads, 2, config
            )
            assert (fast is None) == (ref is None)
            if fast is not None:
                assert fast.moves == ref.moves

    def test_infeasible_spike_raises_with_requirement(self):
        config = dataclasses.replace(default_config(), max_machines=4)
        planner = Planner(config)
        loads = (400.0, 8000.0, 400.0)
        with pytest.raises(InfeasiblePlanError):
            planner.best_moves(
                PlanRequest(predicted_load=loads, initial_machines=2)
            )


def _outcome(callable_, *args, **kwargs):
    """``("plan", moves)`` or ``("infeasible", required_machines)``."""
    try:
        return "plan", callable_(*args, **kwargs).moves
    except InfeasiblePlanError as exc:
        return "infeasible", exc.required_machines


@st.composite
def _plan_cases(draw):
    """``(config, loads, N0, current_load)`` with loads on the DP's
    decision boundaries.

    A load is free, an exact ``k * q`` (a target capacity), or an exact
    Eq. 7 effective capacity of a ``B -> A`` move of the grid at one of
    its intervals, and is then kept, moved onto the planner's ``+ 1e-9``
    slack (still feasible) or one ulp past it (not).  Integral loads and
    costs make equal-cost predecessors common, so ``argmin``'s first
    minimum is held to the oracle's strict-``<`` ascending scan.
    """
    slot = draw(st.sampled_from((60.0, 300.0, 600.0, 3600.0)))
    config = default_config().with_interval(slot)
    if slot == 60.0:
        # Minute slots: a move spans many intervals of a long horizon.
        horizon, z = 27, draw(st.integers(1, 12))
    else:
        horizon, z = draw(st.integers(1, 16)), draw(st.integers(1, 12))
        config = dataclasses.replace(
            config,
            d_seconds=draw(st.sampled_from((300.0, 600.0, 2000.0, 4646.0))),
        )
    config = dataclasses.replace(
        config, max_machines=draw(st.integers(0, 13))  # 0 = unbounded
    )
    planner, q = Planner(config), config.q

    def load(top):
        """A boundary load of a grid of ``top`` sizes."""
        kind = draw(st.sampled_from(("free", "multiple", "effcap")))
        if kind == "free":
            value = draw(st.floats(0.0, top * q))
        elif kind == "multiple":
            value = float(draw(st.integers(0, top))) * q
        else:
            b, a = draw(st.integers(1, top)), draw(st.integers(1, top))
            d = max(1, planner.move_duration(b, a))
            value = model.effective_capacity(b, a, draw(st.integers(1, d)) / d, q)
        nudge = draw(st.sampled_from(("exact", "exact", "slack", "past")))
        if nudge == "slack":
            value += 1e-9
        elif nudge == "past":
            value = float(np.nextafter(value + 1e-9, np.inf))
        return value

    # The load now and the first prediction are on N0's scale, so that
    # most plans get past t = 0 and the DP has something to choose.
    n0 = draw(st.integers(1, z))
    loads = (load(n0),) + tuple(load(z) for _ in range(horizon - 1))
    current = load(n0) if draw(st.booleans()) else None
    return config, loads, n0, current


class TestTiesAndShapes:
    @given(case=_plan_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle_move_for_move(self, case):
        config, loads, n0, current = case
        fast = _outcome(
            Planner(config).best_moves,
            PlanRequest(
                predicted_load=loads, initial_machines=n0, current_load=current
            ),
        )
        ref = _outcome(
            best_moves_reference, loads, n0, config, current_load=current
        )
        assert fast == ref

    def test_minute_slots_over_a_long_horizon(self):
        """A ramp at 60 s slots (horizon 27): moves span 5+ intervals,
        so the feasibility windows are wide and overlap the ramp."""
        config = default_config().with_interval(60.0)
        q = config.q
        loads = tuple(q * (1.9 + 0.14 * i) for i in range(27))
        planner = Planner(config)
        for n0 in range(2, 7):
            fast = _outcome(planner.plan, loads, n0)
            assert fast == _outcome(best_moves_reference, loads, n0, config)
            assert fast[0] == "plan"


@st.composite
def _feasibility_cases(draw):
    """``(planner, loads, N0, Z)`` for one feasibility computation.

    ``Z`` is 1-12 or 33, ``N0`` anywhere up to three past ``Z``, the
    horizon 1-16 (27 at 60 s slots) and ``D`` 300-4,646 s, so that a
    move may be longer than a short horizon.  A load is 0,
    free, or one of the grid's thresholds (an Eq. 7 effective capacity
    or a ``cap(A)``, each plus the planner's ``1e-9`` slack) or one ulp
    either side of it.  Half the planners are the ablation's Eq. 7-blind
    one, whose thresholds come from its own ``_effcap_profile``.
    """
    slot = draw(st.sampled_from((60.0, 300.0, 600.0, 3600.0)))
    config = default_config().with_interval(slot)
    if slot == 60.0:
        horizon = 27
    else:
        horizon = draw(st.integers(1, 16))
        config = dataclasses.replace(
            config,
            d_seconds=draw(st.sampled_from((300.0, 600.0, 2000.0, 4646.0))),
        )
    z = draw(st.one_of(st.integers(1, 12), st.just(33)))
    n0 = draw(st.integers(1, z + 3))
    planner = draw(st.sampled_from((Planner, _EffCapBlindPlanner)))(config)

    def load():
        kind = draw(st.sampled_from(("zero", "free", "cap", "effcap")))
        if kind == "zero":
            return 0.0
        if kind == "free":
            return draw(st.floats(0.0, z * config.q))
        a = draw(st.integers(1, z))
        if kind == "cap":
            value = planner.capacity(a) + 1e-9
        else:
            b = draw(st.integers(1, z))
            d = max(1, planner.move_duration(b, a))
            i = draw(st.integers(0, d - 1))
            value = planner._effcap_profile(b, a, d)[i] + 1e-9
        step = draw(st.sampled_from((-np.inf, None, np.inf)))
        return value if step is None else float(np.nextafter(value, step))

    loads = [load() for _ in range(horizon + 1)]
    return planner, loads, n0, z


class TestFeasibility:
    """``Planner._feasibility`` (one gather of a block of load rows
    through the grid's slabs, one comparison, an ``and`` over the slab
    axis) is, for each row, bytewise the
    ``(T, Z, Z, W)`` window comparison reduced over its last axis and
    masked by ``start >= 0`` and ``L[t] <= cap(A)`` that
    ``tests/planner_oracle.py::feasibility_reference`` keeps."""

    @staticmethod
    def _same(planner, loads, n0, z):
        """The case's loads as a block of one row, and as every row of a
        block of three (reversed and all-zero rows around it)."""
        grid = planner._grid(z, len(loads) - 1)
        ref = feasibility_reference(planner, loads, n0, z)
        block = np.array([loads[::-1], loads, [0.0] * len(loads)])
        for fast in (planner._feasibility(grid, np.array([loads]), n0)[0],
                     planner._feasibility(grid, block, n0)[1]):
            assert (fast.shape, fast.dtype) == (ref.shape, ref.dtype)
            assert fast.tobytes() == ref.tobytes()
        return ref

    @given(case=_feasibility_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_bytewise(self, case):
        self._same(*case)

    def test_moves_longer_than_the_horizon(self):
        """At 60 s slots the moves of a 12-size grid take 1-12 intervals;
        over a 4-interval horizon the longer ones are never feasible,
        and the short ones still are."""
        config = default_config().with_interval(60.0)
        planner = Planner(config)
        grid = planner._grid(12, 4)
        dur = np.array(grid.dur)
        assert (dur > 4).any() and (dur <= 4).any()
        feasible = self._same(planner, [config.q * 1.5] * 5, 2, 12)
        assert not feasible[:, dur > 4].any()
        assert feasible[:, dur <= 4].any()

    @pytest.mark.parametrize("slot, horizon, z", [
        (60.0, 27, 7), (300.0, 7, 12), (3600.0, 2, 12), (600.0, 1, 1),
    ])
    def test_the_grid_layout_and_its_bytes(self, slot, horizon, z):
        """The window axis leads: ``W`` window slabs plus the ``cap(A)``
        slab, and no separate start mask; ``_grid_bytes`` counts every
        array and ``dur``'s Z x Z references."""
        planner = Planner(default_config().with_interval(slot))
        grid = planner._grid(z, horizon)
        width = min(max(map(max, grid.dur)), horizon)
        assert grid._fields == (
            "dur", "mcost", "thresh", "windows", "prior", "cap"
        )
        assert grid.windows.shape == (width + 1, horizon, z, z)
        assert grid.thresh.shape == (width + 1, 1, z, z)
        assert grid.prior.shape == (horizon, z, z)
        assert (grid.mcost.shape, grid.cap.shape) == ((z, z), (z,))
        assert planner_module._grid_bytes(grid) == (
            grid.windows.nbytes + grid.thresh.nbytes + grid.prior.nbytes
            + grid.mcost.nbytes + grid.cap.nbytes + 8 * z * z
        )


class TestEffCapOverride:
    """``Planner._effcap_profile`` is the only source of the Eq. 7
    thresholds, so the ablation's blind planner, which overrides it, still
    steers feasibility.  The values were recorded on the planner the
    table-filling DP replaced."""

    def test_ablation_result_is_unchanged(self):
        result = run_effcap_ablation()
        assert (
            result.aware_feasible,
            result.blind_feasible,
            result.blind_underprovision_intervals,
        ) == (True, True, 4)

    def test_blind_planner_moves_later(self):
        config = default_config().with_interval(60.0)
        q = config.q
        load = [q * 1.9] * 14 + [q * 2.9] * 10
        aware = Planner(config).plan(load, 2).first_real_move
        blind = _EffCapBlindPlanner(config).plan(load, 2).first_real_move
        assert (aware.start, aware.end, aware.before, aware.after) == (10, 15, 2, 3)
        assert (blind.start, blind.end, blind.before, blind.after) == (14, 19, 2, 3)


@st.composite
def _request_sequences(draw):
    """``(config, requests)``: requests through one planner.

    Loads are half-multiples of ``q`` (scaled by a few fixed factors),
    so different curves often share a feasibility pattern, and a request
    may repeat an earlier one outright.  ``N0`` may pass
    ``max_machines`` (so ``N0 > Z``), the current load may not fit under
    ``N0``'s capacity (a failing ``t = 0`` check), and spikes past what
    the cluster can reach in time make plans infeasible.
    """
    slot = draw(st.sampled_from((300.0, 600.0, 3600.0)))
    config = dataclasses.replace(
        default_config().with_interval(slot),
        d_seconds=draw(st.sampled_from((300.0, 600.0, 2000.0, 4646.0))),
        max_machines=draw(st.integers(0, 8)),  # 0 = unbounded
    )
    q = config.q
    requests = []
    for _ in range(draw(st.integers(1, 14))):
        if requests and draw(st.booleans()):
            requests.append(draw(st.sampled_from(requests)))
            continue
        top = draw(st.integers(1, 9))
        loads = tuple(
            draw(st.integers(0, 2 * top)) * q / 2
            * draw(st.sampled_from((0.8, 0.95, 1.0)))
            for _ in range(draw(st.integers(1, 8)))
        )
        n0 = draw(st.integers(1, 10))
        current = draw(st.one_of(
            st.none(), st.integers(0, 24).map(lambda k: k * q / 2)
        ))
        requests.append((loads, n0, current))
    return config, requests


class TestPlanMemo:
    """``best_moves`` answers a feasibility pattern it has solved from
    its memo: a request sequence through one planner must plan exactly
    what a fresh planner and the paper-literal oracle plan, and the memo
    must stay within its bound."""

    @staticmethod
    def _memo_bytes(planner):
        return sum(len(key[-1]) for key in planner._plan_memo)

    def _check(self, planner, config, loads, n0, current):
        request = PlanRequest(
            predicted_load=loads, initial_machines=n0, current_load=current
        )
        shared = _outcome(planner.best_moves, request)
        assert shared == _outcome(Planner(config).best_moves, request)
        assert shared == _outcome(
            best_moves_reference, loads, n0, config, current_load=current
        )
        assert planner._plan_memo_bytes == self._memo_bytes(planner)
        assert planner._plan_memo_bytes <= planner_module.PLAN_MEMO_BYTES
        return shared

    @given(case=_request_sequences())
    @settings(max_examples=120, deadline=None)
    def test_a_sequence_plans_what_fresh_planners_plan(self, case):
        config, requests = case
        planner = Planner(config)
        for loads, n0, current in requests:
            self._check(planner, config, loads, n0, current)

    def test_the_sequences_cover_every_branch(self):
        """A hit and a miss of each answer, plan and infeasible (a
        failing base check and ``N0 > Z`` among the latter), each checked
        like the property above."""
        seen = set()
        config = dataclasses.replace(default_config().with_interval(600.0), max_machines=4)
        q = config.q
        planner = Planner(config)
        cases = [
            ((400.0, 500.0, 600.0), 2, None),            # plan
            ((400.0, 500.0, 600.0), 2, None),            # hit
            ((401.0, 502.0, 603.0), 2, None),            # same pattern
            ((400.0, 8000.0, 400.0), 2, None),           # infeasible spike
            ((400.0, 9000.0, 400.0), 2, None),           # hit, new need
            ((400.0, 500.0), 2, 3 * q),                  # base check fails
            ((400.0, 500.0), 6, None),                   # N0 > Z
        ]
        for loads, n0, current in cases:
            before = len(planner._plan_memo)
            outcome = self._check(planner, config, loads, n0, current)
            seen.add((outcome[0], len(planner._plan_memo) > before))
        assert seen == {
            ("plan", True), ("plan", False),
            ("infeasible", True), ("infeasible", False),
        }

    def test_a_hit_is_the_stored_schedule(self):
        planner = Planner(default_config().with_interval(600.0))
        first = planner.plan((400.0, 500.0, 600.0), 2)
        assert planner.plan((401.0, 502.0, 603.0), 2) is first
        assert len(planner._plan_memo) == 1

    def test_an_infeasible_hit_carries_the_current_requirement(self):
        config = dataclasses.replace(default_config().with_interval(600.0), max_machines=4)
        planner = Planner(config)
        needs = []
        for spike in (8000.0, 9000.0):
            with pytest.raises(InfeasiblePlanError) as info:
                planner.plan((400.0, spike, 400.0), 2)
            needs.append(info.value.required_machines)
        assert len(planner._plan_memo) == 1
        assert needs == planner.machines_needed([8000.0, 9000.0])

    def test_eviction_keeps_the_bound_and_the_answers(self, monkeypatch):
        """With room for a few patterns only, least recently used ones
        go first and every answer is still the fresh planner's."""
        config = dataclasses.replace(default_config().with_interval(600.0), max_machines=6)
        key_bytes = 3 * 6 * 6  # horizon 3, Z = 6
        monkeypatch.setattr(planner_module, "PLAN_MEMO_BYTES", 4 * key_bytes)
        planner = Planner(config)
        rng = np.random.default_rng(5)
        curves = [
            tuple(float(v) for v in rng.uniform(100, 1700, 3))
            for _ in range(12)
        ]
        for index in rng.integers(0, len(curves), 60):
            self._check(planner, config, curves[index], 6, None)
            assert len(planner._plan_memo) <= 4
        assert len(planner._plan_memo) == 4

    def test_a_hit_is_used_recently(self, monkeypatch):
        """A pattern answered from the memo moves to the back of the
        eviction queue, so the one evicted next is the stalest.  (N0 = 3
        keeps Z = 3, so every pattern is 27 bytes.)"""
        config = default_config().with_interval(600.0)
        planner = Planner(config)
        first = planner.plan((400.0, 500.0, 600.0), 3)
        monkeypatch.setattr(
            planner_module, "PLAN_MEMO_BYTES", 2 * planner._plan_memo_bytes
        )
        planner.plan((100.0, 100.0, 100.0), 3)
        assert planner.plan((400.0, 500.0, 600.0), 3) is first
        planner.plan((300.0, 300.0, 300.0), 3)  # evicts the flat 100s
        assert len(planner._plan_memo) == 2
        assert planner.plan((400.0, 500.0, 600.0), 3) is first


class TestGridCache:
    """The DP's load-independent grids are kept by bytes, least recently
    used first; a grid larger than the whole bound is built for its
    request and not kept.  Every answer is still a fresh planner's."""

    @staticmethod
    def _bytes(planner):
        return sum(
            planner_module._grid_bytes(grid)
            for grid in planner._grid_cache.values()
        )

    def _plan(self, planner, loads, n0):
        request = PlanRequest(predicted_load=loads, initial_machines=n0)
        outcome = _outcome(planner.best_moves, request)
        assert outcome == _outcome(Planner(planner.config).best_moves, request)
        assert planner._grid_cache_bytes == self._bytes(planner)
        assert planner._grid_cache_bytes <= planner_module.GRID_CACHE_BYTES
        return outcome

    def test_a_large_grid_is_not_kept(self, monkeypatch):
        config = default_config().with_interval(600.0)
        q = config.q
        planner = Planner(config)
        small = [((400.0, 500.0, 600.0), 2), ((900.0, 1200.0, 1500.0), 3)]
        before = [self._plan(planner, loads, n0) for loads, n0 in small]
        kept = dict(planner._grid_cache)
        monkeypatch.setattr(
            planner_module, "GRID_CACHE_BYTES", 4 * planner._grid_cache_bytes
        )
        # A spike to 60 machines needs a Z = 60 grid, far past the bound.
        self._plan(planner, (400.0, 60 * q, 400.0), 2)
        assert (60, 3) not in planner._grid_cache
        assert planner._grid_cache == kept
        assert all(
            planner._grid_cache[key] is grid for key, grid in kept.items()
        )
        assert [self._plan(planner, loads, n0) for loads, n0 in small] == before

    def test_the_least_recently_used_grid_goes_first(self, monkeypatch):
        config = default_config().with_interval(600.0)
        planner = Planner(config)
        self._plan(planner, (400.0, 500.0, 600.0), 3)            # Z = 3
        self._plan(planner, (400.0, 500.0, 600.0, 700.0), 3)     # T = 4
        monkeypatch.setattr(
            planner_module, "GRID_CACHE_BYTES", planner._grid_cache_bytes
        )
        self._plan(planner, (400.0, 500.0, 600.0), 3)            # a hit
        self._plan(planner, (400.0, 500.0, 500.0, 500.0), 2)     # Z = 2
        assert list(planner._grid_cache) == [(3, 3), (2, 4)]
