"""Predictive-elasticity move planner (Algorithms 1-3 of the paper).

Given a time series of predicted load ``L[1..T]`` and the current cluster
size ``N0``, the planner finds the cheapest feasible sequence of
reconfiguration *moves* such that the predicted load never exceeds the
system's (effective) capacity — including while data is in flight, when
capacity is degraded per Eq. 7.

:class:`Planner` is a bottom-up dynamic program over the ``(t, A)`` grid.
One table serves every candidate final size, so the outer loop of
Algorithm 1 costs nothing extra.  The loads enter the DP only through
which moves are feasible when, so a planner remembers the plan of each
feasibility pattern it has solved and answers a repeat without the DP.  The paper's recursive, memoised
Algorithms 1-3, transcribed literally, are the test oracle in
``tests/planner_oracle.py``; the differential tests hold this planner to
it move for move.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import PStoreConfig
from ..errors import InfeasiblePlanError, PlanningError
from . import model
from .moves import Move, MoveSchedule

_INF = math.inf
_NAN = math.nan
#: A memo miss (a memoised plan may be None: infeasible).
_UNPLANNED = object()

#: Feasibility-pattern bytes (``T * Z * Z``) of the plans one
#: :class:`Planner` remembers, least recently used evicted first.  A
#: capacity_zoo run plans 572 slots through 63-123 distinct patterns of
#: at most 2.3 kB; a fig12 P-Store cell 38,600 slots through 860-1,640
#: of about 2 kB, so 4 MiB holds every one of them, while a plan over
#: hundreds of machines keeps only its last few patterns.  A block of
#: rows (:meth:`Planner.rows`) touches the memo only for the rows
#: :meth:`Planner.best_moves` is asked to plan, in slot order, so it
#: holds what one plan per slot would leave there.
PLAN_MEMO_BYTES = 4 << 20

#: Bytes of load-independent DP tables (:class:`_Grid`) one
#: :class:`Planner` keeps, least recently used evicted first.  A grid
#: takes about ``585 Z^2`` bytes at a 7-interval horizon of minute slots
#: (``330 Z^2`` at 5-minute slots, where moves span at most 3):
#: capacity_zoo's largest is Z = 18 (106 kB), and 64 MiB still keeps one
#: of Z = 330 (about 9e4 txn/s).  A larger grid is built for its request
#: and not kept, so one report of a huge load cannot pin hundreds of MB.
GRID_CACHE_BYTES = 64 << 20

#: Bytes of gathered loads one feasibility gather of
#: :meth:`Planner.rows` holds (``8 (W + 1) T Z^2`` a row): a block
#: of rows at one ``Z`` is gathered this many bytes at a time, and a row
#: larger than this alone.  1 MiB is 14 rows at Z = 18 and 5-minute
#: slots; past a few rows a gather costs per element, not per call.
GATHER_BYTES = 1 << 20


@dataclass(frozen=True)
class PlanRequest:
    """Inputs to one planning run.

    Attributes
    ----------
    predicted_load:
        ``L[1..T]``: predicted aggregate load (txn/s) for each of the next
        ``T`` planner intervals.  Entry 0 of the internal array is the
        current load, supplied separately.
    initial_machines:
        ``N0``, machines allocated now.
    current_load:
        measured aggregate load right now (defaults to the first predicted
        point); used for the ``t = 0`` feasibility check.

    Every load must be finite and non-negative: there is no capacity a
    NaN or an infinite load fits under, so such a request is refused with
    :class:`PlanningError` rather than planned.
    """

    predicted_load: Tuple[float, ...]
    initial_machines: int
    current_load: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.predicted_load:
            raise PlanningError("predicted_load must be non-empty")
        if self.initial_machines < 1:
            raise PlanningError("initial_machines must be >= 1")
        # ``0 <= v < inf`` is false for NaN and for inf: one pass.
        if not all(0 <= v < _INF for v in self.predicted_load):
            raise PlanningError(
                "predicted load values must be finite and non-negative"
            )
        if self.current_load is not None and not 0 <= self.current_load < _INF:
            raise PlanningError(
                f"current_load must be finite and non-negative, "
                f"got {self.current_load!r}"
            )

    @property
    def horizon(self) -> int:
        return len(self.predicted_load)

    def load_array(self) -> List[float]:
        """``L[0..T]`` with ``L[0]`` the current load."""
        current = (
            self.current_load
            if self.current_load is not None
            else self.predicted_load[0]
        )
        return [current, *self.predicted_load]


class _Grid(NamedTuple):
    """The load-independent half of a DP over ``Z`` sizes and ``T`` intervals.

    Axes: ``b = B - 1`` (before), ``a = A - 1`` (after), ``t - 1`` for
    the interval ``t`` a move *ends* at; ``W`` is the longest move that
    fits inside the horizon.  ``windows`` and ``thresh`` are ``W + 1``
    slabs along their leading axis: slab ``i < W`` holds the load index
    and Eq. 7 threshold of the ``i + 1``-th interval a move spans, slab
    ``W`` Algorithm 2's ``L[t] <= cap(A)``.  A move that would start
    before ``t = 0`` reads load index ``T + 1``, a NaN that fails every
    comparison.
    """

    dur: List[List[int]]  # (Z, Z): max(1, T(B, A)) in intervals, for the backtrack
    mcost: np.ndarray  # (Z, Z): C(B, A)
    thresh: np.ndarray  # (W + 1, 1, Z, Z): eff-cap + 1e-9 (+inf past a move's end), cap(A) + 1e-9
    windows: np.ndarray  # (W + 1, T, Z, Z): the load index each threshold is held to
    prior: np.ndarray  # (T, Z, Z): flat index (t - dur) * Z + b into the cost table
    cap: np.ndarray  # (Z,): cap(A) + 1e-9


def _grid_bytes(grid: _Grid) -> int:
    """What a :class:`_Grid` holds: its arrays, and ``dur``'s Z x Z
    references."""
    return sum(table.nbytes for table in grid[1:]) + 8 * len(grid.cap) ** 2


class PlanRow(NamedTuple):
    """One plan as the DP sees it (:meth:`Planner.rows`): the loads
    enter only through ``feasible``."""

    z: int  # sizes the DP spans: the row's need, at least N0, within the cap
    n0: int
    needed: int  # machines the row's peak needs (Planner.machines_needed)
    grid: _Grid
    feasible: np.ndarray  # (T, Z, Z): Planner._feasibility of the row


class Planner:
    """Bottom-up dynamic-programming planner.

    Parameters
    ----------
    config:
        supplies ``Q`` (per-server target rate), ``D`` (in intervals via
        ``d_intervals``), partitions per node, and the optional hard cap on
        machine count.
    """

    def __init__(self, config: PStoreConfig):
        self._config = config
        # Caches keyed by (B, A): durations in intervals and per-move cost,
        # plus the per-interval effective-capacity profile of each move.
        self._duration_cache: Dict[Tuple[int, int], int] = {}
        self._cost_cache: Dict[Tuple[int, int], float] = {}
        self._effcap_cache: Dict[Tuple[int, int], Tuple[float, ...]] = {}
        # The DP's load-independent tables by (Z, horizon), least
        # recently used first.
        self._grid_cache: "OrderedDict[Tuple[int, int], _Grid]" = (
            OrderedDict()
        )
        self._grid_cache_bytes = 0
        # Plans (None: infeasible) by (Z, horizon, N0, feasibility
        # pattern), least recently used first.
        self._plan_memo: "OrderedDict[tuple, Optional[MoveSchedule]]" = (
            OrderedDict()
        )
        self._plan_memo_bytes = 0
        # Moves by (start, end, B, A), least recently used evicted first:
        # a backtrack takes one per interval, mostly the same no-op
        # moves, and a move is an immutable value.
        self._move = lru_cache(maxsize=4096)(Move)

    @property
    def config(self) -> PStoreConfig:
        return self._config

    # ------------------------------------------------------------------
    # Move primitives (cached)
    # ------------------------------------------------------------------

    def move_duration(self, before: int, after: int) -> int:
        """``T(B,A)`` in whole planner intervals (0 for the no-op move)."""
        key = (before, after)
        cached = self._duration_cache.get(key)
        if cached is None:
            cached = model.move_time_intervals(
                before,
                after,
                self._config.partitions_per_node,
                self._config.d_intervals,
            )
            self._duration_cache[key] = cached
        return cached

    def move_cost(self, before: int, after: int) -> float:
        """``C(B,A)`` in machine-intervals (``B`` for the no-op move)."""
        key = (before, after)
        cached = self._cost_cache.get(key)
        if cached is None:
            if before == after:
                cached = float(before)
            else:
                cached = self.move_duration(before, after) * model.avg_machines_allocated(
                    before, after
                )
            self._cost_cache[key] = cached
        return cached

    def capacity(self, machines: int) -> float:
        return model.capacity(machines, self._config.q)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def machines_needed(self, peaks: Sequence[float]) -> List[int]:
        """Machines each peak load needs so per-server load stays at or
        below ``Q`` (at least one)."""
        q = self._config.q
        return [max(1, math.ceil(peak / q - 1e-9)) for peak in peaks]

    def best_moves(self, request: Union[PlanRequest, PlanRow]) -> MoveSchedule:
        """Algorithm 1: cheapest feasible move sequence over the horizon.

        Raises :class:`InfeasiblePlanError` when no feasible sequence
        exists (the cluster cannot scale out fast enough for the predicted
        load), carrying the machine count the spike would require.  A
        request is planned as a block of one row (:meth:`rows`); a
        :class:`PlanRow` of a block was gathered with it.  A row whose
        ``(Z, T, N0)`` and feasibility pattern the planner has met
        before gets the stored answer: the same schedule object, or the
        error with this row's requirement.
        """
        row = (
            request if type(request) is PlanRow
            else next(self.rows(
                np.array([request.load_array()]), request.initial_machines
            ))
        )
        z, n0, needed, grid, feasible = row
        horizon = len(feasible)
        # The plan depends on the loads only through ``feasible``; a
        # pattern seen before is answered from the memo, exactly.
        key = (z, horizon, n0, feasible.tobytes())
        memo = self._plan_memo
        schedule = memo.get(key, _UNPLANNED)
        if schedule is not _UNPLANNED:
            memo.move_to_end(key)
        else:
            cost, back = self._fill_tables(grid, feasible, n0)
            # Algorithm 1's outer loop: the smallest final size with a
            # finite cost.
            reached = np.flatnonzero(cost[horizon] < _INF)
            schedule = (
                self._backtrack(grid, back, int(reached[0]), n0)
                if reached.size else None
            )
            memo[key] = schedule
            self._plan_memo_bytes += len(key[-1])
            while self._plan_memo_bytes > PLAN_MEMO_BYTES:
                self._plan_memo_bytes -= len(memo.popitem(last=False)[0][-1])
        if schedule is None:
            raise InfeasiblePlanError(
                f"no feasible move sequence from N0={n0} over horizon T={horizon}",
                required_machines=needed,
            )
        return schedule

    def rows(self, loads: np.ndarray, n0: int) -> Iterator[PlanRow]:
        """Each row of ``loads`` as :meth:`best_moves` plans it, in row
        order.

        ``loads`` is ``(n, T + 1)``: row ``i`` is ``L[0..T]`` of one
        plan from ``N0`` machines.  The rows stop before the first one
        holding a non-finite or negative load; when that is the first
        row, :class:`PlanningError` (no capacity fits under a NaN or an
        infinite load).

        Each row's ``Z`` comes from its own peak.  A row whose pattern
        is not gathered yet when the caller reaches it is gathered
        together with the next rows at its ``Z``, as many as
        :data:`GATHER_BYTES` holds, so a caller that stops early leaves
        later rows ungathered unless they shared a gather with a row it
        reached.
        """
        horizon = loads.shape[1] - 1
        if len(loads) == 1:
            # A slot decided alone: Python's sum, min and max of one row
            # cost less than two numpy reductions.  The sum is NaN when a
            # value is, and the row's low is then NaN too.
            values = loads[0].tolist()
            total = sum(values)
            lows = [min(values) if total == total else total]
            peaks = [max(values)]
        else:
            lows, peaks = loads.min(axis=1).tolist(), loads.max(axis=1).tolist()
        # ``0 <= low`` and ``peak < inf`` are false for NaN as well.
        count = next(
            (i for i, (low, peak) in enumerate(zip(lows, peaks))
             if not (0 <= low and peak < _INF)),
            len(peaks),
        )
        if count == 0:
            raise PlanningError(
                "predicted load values must be finite and non-negative"
            )
        needed = self.machines_needed(peaks[:count])
        sizes = [max(v, n0) for v in needed]
        if self._config.max_machines:
            sizes = [min(z, self._config.max_machines) for z in sizes]
        gathered: List[Optional[Tuple[_Grid, np.ndarray]]] = [None] * count
        for i, z in enumerate(sizes):
            if gathered[i] is None:
                # Gather this row's pattern with the next rows at its Z,
                # as many as GATHER_BYTES holds.
                grid = self._grid(z, horizon)
                step = max(1, GATHER_BYTES // (8 * grid.windows.size))
                block = [j for j in range(i, count) if sizes[j] == z][:step]
                feasible = self._feasibility(
                    grid, loads if len(block) == len(loads) else loads[block], n0
                )
                for j, pattern in zip(block, feasible):
                    gathered[j] = grid, pattern
            grid, feasible = gathered[i]
            yield PlanRow(z, n0, needed[i], grid, feasible)

    def plan(
        self,
        predicted_load: Sequence[float],
        initial_machines: int,
        current_load: Optional[float] = None,
    ) -> MoveSchedule:
        """Convenience wrapper around :meth:`best_moves`."""
        return self.best_moves(
            PlanRequest(
                predicted_load=tuple(predicted_load),
                initial_machines=initial_machines,
                current_load=current_load,
            )
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _feasibility(
        self, grid: _Grid, loads: np.ndarray, n0: int
    ) -> np.ndarray:
        """``feasible[i, t - 1, B - 1, A - 1]``: whether the move
        ``B -> A`` may end at interval ``t`` under row ``i`` of ``loads``.

        That is Algorithm 3's effective-capacity windows (lines 6-9),
        the move starting at or after ``t = 0``, and Algorithm 2's
        ``L[t] <= cap(A)``: one gather of the rows through the grid's
        slabs, one comparison and an ``and`` over the slab axis.
        The base case (Algorithm 2, lines 5-6: at ``t = 0`` only ``N0``
        is reachable, and only if the current load fits under its
        capacity) is folded in: where it fails, or ``N0`` is past ``Z``,
        no move is feasible, which leaves no plan either way.
        """
        rows, width = loads.shape
        if n0 > len(grid.cap):
            return np.zeros((rows, *grid.windows.shape[1:]), dtype=bool)
        load = np.empty((rows, width + 1))
        load[:, :width] = loads
        load[:, width] = _NAN
        # A row whose current load does not fit under cap(N0) is all NaN,
        # which fails every comparison.
        fits = grid.cap.item(n0 - 1)
        for i, current in enumerate(loads[:, 0].tolist()):
            if not current <= fits:
                load[i] = _NAN
        # One row (every slot decided alone) takes from a flat row, which
        # is cheaper than a take along an axis.
        gathered = (
            load[0].take(grid.windows)[None] if rows == 1
            else np.take(load, grid.windows, axis=1)
        )
        return np.logical_and.reduce(gathered <= grid.thresh, axis=1)

    def _fill_tables(
        self, grid: _Grid, feasible: np.ndarray, n0: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``cost[t, A-1]`` and back-pointers for every state.

        ``cost[t, A-1]`` is the minimum cost of a feasible series of moves
        that ends with ``A`` machines at interval ``t``; ``back[t, A-1]``
        is ``B - 1`` of the last move of that series, which started at
        ``t - dur[B-1, A-1]`` (meaningful only where the cost is finite).

        :meth:`_feasibility` is folded into a per-``t`` move cost that is
        ``+inf`` where the move is infeasible.  Each interval is then
        Algorithm 3's scan over ``B`` as one gather of the prior costs,
        one add and a column ``argmin`` / ``min``: ``argmin`` takes the
        first minimum, the scalar scan's strict-``<`` ascending-``B``
        tie-break, and ``min`` is that candidate's value.
        """
        horizon, z = feasible.shape[0], len(grid.cap)
        cost = np.full((horizon + 1, z), _INF)
        back = np.zeros((horizon + 1, z), dtype=np.intp)
        if n0 <= z:
            cost[0, n0 - 1] = float(n0)
        step = np.where(feasible, grid.mcost, _INF)

        flat = cost.reshape(-1)
        rows = zip(grid.prior, step, back[1:], cost[1:])
        for prior, move_cost, best, row in rows:
            candidates = flat.take(prior)
            candidates += move_cost
            candidates.argmin(axis=0, out=best)
            np.minimum.reduce(candidates, axis=0, out=row)
        return cost, back

    def _grid(self, z: int, horizon: int) -> _Grid:
        """The :class:`_Grid` for ``Z`` sizes over ``horizon`` intervals,
        kept while the cache's bytes allow (:data:`GRID_CACHE_BYTES`)."""
        cache = self._grid_cache
        grid = cache.get((z, horizon))
        if grid is not None:
            cache.move_to_end((z, horizon))
            return grid
        sizes = range(1, z + 1)
        dur = np.array(
            [[max(1, self.move_duration(b, a)) for a in sizes] for b in sizes],
            dtype=np.intp,
        )
        mcost = np.array([[self.move_cost(b, a) for a in sizes] for b in sizes])
        # A move longer than the horizon cannot end inside it (it would
        # start before t = 0 at every t), so no window is wider than that.
        width = min(int(dur.max()), horizon)
        thresh = np.full((width + 1, 1, z, z), _INF)
        for b in sizes:
            for a in sizes:
                d = int(dur[b - 1, a - 1])
                if d <= horizon:
                    # eff + 1e-9 per interval: the scalar comparison's
                    # ``load > eff + 1e-9`` exactly.
                    thresh[:d, 0, b - 1, a - 1] = (
                        np.array(self._effcap_profile(b, a, d)) + 1e-9
                    )
        cap = np.array([self.capacity(a) + 1e-9 for a in sizes])
        thresh[width, 0] = cap
        # The move ending at t starts at t - dur and spans t - dur + 1 .. t;
        # the window's padding (thresh +inf) may read any load, and a move
        # starting before t = 0 reads the NaN slot T + 1 throughout.
        ends = np.arange(1, horizon + 1)[:, None, None]
        start = ends - dur
        windows = np.empty((width + 1, horizon, z, z), dtype=np.intp)
        np.clip(
            start + np.arange(1, width + 1)[:, None, None, None],
            0, horizon, out=windows[:width],
        )
        windows[:width, start < 0] = horizon + 1
        windows[width] = ends
        grid = _Grid(
            dur=dur.tolist(),
            mcost=mcost,
            thresh=thresh,
            windows=windows,
            prior=np.maximum(start, 0) * z + np.arange(z)[:, None],
            cap=cap,
        )
        size = _grid_bytes(grid)
        if size <= GRID_CACHE_BYTES:
            cache[(z, horizon)] = grid
            self._grid_cache_bytes += size
            while self._grid_cache_bytes > GRID_CACHE_BYTES:
                self._grid_cache_bytes -= _grid_bytes(
                    cache.popitem(last=False)[1]
                )
        return grid

    def _effcap_profile(
        self, before: int, after: int, duration: int
    ) -> Tuple[float, ...]:
        """Effective capacity at the end of each interval of a move."""
        key = (before, after)
        cached = self._effcap_cache.get(key)
        if cached is None:
            q = self._config.q
            cached = tuple(
                model.effective_capacity(before, after, i / duration, q)
                for i in range(1, duration + 1)
            )
            self._effcap_cache[key] = cached
        return cached

    def _backtrack(
        self, grid: _Grid, back: np.ndarray, final: int, n0: int
    ) -> MoveSchedule:
        """Follow ``back`` from ``T`` and ``A = final + 1`` to ``(0, N0)``."""
        moves: List[Move] = []
        back, dur, move = back.tolist(), grid.dur, self._move
        t, a = len(back) - 1, final
        while t > 0:
            b = back[t][a]
            start = t - dur[b][a]
            moves.append(move(start, t, b + 1, a + 1))
            t, a = start, b
        if t != 0 or a != n0 - 1:  # pragma: no cover - table invariant
            raise PlanningError("backtracking did not reach the initial state")
        moves.reverse()
        return MoveSchedule(moves)
