"""The paper's Algorithms 1-3 as written: the planner's test oracle.

``repro.core.planner.Planner`` fills the ``(t, A)`` cost table bottom-up
with a handful of array operations per interval.  This module is the
recursive, memoised transcription it replaced in ``src/``: for each
candidate final size (smallest first) reset the memo, compute
``cost(T, i)`` (Algorithm 2) through ``sub-cost`` (Algorithm 3), and
backtrack through the memoised best moves on the first feasible hit
(Algorithm 1).  It borrows only the planner's cached move primitives
(``move_duration``, ``move_cost``, ``capacity``, ``machines_needed``);
feasibility is re-derived here from ``model.effective_capacity``.

``feasibility_reference`` is the planner's feasibility pattern as a
``(T, Z, Z, W)`` window comparison reduced over its last axis and
masked by ``start >= 0`` and ``L[t] <= cap(A)``, the oracle of the
slab-first gather ``Planner._feasibility`` makes; it reads the Eq. 7
thresholds from the planner's ``_effcap_profile``, as the grid does.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PStoreConfig
from repro.core import model
from repro.core.moves import Move, MoveSchedule
from repro.core.planner import Planner, PlanRequest
from repro.errors import InfeasiblePlanError

_INF = math.inf


def best_moves_reference(
    predicted_load: Sequence[float],
    initial_machines: int,
    config: PStoreConfig,
    current_load: Optional[float] = None,
) -> MoveSchedule:
    """Literal transcription of the paper's Algorithms 1-3.

    Matches the paper's structure: for each candidate final size
    (smallest first), reset the memo table, compute ``cost(T, i)``
    recursively, and backtrack through the memoised best moves on the
    first feasible hit.
    """
    request = PlanRequest(
        predicted_load=tuple(predicted_load),
        initial_machines=initial_machines,
        current_load=current_load,
    )
    loads = request.load_array()
    horizon = request.horizon
    n0 = request.initial_machines
    planner = Planner(config)  # reuse cached move primitives only
    # Hoisted: Algorithm 2's argmin bound Z depends only on the plan
    # inputs, so compute it once here instead of re-deriving it (max over
    # the load curve plus machines_needed) for every candidate ``before``
    # of every recursive call.
    z = len(memo_z_bound(loads, n0, planner))

    for final in range(1, z + 1):
        memo: Dict[Tuple[int, int], Tuple[float, Optional[Tuple[int, int]]]] = {}
        if _cost_recursive(horizon, final, loads, n0, planner, memo, z) != _INF:
            moves: List[Move] = []
            t, machines = horizon, final
            while t > 0:
                _, prev = memo[(t, machines)]
                assert prev is not None
                prev_t, prev_machines = prev
                moves.append(
                    Move(start=prev_t, end=t, before=prev_machines, after=machines)
                )
                t, machines = prev_t, prev_machines
            moves.reverse()
            return MoveSchedule(moves)
    raise InfeasiblePlanError(
        f"no feasible move sequence from N0={n0} over horizon T={horizon}",
        required_machines=planner.machines_needed([max(loads)])[0],
    )


def _cost_recursive(
    t: int,
    after: int,
    loads: List[float],
    n0: int,
    planner: Planner,
    memo: Dict[Tuple[int, int], Tuple[float, Optional[Tuple[int, int]]]],
    z: int,
) -> float:
    """Algorithm 2 (``cost``)."""
    if t < 0 or (t == 0 and after != n0):
        return _INF
    if loads[t] > planner.capacity(after) + 1e-9:
        return _INF
    if (t, after) in memo:
        return memo[(t, after)][0]
    if t == 0:
        memo[(t, after)] = (float(after), None)
        return float(after)
    best = _INF
    best_prev: Optional[Tuple[int, int]] = None
    for before in range(1, z + 1):
        candidate = _sub_cost_recursive(
            t, before, after, loads, n0, planner, memo, z
        )
        if candidate < best:
            best = candidate
            duration = max(1, planner.move_duration(before, after))
            best_prev = (t - duration, before)
    memo[(t, after)] = (best, best_prev)
    return best


def memo_z_bound(loads: List[float], n0: int, planner: Planner) -> range:
    """Machines 1..Z that Algorithm 2's argmin ranges over."""
    z = max(planner.machines_needed([max(loads)])[0], n0)
    if planner.config.max_machines:
        z = min(z, planner.config.max_machines)
    return range(z)


def _sub_cost_recursive(
    t: int,
    before: int,
    after: int,
    loads: List[float],
    n0: int,
    planner: Planner,
    memo: Dict[Tuple[int, int], Tuple[float, Optional[Tuple[int, int]]]],
    z: int,
) -> float:
    """Algorithm 3 (``sub-cost``)."""
    duration = planner.move_duration(before, after)
    move_cost = planner.move_cost(before, after)
    if duration == 0:
        duration = 1
        move_cost = float(before)
    start = t - duration
    if start < 0:
        return _INF
    q = planner.config.q
    for i in range(1, duration + 1):
        eff = model.effective_capacity(before, after, i / duration, q)
        if loads[start + i] > eff + 1e-9:
            return _INF
    prior = _cost_recursive(start, before, loads, n0, planner, memo, z)
    if prior == _INF:
        return _INF
    return prior + move_cost


def feasibility_reference(
    planner: Planner, loads: Sequence[float], n0: int, z: int
) -> np.ndarray:
    """``feasible[t - 1, B - 1, A - 1]`` as a ``(T, Z, Z, W)`` window
    comparison reduced over its last axis, masked by ``start >= 0`` and
    ``L[t] <= cap(A)``: the reference for ``Planner._feasibility``'s
    slab-first gather.  Built from the planner's move primitives, so an
    Eq. 7 override (the ablation's blind planner) reaches it too."""
    horizon = len(loads) - 1
    sizes = range(1, z + 1)
    if n0 > z or not loads[0] <= planner.capacity(n0) + 1e-9:
        return np.zeros((horizon, z, z), dtype=bool)
    dur = np.array(
        [[max(1, planner.move_duration(b, a)) for a in sizes] for b in sizes],
        dtype=np.intp,
    )
    width = min(int(dur.max()), horizon)
    thresh = np.full((z, z, width), _INF)
    for b in sizes:
        for a in sizes:
            d = int(dur[b - 1, a - 1])
            if d <= horizon:
                thresh[b - 1, a - 1, :d] = (
                    np.array(planner._effcap_profile(b, a, d)) + 1e-9
                )
    start = np.arange(1, horizon + 1)[:, None, None] - dur
    windows = np.clip(start[..., None] + np.arange(1, width + 1), 0, horizon)
    cap = np.array([planner.capacity(a) + 1e-9 for a in sizes])
    load = np.asarray(loads, dtype=float)
    feasible = (load[windows] <= thresh).all(axis=-1)
    feasible &= start >= 0
    feasible &= (load[1:, None] <= cap)[:, None, :]
    return feasible
