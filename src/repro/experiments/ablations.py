"""Ablation experiments for P-Store's design choices.

These are not in the paper; they quantify the contribution of individual
mechanisms DESIGN.md calls out:

* **effective-capacity awareness** — what if the planner treated a move
  as instantly delivering the target capacity (ignoring Eq. 7)?
* **three-phase schedule** — round counts with vs without Phase 3's
  partial-fill trick (Table 1's 11 vs >= 12 rounds);
* **scale-in debounce** — reconfiguration churn with and without the
  3-cycle confirmation heuristic;
* **prediction inflation** — the cost/violation trade of the 15% buffer.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.report import claim
from ..config import default_config
from ..core import Planner, model
from ..core.moves import MoveSchedule
from ..elasticity import PStoreStrategy
from ..errors import ConfigurationError, InfeasiblePlanError
from ..prediction import OraclePredictor
from ..sim import run_capacity_simulation
from ..squall import build_migration_schedule
from ..workload import b2w_like_trace
from .common import by_cell


# ----------------------------------------------------------------------
# Ablation 1: effective-capacity awareness in the planner
# ----------------------------------------------------------------------


class _EffCapBlindPlanner(Planner):
    """A planner that pretends capacity jumps instantly to cap(A)."""

    def _effcap_profile(self, before, after, duration):
        # Scale-out: assume full target capacity immediately; scale-in:
        # assume the before-capacity persists until the move ends.
        if after > before:
            return tuple(model.capacity(after, self._config.q) for _ in range(duration))
        return tuple(model.capacity(before, self._config.q) for _ in range(duration))


@dataclass
class EffCapAblationResult:
    """Feasibility and underprovisioning with/without Eq. 7."""

    aware_feasible: bool
    blind_feasible: bool
    blind_underprovision_intervals: int   # intervals where the blind plan
                                          # actually dips below the load


def run_effcap_ablation() -> EffCapAblationResult:
    """Plan a steep ramp with and without Eq. 7 awareness.

    At one-minute intervals a 2 -> 3 move spans ~5 intervals, so a
    planner that believes capacity arrives instantly will happily let the
    move straddle the load jump; evaluating its schedule under the *true*
    effective capacity exposes underprovisioned intervals.
    """
    config = default_config().with_interval(60.0)
    q = config.q
    # Flat just under 2 machines' capacity, then a jump to nearly 3.
    load = [q * 1.9] * 14 + [q * 2.9] * 10

    aware = Planner(config)
    blind = _EffCapBlindPlanner(config)

    def try_plan(planner: Planner) -> Optional[MoveSchedule]:
        try:
            return planner.plan(load, initial_machines=2)
        except InfeasiblePlanError:
            return None

    aware_schedule = try_plan(aware)
    blind_schedule = try_plan(blind)

    underprovision = 0
    if blind_schedule is not None:
        for move in blind_schedule:
            if move.is_noop:
                continue
            for i in range(1, move.duration + 1):
                true_eff = model.effective_capacity(
                    move.before, move.after, i / move.duration, q
                )
                if load[move.start + i - 1] > true_eff + 1e-9:
                    underprovision += 1
    return EffCapAblationResult(
        aware_feasible=aware_schedule is not None,
        blind_feasible=blind_schedule is not None,
        blind_underprovision_intervals=underprovision,
    )


# ----------------------------------------------------------------------
# Ablation 2: three-phase schedule vs naive full blocks
# ----------------------------------------------------------------------


@dataclass
class ScheduleAblationRow:
    """Round counts for one move, phased vs naive."""

    before: int
    after: int
    phased_rounds: int
    naive_rounds: int

    @property
    def saved_rounds(self) -> int:
        return self.naive_rounds - self.phased_rounds


@dataclass
class ScheduleAblationResult:
    """All schedule-ablation rows."""

    rows: List[ScheduleAblationRow]

    @property
    def total_saved(self) -> int:
        return sum(r.saved_rounds for r in self.rows)


def run_schedule_ablation(
    cases: Sequence[Tuple[int, int]] = ((3, 14), (3, 11), (4, 15), (5, 23), (2, 7)),
) -> ScheduleAblationResult:
    """Compare the 3-phase schedule against naive ceil(delta/s) blocks."""
    rows = []
    for before, after in cases:
        schedule = build_migration_schedule(before, after)
        smaller = min(before, after)
        delta = abs(after - before)
        naive = math.ceil(delta / smaller) * smaller if delta > smaller else max(smaller, delta)
        rows.append(
            ScheduleAblationRow(
                before=before,
                after=after,
                phased_rounds=schedule.n_rounds,
                naive_rounds=naive,
            )
        )
    return ScheduleAblationResult(rows=rows)


# ----------------------------------------------------------------------
# Ablation 3: scale-in confirmation debounce
# ----------------------------------------------------------------------


@dataclass
class DebounceAblationResult:
    """Move counts and costs with/without debounce."""

    moves_with_debounce: int
    moves_without_debounce: int
    cost_with_debounce: float
    cost_without_debounce: float


def run_debounce_ablation(
    n_days: int = 7,
    seed: int = 19,
) -> DebounceAblationResult:
    """Noisy daily load: count reconfigurations with debounce 3 vs 1."""
    base = default_config().with_interval(300.0)
    trace = b2w_like_trace(
        n_days=n_days,
        slot_seconds=300.0,
        seed=seed,
        base_level=1250.0 * 300.0,
        noise_sigma=0.10,
    )
    truth = trace.as_rate_per_second()
    results = {}
    for confirmations in (3, 1):
        config = dataclasses.replace(base, scale_in_confirmations=confirmations)
        strategy = PStoreStrategy(
            config, OraclePredictor(truth), name=f"p-store-d{confirmations}"
        )
        results[confirmations] = run_capacity_simulation(
            trace,
            strategy,
            config,
            initial_machines=config.servers_for_load(truth[0] * 1.3),
        )
    return DebounceAblationResult(
        moves_with_debounce=results[3].moves_started,
        moves_without_debounce=results[1].moves_started,
        cost_with_debounce=results[3].cost_machine_slots,
        cost_without_debounce=results[1].cost_machine_slots,
    )


# ----------------------------------------------------------------------
# Ablation 4: prediction inflation sweep
# ----------------------------------------------------------------------


@dataclass
class InflationPoint:
    """Cost and violations at one inflation setting."""

    inflation: float
    cost_machine_slots: float
    pct_time_insufficient: float


@dataclass
class InflationAblationResult:
    """The swept inflation points."""

    points: List[InflationPoint]

    def monotone_cost(self) -> bool:
        costs = [p.cost_machine_slots for p in self.points]
        return costs == sorted(costs)


def run_inflation_ablation(
    inflations: Sequence[float] = (1.0, 1.15, 1.3, 1.5),
    n_days: int = 7,
    seed: int = 23,
) -> InflationAblationResult:
    """Sweep the prediction-inflation buffer (footnote to Fig. 12)."""
    base = default_config().with_interval(300.0)
    trace = b2w_like_trace(
        n_days=n_days,
        slot_seconds=300.0,
        seed=seed,
        base_level=1250.0 * 300.0,
    )
    truth = trace.as_rate_per_second()
    points = []
    for inflation in inflations:
        config = dataclasses.replace(base, prediction_inflation=inflation)
        strategy = PStoreStrategy(config, OraclePredictor(truth))
        result = run_capacity_simulation(
            trace,
            strategy,
            config,
            initial_machines=config.servers_for_load(truth[0] * 1.3),
        )
        points.append(
            InflationPoint(
                inflation=inflation,
                cost_machine_slots=result.cost_machine_slots,
                pct_time_insufficient=result.pct_time_insufficient,
            )
        )
    return InflationAblationResult(points=points)


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------

ABLATION_CELLS = ("effcap", "schedule", "debounce", "inflation")


def grid(n_days: int = 7) -> list:
    from ..runner import RunSpec

    seeds = {"debounce": 19, "inflation": 23}
    return [
        RunSpec(
            experiment="ablations",
            cell=cell,
            seed=seeds.get(cell, 0),
            overrides=(("n_days", int(n_days)),),
        )
        for cell in ABLATION_CELLS
    ]


def run_cell(spec, config) -> dict:
    """The ablation a grid cell names, as plain data."""
    n_days = int(spec.option("n_days", 7))
    if spec.cell == "effcap":
        return dataclasses.asdict(run_effcap_ablation())
    if spec.cell == "schedule":
        result = run_schedule_ablation()
        return {**dataclasses.asdict(result), "total_saved": result.total_saved}
    if spec.cell == "debounce":
        return dataclasses.asdict(
            run_debounce_ablation(n_days=n_days, seed=spec.seed)
        )
    if spec.cell == "inflation":
        return dataclasses.asdict(
            run_inflation_ablation(n_days=n_days, seed=spec.seed)
        )
    raise ConfigurationError(f"unknown ablation cell {spec.cell!r}")


def fold(payloads) -> dict:
    """The four ablations' typed results, by cell name."""
    cells = by_cell(payloads)
    schedule, inflation = cells["schedule"], cells["inflation"]
    return {
        "effcap": EffCapAblationResult(**cells["effcap"]),
        "schedule": ScheduleAblationResult(
            rows=[ScheduleAblationRow(**row) for row in schedule["rows"]]
        ),
        "debounce": DebounceAblationResult(**cells["debounce"]),
        "inflation": InflationAblationResult(
            points=[InflationPoint(**point) for point in inflation["points"]]
        ),
    }


def claims(result: dict) -> list:
    effcap, schedule = result["effcap"], result["schedule"]
    debounce, inflation = result["debounce"], result["inflation"]
    points = inflation.points
    return [
        claim("planner honours Eq. 7", "Algorithm 3 lines 6-9",
              f"aware plan feasible: {effcap.aware_feasible}", effcap.aware_feasible),
        claim("ignoring Eq. 7 underprovisions", "(motivates eff-cap)",
              f"{effcap.blind_underprovision_intervals} intervals below true capacity",
              effcap.blind_underprovision_intervals >= 2),
        claim("three-phase schedule saves rounds on every case",
              "11 vs >= 12 for 3 -> 14 (Table 1)",
              ", ".join(f"{r.before}->{r.after}: {r.phased_rounds} vs {r.naive_rounds}"
                        for r in schedule.rows),
              schedule.total_saved >= len(schedule.rows)),
        claim("scale-in confirmation cuts reconfigurations per week",
              "'prevents unnecessary reconfigurations'",
              f"{debounce.moves_with_debounce} (debounced) vs "
              f"{debounce.moves_without_debounce} (immediate)",
              debounce.moves_with_debounce < debounce.moves_without_debounce),
        claim("cost difference of the confirmation", "(small)",
              f"{debounce.cost_with_debounce:.0f} vs "
              f"{debounce.cost_without_debounce:.0f} machine-slots"),
        claim("cost grows with the inflation buffer",
              "same knob as Q (Fig. 12 footnote)",
              " -> ".join(f"{p.cost_machine_slots:.0f}" for p in points),
              inflation.monotone_cost()),
        claim("insufficiency does not grow with the buffer", "(same)",
              " -> ".join(f"{p.pct_time_insufficient:.2f}%" for p in points),
              points[-1].pct_time_insufficient
              <= points[0].pct_time_insufficient + 1e-9),
    ]
