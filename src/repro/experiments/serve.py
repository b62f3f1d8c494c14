"""Experiment: ``serve`` — the online control plane on a drifting replay.

Not a paper artefact.  This cell pair exercises the ``repro.serve``
subsystem end-to-end under the sweep executor: a B2W-like trace whose
level shifts abruptly mid-stream is replayed (at infinite speed, no
wall clock) through the depository -> online-controller loop, once with
the accuracy-based error trigger armed and once without.  The armed run
must notice the drift — rolling MAPE for the active tau crosses the
threshold, the model refits, an unscheduled re-plan fires — and end with
fewer capacity-insufficient slots than the blind run.

The same scenario backs ``tests/test_serve.py``; keeping the builder
here means the CI smoke cell and the regression test can never drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..workload import LoadTrace, b2w_like_trace
from .common import by_cell

#: Hourly planner slots keep the scenario small: 24 slots/day.
SERVE_SLOT_SECONDS = 3600.0
SERVE_SLOTS_PER_DAY = 24

#: Six replayed days; the level shift lands at the start of day 4.
SERVE_DAYS = 6
DRIFT_AT_SLOT = 3 * SERVE_SLOTS_PER_DAY

#: The shift: demand multiplies by this factor (a flash event the
#: trained model has never seen, so its forecasts go stale at once).
DRIFT_FACTOR = 3.2

#: Rolling accuracy window (pairs) — short, so the trigger reacts
#: within hours of the shift instead of averaging it away.
SERVE_ACCURACY_WINDOW = 8

SERVE_SEED = 7
SERVE_TRIGGER = "mape:0.25"
SERVE_MIN_PAIRS = 6


@dataclass
class ServeSmokeResult:
    """Per-cell serve summaries, keyed by cell name."""

    runs: Dict[str, dict]


def drift_trace(seed: int = SERVE_SEED, n_days: int = SERVE_DAYS) -> LoadTrace:
    """A diurnal trace whose level jumps :data:`DRIFT_FACTOR`-fold at
    :data:`DRIFT_AT_SLOT`.

    Deliberately low-noise (flat week, no day-level drift): the scenario
    isolates the *regime shift* — a seasonal model's forecasts must be
    accurate before the shift and uniformly stale after it, so the only
    thing the accuracy trigger can react to is the shift itself.
    """
    trace = b2w_like_trace(
        n_days=n_days,
        slot_seconds=SERVE_SLOT_SECONDS,
        seed=seed,
        base_level=1250.0 * SERVE_SLOT_SECONDS,
        weekly_pattern=(1.0,) * 7,
        noise_sigma=0.02,
        drift_sigma=0.0,
        wobble_sigma=0.03,
    )
    values = trace.values.copy()
    values[DRIFT_AT_SLOT:] = values[DRIFT_AT_SLOT:] * DRIFT_FACTOR
    return LoadTrace(values=values, slot_seconds=SERVE_SLOT_SECONDS)


def _run_plane(
    seed, trigger_text, config, n_days, kill_after=None, on_kill=None,
    **options
):
    """One ``ControlPlane`` replay of the drift trace -> ``(summary,
    chronicle)``.

    Runs under a private telemetry scope (the accuracy tracker *is* the
    trigger's sensor), replaying with ``speed=0`` so the asyncio loop
    never sleeps and the result is bit-deterministic.  With
    ``kill_after`` the source crashes after that many reports (see
    :class:`_CrashingSource`), calling ``on_kill(plane)`` first if set;
    ``options`` are extra
    :class:`~repro.serve.ServeOptions` fields (checkpointing, resume).
    """
    import asyncio

    from ..config import default_config
    from ..prediction import SeasonalNaivePredictor
    from ..prediction.online import OnlinePredictor
    from ..serve import ControlPlane, ReplaySource, ServeOptions
    from ..serve.controller import parse_error_trigger
    from ..telemetry import AccuracyTracker, MetricsRegistry, Telemetry
    from ..telemetry.runtime import telemetry_scope

    config = (config or default_config()).with_interval(SERVE_SLOT_SECONDS)
    trace = drift_trace(seed=seed, n_days=n_days)

    trigger = (
        parse_error_trigger(trigger_text, min_pairs=SERVE_MIN_PAIRS)
        if trigger_text else None
    )

    metrics = MetricsRegistry()
    telemetry = Telemetry(
        metrics=metrics,
        accuracy=AccuracyTracker(
            metrics=metrics, window=SERVE_ACCURACY_WINDOW
        ),
    )
    with telemetry_scope(telemetry):
        # A purely seasonal model: after the level shift its forecasts
        # stay a full period stale, which is exactly the failure the
        # accuracy trigger exists to catch (an AR-style model would read
        # the shift straight out of its input history).
        predictor = OnlinePredictor(
            SeasonalNaivePredictor(SERVE_SLOTS_PER_DAY),
            refit_every=14 * SERVE_SLOTS_PER_DAY,
            max_history=21 * SERVE_SLOTS_PER_DAY,
        )
        if kill_after is None:
            source = ReplaySource(trace, speed=0.0)
        else:
            source = _CrashingSource(trace, kill_after, on_kill)
        plane = ControlPlane(
            config,
            predictor,
            source,
            trigger=trigger,
            options=ServeOptions(
                speed=0.0, http_port=None, out=None, quiet=True, **options
            ),
            telemetry=telemetry,
        )
        if kill_after is not None:
            source.plane = plane
        summary = asyncio.run(plane.run())
        return summary, telemetry.chronicle.snapshot()


def run_scenario(
    seed: int,
    trigger_text: Optional[str],
    config=None,
    n_days: int = SERVE_DAYS,
):
    """One hermetic serve run -> ``(summary, chronicle_records)``.
    Shared with ``tests/test_serve.py``, which walks the chronicle."""
    return _run_plane(seed, trigger_text, config, n_days)


class _CrashingSource:
    """Replays the trace but "crashes" after ``kill_after`` reports.

    The crash is modelled as an immediate stop request followed by an
    endless stall: the plane exits its loop without the source draining,
    so ``finish()`` never runs and the last durable checkpoint — not a
    graceful drain — is all a resumed plane gets.  That is exactly the
    state a SIGKILL leaves behind (the post-stop rollback in ``_drain``
    happens *after* the final checkpoint and is deliberately not
    persisted).
    """

    def __init__(
        self, trace: LoadTrace, kill_after: int, on_kill=None
    ) -> None:
        self.trace = trace
        self.kill_after = kill_after
        self.on_kill = on_kill
        self.plane = None  # wired by _run_plane after plane construction

    async def batches(self):
        import asyncio

        from ..serve import LoadReport

        slot_seconds = self.trace.slot_seconds
        for slot, count in enumerate(self.trace.values):
            if slot >= self.kill_after:
                if self.on_kill is not None:
                    self.on_kill(self.plane)
                self.plane.request_stop()
                await asyncio.Event().wait()
            yield [LoadReport(
                time=(slot + 0.5) * slot_seconds,
                count=float(count),
                node="replay",
            )]


def run_resume_scenario(
    seed: int,
    trigger_text: Optional[str],
    checkpoint_dir,
    kill_after: int,
    config=None,
    n_days: int = SERVE_DAYS,
    on_kill=None,
):
    """Kill a serve run mid-stream, resume it, return both runs' outputs.

    Returns ``(killed_summary, resumed_summary, merged_chronicle)``: the
    killed run checkpoints into ``checkpoint_dir`` and stops after
    ``kill_after`` reports without draining; the resumed run restores
    from the same directory and replays the *full* trace (duplicate
    suppression drops everything the first run already ingested).
    Compare against :func:`run_scenario` with identical arguments to
    check crash/resume convergence.  ``on_kill(plane)`` sees the killed
    plane, and its checkpoint directory, as the crash leaves them.
    """
    # Phase 1: run with checkpointing, crash mid-stream.
    killed_summary, _ = _run_plane(
        seed, trigger_text, config, n_days, kill_after=kill_after,
        on_kill=on_kill, checkpoint_dir=str(checkpoint_dir),
    )
    # Phase 2: fresh process state, resume from the checkpoint, replay
    # the full trace (the feeder has no idea where the plane died).
    resumed_summary, merged_chronicle = _run_plane(
        seed, trigger_text, config, n_days,
        checkpoint_dir=str(checkpoint_dir), resume=True,
    )
    return killed_summary, resumed_summary, merged_chronicle


def chronicle_projection(records) -> List:
    """The crash-invariant view of a chronicle: ``(kind, time)`` rows.

    ``service.*`` records (the resume marker) exist only in resumed
    runs, and record *ids* downstream of one are offset by its sequence
    number, so convergence is asserted on this projection rather than on
    raw records.
    """
    return [
        (rec.get("kind"), rec.get("time"))
        for rec in records
        if not str(rec.get("kind", "")).startswith("service.")
    ]


def grid(seed: int = SERVE_SEED, n_days: int = SERVE_DAYS) -> List:
    """Two cells: the drift replay with the trigger armed and disarmed."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="serve",
            cell=cell,
            seed=seed,
            overrides=(
                ("n_days", int(n_days)),
                ("trigger", trigger_text),
            ),
        )
        for cell, trigger_text in (
            ("trigger", SERVE_TRIGGER),
            ("no-trigger", ""),
        )
    ]


def run_cell(spec, config) -> dict:
    """One hermetic serve run -> a deterministic JSON cell payload."""
    summary, chronicle = run_scenario(
        spec.seed,
        spec.option("trigger") or None,
        config=config,
        n_days=int(spec.option("n_days", SERVE_DAYS)),
    )
    return {
        "trigger": summary.get("trigger"),
        "intervals": int(summary["intervals"]),
        "machines": int(summary["steady_machines"]),
        "mode": summary["mode"],
        "violations": int(summary["violations"]),
        "moves_started": int(summary["moves_started"]),
        "emergencies": int(summary["emergencies"]),
        "trigger_fires": int(summary["trigger_fires"]),
        "trigger_recoveries": int(summary["trigger_recoveries"]),
        "drained": bool(summary["drained"]),
        "accuracy_records": sum(
            1 for rec in chronicle if rec.get("kind") == "forecast.accuracy"
        ),
    }


def fold(payloads) -> ServeSmokeResult:
    return ServeSmokeResult(runs=by_cell(payloads))


def summarize(result: ServeSmokeResult) -> str:
    lines = []
    for name, run in sorted(result.runs.items()):
        lines.append(
            f"{name}: intervals={run['intervals']} mode={run['mode']} "
            f"machines={run['machines']} violations={run['violations']} "
            f"moves={run['moves_started']} fires={run['trigger_fires']} "
            f"recoveries={run['trigger_recoveries']}"
        )
    armed = result.runs.get("trigger")
    blind = result.runs.get("no-trigger")
    if armed and blind:
        lines.append(
            "drift response: "
            f"{armed['violations']} violations with the trigger vs "
            f"{blind['violations']} without"
        )
    return "\n".join(lines)
