"""Command-line interface for the P-Store reproduction.

Subcommands
-----------
``generate``
    write a synthetic B2W-like load trace to CSV;
``predict``
    fit SPAR (or a baseline) on a trace and print a forecast;
``plan``
    forecast and run the DP planner, printing the move schedule;
``simulate``
    run the fast capacity simulator for a provisioning strategy;
``experiment``
    list the registered experiments;
``paper``
    run every paper artefact (or the named ones) at the registry's
    defaults — the paper's scale — as one sweep over their cells (on
    every CPU the process may use; a cell shared by several artefacts
    runs once) and print each report: the summary plus its
    paper-vs-measured claims; ``--update EXPERIMENTS.md`` rewrites that
    file's marker blocks from them (see EXPERIMENTS.md);
``sweep``
    execute an experiment's cell grid across a worker pool with
    content-addressed result caching — re-runs only execute dirty cells
    and interrupted sweeps resume for free (see docs/API.md);
``chaos``
    run a fault-injection scenario (node crashes, stalled transfers,
    forecast drift, ...) against the benchmark and report SLA violations
    and recovery times per strategy (see docs/FAULTS.md);
``explain``
    render the causal post-mortem of a recorded run: walk the
    ``chronicle.jsonl`` flight recorder and attribute every
    SLA-violating interval to a fault, migration overhead, an
    under-forecast, or thin planner headroom (see docs/OBSERVABILITY.md);
``serve``
    run the always-on control plane: ingest a live load-report stream
    (trace replay, newline-JSON stdin/file, or TCP), refit and re-plan
    online with accuracy-triggered fallback, optionally serve
    ``/status`` + ``/metrics`` over HTTP, and flush a full run directory
    on SIGINT (see docs/SERVICE.md);
``cache``
    manage the sweep result cache (``cache gc`` evicts by age/size and
    reports reclaimed bytes).

Run ``pstore <subcommand> --help`` for options.

Every subcommand accepts ``-v/--verbose`` and ``--quiet`` (wired to the
root logging level; results go to stdout, diagnostics to stderr) and
``--telemetry-out DIR``, which records the run's metrics, spans, and
causal chronicle and writes ``spans.jsonl``, ``chronicle.jsonl``,
``metrics.json``, and ``metrics.prom`` into DIR (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
from typing import List, Optional

import numpy as np

from . import PStoreConfig, api, default_config
from .analysis import ascii_table, series_block, splice_report
from .config import parse_set_overrides
from .core import Planner
from .errors import InfeasiblePlanError, PStoreError
from .telemetry import (
    disable_telemetry,
    enable_telemetry,
    export_run,
    get_telemetry,
    render_dashboard,
)
from .prediction import get_predictor_spec, registered_predictors
from .runner import BACKENDS
from .workload import b2w_like_trace
from .workload.io import read_trace_csv, write_trace_csv

logger = logging.getLogger(__name__)


def _forecast_model_choices() -> tuple:
    """Registry predictors buildable from a bare history series (the
    oracle needs the future, so the CLI cannot offer it)."""
    return tuple(
        name
        for name in registered_predictors()
        if not get_predictor_spec(name).needs_truth
    )


def _common_options() -> argparse.ArgumentParser:
    """Options shared by every subcommand (logging + telemetry)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    common.add_argument(
        "--quiet", action="store_true",
        help="only log errors (overrides --verbose)",
    )
    common.add_argument(
        "--telemetry-out", metavar="DIR", default=None,
        help="record telemetry and write spans.jsonl / chronicle.jsonl / "
        "metrics.json / metrics.prom into DIR",
    )
    return common


def _setup_logging(args) -> None:
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger().setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstore",
        description="P-Store: predictive elastic provisioning (SIGMOD'18 reproduction)",
    )
    common = _common_options()
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[common],
                         help="write a synthetic load trace to CSV")
    gen.add_argument("output", help="output CSV path")
    gen.add_argument("--days", type=int, default=35)
    gen.add_argument("--slot-seconds", type=float, default=300.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--peak-tps",
        type=float,
        default=1450.0,
        help="approximate daily peak in txn/s",
    )

    pred = sub.add_parser("predict", parents=[common],
                          help="forecast a trace with SPAR")
    pred.add_argument("trace", help="input CSV (see `generate`)")
    pred.add_argument(
        "--model", choices=_forecast_model_choices(), default="spar",
        help="registry predictor to fit (see docs/PREDICTORS.md)",
    )
    pred.add_argument("--train-days", type=int, default=28)
    pred.add_argument("--horizon", type=int, default=12, help="slots ahead")

    plan = sub.add_parser("plan", parents=[common],
                          help="plan reconfigurations for a trace")
    plan.add_argument("trace", help="input CSV")
    plan.add_argument("--config", default=None,
                      help="JSON config file (see PStoreConfig.from_file)")
    plan.add_argument("--train-days", type=int, default=28)
    plan.add_argument("--machines", type=int, default=0,
                      help="current cluster size (0 = fit to current load)")
    plan.add_argument("--horizon", type=int, default=12)

    sim = sub.add_parser("simulate", parents=[common],
                         help="capacity-simulate a strategy")
    sim.add_argument(
        "strategy",
        help="p-store | reactive | static:<N> | simple:<day>/<night>",
    )
    sim.add_argument("--days", type=int, default=14)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--peak-tps", type=float, default=1450.0)

    sub.add_parser("experiment", parents=[common],
                   help="list the registered experiments")

    paper = sub.add_parser(
        "paper", parents=[common],
        help="run the paper's artefacts and report each one's claims",
    )
    paper.add_argument(
        "names", nargs="*", metavar="NAME",
        help="experiment ids (default: every artefact that states claims)",
    )
    paper.add_argument(
        "--update", default=None, metavar="EXPERIMENTS.md",
        help="rewrite the file's '<!-- pstore paper: NAME -->' blocks "
        "with the reports",
    )

    swp = sub.add_parser(
        "sweep", parents=[common],
        help="run an experiment's cell grid with caching and workers",
    )
    swp.add_argument("name", help="experiment id (see `pstore experiment`)")
    swp.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (1 = in-process serial)")
    swp.add_argument(
        "--backend", choices=BACKENDS,
        default="auto",
        help="how dirty cells execute: serial (inline), process (worker "
        "pool), tensor (batch the whole grid through the vectorised "
        "engine; non-tensorizable cells fall back to inline).  auto "
        "picks tensor when every cell supports it",
    )
    swp.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: .pstore-cache, or "
        "$PSTORE_CACHE_DIR)",
    )
    swp.add_argument(
        "--out", default=None, metavar="DIR",
        help="write manifest.json plus merged spans.jsonl and "
        "chronicle.jsonl into DIR (runs every cell: cache entries keep "
        "no records)",
    )
    swp.add_argument(
        "--force", action="store_true",
        help="re-execute every cell even when cached",
    )
    swp.add_argument(
        "--config", default=None,
        help="JSON config file (see PStoreConfig.from_sources)",
    )
    swp.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        dest="overrides",
        help="config override (repeatable, dotted keys allowed, e.g. "
        "--set q=300 --set faults.seed=9)",
    )

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="inject a fault scenario and report SLA impact + recovery",
    )
    chaos.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario JSON file (default: the built-in "
        "crash-during-migration drill; see docs/FAULTS.md)",
    )
    chaos.add_argument("--days", type=int, default=1,
                       help="evaluation days of benchmark load")
    chaos.add_argument("--seed", type=int, default=21, help="workload seed")
    chaos.add_argument(
        "--no-reactive", action="store_true",
        help="skip the reactive-baseline comparison run",
    )

    explain = sub.add_parser(
        "explain", parents=[common],
        help="causal post-mortem of a recorded run's chronicle",
    )
    explain.add_argument(
        "run_dir",
        help="run directory written with --telemetry-out (or a sweep "
        "--out manifest directory, or a chronicle.jsonl path)",
    )
    explain.add_argument(
        "--window", default=None, metavar="T0:T1",
        help="only explain violations/reconfigurations with simulated "
        "time in [T0, T1] seconds (chains still render whole)",
    )
    explain.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable report instead of text",
    )

    srv = sub.add_parser(
        "serve", parents=[common],
        help="run the always-on predictive provisioning control plane",
    )
    srv.add_argument(
        "--source", default="replay:b2w",
        help="load-report source: replay:b2w | replay:<trace.csv> | "
        "file:<reports.jsonl> | stdin | tcp:<port> (default: replay:b2w)",
    )
    srv.add_argument(
        "--speed", type=float, default=60.0,
        help="replay acceleration: simulated seconds per wall second "
        "(0 = no pacing, run flat out; default: 60)",
    )
    srv.add_argument("--days", type=int, default=2,
                     help="synthetic replay length after training")
    srv.add_argument(
        "--train-days", type=int, default=1,
        help="trace prefix for the offline predictor fit "
        "(0 = learn fully online)",
    )
    srv.add_argument("--seed", type=int, default=7)
    srv.add_argument("--peak-tps", type=float, default=1450.0)
    srv.add_argument(
        "--slot-seconds", type=float, default=300.0,
        help="planner interval for non-replay sources",
    )
    srv.add_argument(
        "--predictor", choices=_forecast_model_choices(), default="ar",
        help="forecast model from the predictor registry (spar needs "
        "--train-days >= 3 or 0; ar is the responsive default for short "
        "replays; see docs/PREDICTORS.md)",
    )
    srv.add_argument(
        "--error-trigger", default="mape:0.35", metavar="SPEC",
        help="unscheduled-replan trigger over rolling forecast error, "
        "e.g. mape:0.3 or mape:0.3,bias:0.25; 'off' disables "
        "(default: mape:0.35)",
    )
    srv.add_argument(
        "--trigger-min-pairs", type=int, default=12,
        help="scored forecast/actual pairs required before the trigger "
        "may fire",
    )
    srv.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="serve /status /metrics /chronicle/tail /plan on PORT "
        "(default: no HTTP)",
    )
    srv.add_argument("--machines", type=int, default=2,
                     help="initial cluster size")
    srv.add_argument("--max-machines", type=int, default=None)
    srv.add_argument(
        "--out", default="serve-out", metavar="DIR",
        help="run directory flushed on drain/SIGINT "
        "(spans/chronicle/metrics; 'none' disables)",
    )
    srv.add_argument(
        "--status-every", type=int, default=12,
        help="print a dashboard line every N closed intervals "
        "(0 = never)",
    )
    srv.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="persist full plane state to DIR after every closed "
        "interval (atomic snapshot + incremental chronicle log)",
    )
    srv.add_argument(
        "--resume", default=None, metavar="DIR",
        help="restore mid-stream state from DIR before serving "
        "(implies --checkpoint DIR)",
    )
    srv.add_argument(
        "--node-timeout", type=int, default=12, metavar="N",
        help="evict a reporting node once its clock trails the fastest "
        "node by more than N intervals, so one dead node cannot freeze "
        "the watermark (0 = never evict; default: 12)",
    )
    srv.add_argument(
        "--ingest-token", default=None, metavar="TOKEN",
        help="shared secret a tcp:<port> feeder must send as its first "
        "line (default: no auth)",
    )
    srv.add_argument(
        "--ingest-queue", type=int, default=1024, metavar="N",
        help="bounded tcp ingest queue; full = per-connection "
        "backpressure (default: 1024)",
    )
    srv.add_argument(
        "--ingest-max-line", type=int, default=65536, metavar="BYTES",
        help="tcp report lines longer than this close the connection "
        "(default: 65536)",
    )
    srv.add_argument(
        "--ingest-max-rate", type=float, default=0.0, metavar="RPS",
        help="per-connection tcp report rate cap, reports/second "
        "(0 = unlimited; default: 0)",
    )

    cache = sub.add_parser(
        "cache", parents=[common],
        help="manage the sweep result cache",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    gc = cache_sub.add_parser(
        "gc", parents=[common],
        help="evict cache entries by age and/or total size",
    )
    gc.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root (default: .pstore-cache, or $PSTORE_CACHE_DIR)",
    )
    gc.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="keep the cache under SIZE (suffixes K/M/G, e.g. 500M)",
    )
    gc.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="evict entries older than AGE (suffixes s/m/h/d, e.g. 7d)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting",
    )
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def _cmd_generate(args) -> int:
    trace = b2w_like_trace(
        n_days=args.days,
        slot_seconds=args.slot_seconds,
        seed=args.seed,
        base_level=args.peak_tps * args.slot_seconds,
    )
    write_trace_csv(trace, args.output)
    print(f"wrote {trace.describe()} to {args.output}")
    return 0


def _fit_model(name: str, values: np.ndarray, period: int, train_slots: int):
    model = get_predictor_spec(name).for_period(period)
    return model.fit(values[:train_slots])


def _cmd_predict(args) -> int:
    trace = read_trace_csv(args.trace)
    period = trace.slots_per_day
    train_slots = args.train_days * period
    if train_slots >= len(trace):
        print(
            f"error: trace has {len(trace)} slots; cannot train on "
            f"{args.train_days} days",
            file=sys.stderr,
        )
        return 2
    values = trace.as_rate_per_second()
    logger.info("fitting %s on %d slots (%d days)", args.model, train_slots,
                args.train_days)
    with get_telemetry().tracer.span(
        "predict.forecast", model=args.model, horizon=args.horizon
    ) as span:
        model = _fit_model(args.model, values, period, train_slots)
        forecast = model.predict_horizon(values, args.horizon)
        span.set("predicted_next", float(forecast[0]))
    print(series_block("history (txn/s)", values[-3 * period :]))
    rows = [
        (i + 1, f"{v:,.1f}") for i, v in enumerate(forecast)
    ]
    print(ascii_table(["slots ahead", "forecast txn/s"], rows,
                      title=f"{args.model.upper()} forecast"))
    return 0


def _cmd_plan(args) -> int:
    config = (
        PStoreConfig.from_file(args.config) if args.config else default_config()
    )
    trace = read_trace_csv(args.trace)
    config = config.with_interval(trace.slot_seconds)
    period = trace.slots_per_day
    train_slots = args.train_days * period
    values = trace.as_rate_per_second()
    if train_slots >= len(trace):
        print("error: not enough data after the training window", file=sys.stderr)
        return 2
    logger.info("fitting SPAR on %d slots, planning %d ahead", train_slots,
                args.horizon)
    with get_telemetry().tracer.span(
        "predict.forecast", model="spar", horizon=args.horizon
    ) as span:
        model = _fit_model("spar", values, period, train_slots)
        forecast = model.predict_horizon(values, args.horizon)
        span.set("predicted_next", float(forecast[0]))
    inflated = forecast * config.prediction_inflation
    current_load = float(values[-1])
    machines = args.machines or config.servers_for_load(current_load * 1.1)

    print(f"current load {current_load:,.0f} txn/s on {machines} machines")
    try:
        with get_telemetry().tracer.span(
            "plan.dp", machines=machines, horizon=args.horizon
        ) as span:
            schedule = Planner(config).plan(
                list(inflated), machines, current_load=current_load
            )
            span.set(
                "n_moves", sum(1 for m in schedule.moves if not m.is_noop)
            )
    except InfeasiblePlanError as infeasible:
        print(
            f"no feasible plan: scale out reactively to "
            f"{infeasible.required_machines} machines"
        )
        return 1
    print(schedule.describe())
    first = schedule.first_real_move
    if first is None:
        print("=> no reconfiguration needed within the horizon")
    else:
        direction = "out" if first.is_scale_out else "in"
        print(
            f"=> first move: scale {direction} {first.before} -> "
            f"{first.after} starting at interval {first.start}"
        )
    return 0


def _cmd_simulate(args) -> int:
    logger.info("simulating %s for %d days (seed %d)", args.strategy,
                args.days, args.seed)
    result = api.run(
        strategy=args.strategy,
        days=args.days,
        seed=args.seed,
        peak_tps=args.peak_tps,
    )
    detail = result.detail
    print(series_block("load (txn/s)", detail.load_tps))
    print(series_block("machines", detail.machines))
    print()
    print(detail.summary())
    return 0


def _cmd_experiment(args) -> int:
    from .experiments.registry import list_experiments

    rows = [
        (defn.name, "heavy" if defn.heavy else "", defn.title)
        for defn in list_experiments()
    ]
    print(ascii_table(
        ["id", "scale", "title"], rows, title="registered experiments",
    ))
    return 0


def _cmd_paper(args) -> int:
    from .experiments.registry import get_experiment, list_experiments
    from .runner import run_sweep

    defns = (
        [get_experiment(name) for name in args.names] if args.names
        else [defn for defn in list_experiments() if defn.claims]
    )
    doc = None
    if args.update:
        with open(args.update, encoding="utf-8") as handle:
            doc = handle.read()
        # A bad marker must fail now, not after minutes of simulation.
        for defn in defns:
            splice_report(doc, defn.name, "")
    grids = [defn.make_grid() for defn in defns]
    # One sweep over every artefact's cells: a cell two artefacts share
    # (fig10 and tab02 fold fig09's) has one cache key, so it runs once.
    report = run_sweep(
        [spec for grid in grids for spec in grid],
        cache=None,
        jobs=len(os.sched_getaffinity(0)),
        record_events=bool(args.telemetry_out),
    )
    logger.info("paper: %s", report.summary())
    if args.telemetry_out:
        _record_cells(report, get_telemetry())
    cells = iter(report.cells)  # submission order: grid after grid
    for defn, grid in zip(defns, grids):
        own = itertools.islice(cells, len(grid))
        text = defn.render(defn.fold({c.label: c.payload for c in own}))
        print(f"===== {defn.name} =====\n{text}\n")
        if doc is not None:
            doc = splice_report(doc, defn.name, text)
    if doc is not None:
        with open(args.update, "w", encoding="utf-8") as handle:
            handle.write(doc)
    return 0


def _record_cells(report, telemetry) -> None:
    """Hand the cells' spans and chronicle to ``telemetry`` (the bundle
    ``--telemetry-out`` exports), each record tagged with its cell."""
    from .telemetry.tracing import Span

    for cell in report.cells:
        for record in cell.chronicle:
            telemetry.chronicle.records.append({"cell": cell.label, **record})
        for span in cell.spans:
            fields = {k: v for k, v in span.items() if k != "duration"}
            fields["attrs"] = {"cell": cell.label, **fields["attrs"]}
            telemetry.tracer.spans.append(Span(**fields))


def _payload_line(payload) -> str:
    """One compact line for a cell payload (skip the digest blobs)."""
    if not isinstance(payload, dict):
        return str(payload)
    parts = []
    for key, value in payload.items():
        if key in ("series_sha", "chronicle", "rows", "points"):
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        elif isinstance(value, (str, int, bool)):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _cmd_sweep(args) -> int:
    config = PStoreConfig.from_sources(
        file=args.config,
        overrides=parse_set_overrides(args.overrides or []),
    )
    logger.info(
        "sweeping %s with %d job(s), backend=%s",
        args.name, args.jobs, args.backend,
    )
    report = api.sweep(
        args.name,
        config=config,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        force=args.force,
        record_events=bool(args.out or args.telemetry_out),
        backend=args.backend,
    )
    if args.telemetry_out:
        _record_cells(report, get_telemetry())
    payloads = report.payloads
    for label in sorted(payloads):
        print(f"{label}: {_payload_line(payloads[label])}")
    print()
    print(f"{args.name}: {report.summary()}")
    if args.out:
        paths = report.write_manifest(args.out)
        for kind, path in sorted(paths.items()):
            logger.info("wrote %s -> %s", kind, path)
    return 0


def _cmd_chaos(args) -> int:
    from .experiments.chaos import run_chaos
    from .faults import FaultScenario

    scenario = (
        FaultScenario.from_file(args.scenario) if args.scenario else None
    )
    logger.info("running chaos scenario over %d eval day(s)", args.days)
    result = run_chaos(
        scenario=scenario,
        eval_days=args.days,
        seed=args.seed,
        include_reactive=not args.no_reactive,
    )

    scenario = result.scenario
    print(f"scenario: {scenario.name} "
          f"({len(scenario)} faults, seed {scenario.seed})")
    for spec in scenario.faults:
        trigger = (
            f"t={spec.at_time:,.0f}s"
            if spec.at_time is not None
            else f"migration #{spec.on_migration}"
        )
        label = f" [{spec.label}]" if spec.label else ""
        print(f"  - {spec.kind} @ {trigger}{label}")
    print()

    violation_rows = result.violation_rows()
    quantiles = sorted(next(iter(violation_rows.values())))
    rows = [
        (label, *(violations[q] for q in quantiles))
        for label, violations in violation_rows.items()
    ]
    print(ascii_table(
        ["strategy"] + [f"p{int(q)} viol s" for q in quantiles],
        rows,
        title="SLA violation seconds",
    ))

    for label, run in result.runs.items():
        print()
        print(f"[{label}] avg machines {run.payload['average_machines']:.2f}, "
              f"{run.payload['moves_started']} moves, "
              f"{run.payload['emergencies']} emergency")
        print(run.report())
    print()
    print(f"converged: {'yes' if result.all_converged else 'NO'}")
    return 0 if result.all_converged else 1


def _parse_window(spec: Optional[str]):
    """``T0:T1`` -> (float, float); None passes through."""
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) != 2:
        raise PStoreError(
            f"--window wants T0:T1 (seconds), got {spec!r}"
        )
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise PStoreError(
            f"--window bounds must be numbers, got {spec!r}"
        ) from None


def _cmd_explain(args) -> int:
    import json as json_mod

    from .analysis import explain_run, render_explain

    report = explain_run(args.run_dir, window=_parse_window(args.window))
    if args.as_json:
        print(json_mod.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(render_explain(report), end="")
    return 0


def _parse_size(text: Optional[str]) -> Optional[int]:
    """``500M`` / ``2G`` / ``1048576`` -> bytes."""
    if text is None:
        return None
    spec = text.strip().upper()
    factor = 1
    for suffix, mult in (("K", 1024), ("M", 1024 ** 2), ("G", 1024 ** 3)):
        if spec.endswith(suffix):
            factor, spec = mult, spec[:-1]
            break
    try:
        return int(float(spec) * factor)
    except ValueError:
        raise PStoreError(f"bad size {text!r} (want e.g. 500M, 2G)") from None


def _parse_age(text: Optional[str]) -> Optional[float]:
    """``7d`` / ``12h`` / ``30m`` / ``90s`` -> seconds."""
    if text is None:
        return None
    spec = text.strip().lower()
    factor = 1.0
    for suffix, mult in (("s", 1.0), ("m", 60.0), ("h", 3600.0), ("d", 86400.0)):
        if spec.endswith(suffix):
            factor, spec = mult, spec[:-1]
            break
    try:
        return float(spec) * factor
    except ValueError:
        raise PStoreError(f"bad age {text!r} (want e.g. 7d, 12h)") from None


def _cmd_cache(args) -> int:
    from .runner.cache import ResultCache, default_cache_root

    root = args.cache_dir or default_cache_root()
    cache = ResultCache(root)
    stats = cache.gc(
        max_bytes=_parse_size(args.max_bytes),
        max_age_seconds=_parse_age(args.max_age),
        dry_run=args.dry_run,
    )
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(
        f"{verb} {stats['reclaimed_bytes']:,} bytes "
        f"({stats['removed']} of {stats['scanned']} entries) from {root}; "
        f"{stats['kept']} entries / {stats['kept_bytes']:,} bytes kept"
    )
    return 0


def _serve_predictor(args, trace, period: int):
    """Build the (Online-wrapped) forecast model for ``pstore serve``."""
    from .prediction.online import OnlinePredictor

    train_slots = 0
    if trace is not None and args.train_days > 0:
        train_slots = int(args.train_days * trace.slots_per_day)
        if train_slots >= len(trace):
            raise PStoreError(
                f"trace has {len(trace)} slots; cannot train on "
                f"{args.train_days} days"
            )
    spec = get_predictor_spec(args.predictor)
    kwargs = {}
    if args.predictor == "spar":
        kwargs["m_recent"] = min(30, period // 2)
        # Fully-online bootstrap (no training window): two periods.
        kwargs["n_periods"] = 2
        if train_slots:
            # As many periods as the window fits: SPAR trains on
            # m_recent + n_periods periods of context + one of targets.
            fits = (train_slots - kwargs["m_recent"]) // period - 1
            if fits < 1:
                raise PStoreError(
                    "spar needs --train-days >= 3 (m_recent slots and one "
                    "period of history, then one period of targets); use "
                    "--predictor ar for short replays"
                )
            kwargs["n_periods"] = min(7, fits)
    elif args.predictor == "ar":
        kwargs["order"] = min(30, max(2, period // 8))
    online = OnlinePredictor(
        spec.for_period(period, **kwargs),
        refit_every=7 * period, max_history=21 * period,
    )
    if train_slots:
        online.fit(trace.as_rate_per_second()[:train_slots])
    # Unfitted otherwise: the controller's warmup mode carries until
    # the first fit.
    return online, train_slots


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import (
        ControlPlane,
        ServeOptions,
        parse_error_trigger,
        source_from_spec,
    )

    kind, _, arg = args.source.partition(":")
    trace = None
    if kind == "replay":
        if arg in ("", "b2w"):
            total_days = args.train_days + args.days
            trace = b2w_like_trace(
                n_days=total_days,
                slot_seconds=args.slot_seconds,
                seed=args.seed,
                base_level=args.peak_tps * args.slot_seconds,
            )
        else:
            trace = read_trace_csv(arg)
    slot_seconds = trace.slot_seconds if trace is not None else args.slot_seconds
    config = default_config().with_interval(slot_seconds)
    period = (
        trace.slots_per_day
        if trace is not None
        else max(1, int(round(86_400.0 / slot_seconds)))
    )

    predictor, train_slots = _serve_predictor(args, trace, period)
    if trace is not None and train_slots:
        trace = trace[train_slots:]

    trigger = parse_error_trigger(
        args.error_trigger, min_pairs=args.trigger_min_pairs
    )

    source = source_from_spec(
        args.source,
        trace=trace,
        speed=args.speed,
        auth_token=args.ingest_token,
        queue_size=args.ingest_queue,
        max_line_bytes=args.ingest_max_line,
        max_report_rate=args.ingest_max_rate,
    )
    out = None if args.out in (None, "", "none") else args.out
    checkpoint_dir = args.resume if args.resume is not None else args.checkpoint
    options = ServeOptions(
        speed=args.speed,
        http_port=args.http_port,
        out=out,
        initial_machines=args.machines,
        max_machines=args.max_machines,
        status_every=args.status_every,
        quiet=args.quiet,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume is not None,
        node_timeout=args.node_timeout,
    )
    plane = ControlPlane(
        config, predictor, source, trigger=trigger, options=options
    )
    logger.info(
        "serving source=%s speed=%gx trigger=%s http=%s out=%s",
        args.source, args.speed,
        trigger.describe() if trigger else "off",
        args.http_port, out,
    )
    summary = asyncio.run(plane.run())
    print(
        f"served {summary['intervals']} intervals "
        f"({summary['sim_time']:,.0f}s simulated): "
        f"machines={summary['machines']} mode={summary['mode']} "
        f"violations={summary['violations']} moves={summary['moves_started']} "
        f"trigger_fires={summary['trigger_fires']}"
    )
    for name, path in sorted(summary.get("artifacts", {}).items()):
        logger.info("wrote %s -> %s", name, path)
    if summary.get("artifacts"):
        print(f"run directory flushed to {out}/ (pstore explain {out}/)")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "predict": _cmd_predict,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "paper": _cmd_paper,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "explain": _cmd_explain,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _setup_logging(args)
    recording = bool(args.telemetry_out)
    # `serve` is always a telemetry producer: its accuracy trigger and
    # chronicle need the live registry, and it flushes its own run
    # directory (--out) on drain.
    needs_telemetry = recording or args.command == "serve"
    if needs_telemetry:
        enable_telemetry()
        if recording:
            logger.info("telemetry enabled, artifacts will go to %s",
                        args.telemetry_out)
    try:
        try:
            code = _COMMANDS[args.command](args)
        except (PStoreError, OSError) as error:
            # Expected failure modes (bad inputs, missing files, invalid
            # configs) exit nonzero with one line, not a traceback.
            print(f"error: {error}", file=sys.stderr)
            code = 1
        except KeyboardInterrupt:
            # Graceful-shutdown path for batch commands: a Ctrl-C must
            # still flush whatever telemetry was recorded (open spans are
            # exported with ``aborted: true``) instead of dropping the
            # run on the floor.  `serve` normally intercepts the signal
            # itself; this is the fallback for everything else.
            print("interrupted", file=sys.stderr)
            code = 130
        if recording:
            tel = get_telemetry()
            try:
                paths = export_run(tel, args.telemetry_out)
                for kind, path in sorted(paths.items()):
                    logger.info("wrote %s -> %s", kind, path)
                if args.command == "simulate" and code == 0:
                    print()
                    print(render_dashboard(tel))
            except OSError as error:
                print(
                    f"error: cannot write telemetry to "
                    f"{args.telemetry_out}: {error}",
                    file=sys.stderr,
                )
                code = code or 1
        return code
    finally:
        if needs_telemetry:
            disable_telemetry()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
