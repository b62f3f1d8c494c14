"""Differential runner: engines that must agree, compared under load.

The pairs compared:

* the row-level :class:`~repro.hstore.engine.TransactionExecutor` and
  the analytic :class:`~repro.hstore.engine.QueueingEngine`, two models
  of the same system;
* a migrator's fluid-model data fractions and the bucket moves it
  actually commits;
* the cross-cell tensor batch engine and serial cells;
* a killed-then-resumed serve run and an uninterrupted one.

Each ``diff_*`` function runs one pair through the same workload and
compares the results within a declared tolerance; :func:`run_suite`
bundles them into the report behind ``pstore check``.  (The block
kernel's bit-identity to a per-second scalar loop is a tier-1 test over
the oracle in ``tests/engine_oracle.py``.)

Fairness notes (why the tolerances can be tight):

* The engine comparison submits a single fixed-cost read procedure at
  exponential interarrival times, so both sides model the same M/M/1
  mixture; the queueing engine runs with transient skew disabled and is
  fed the executor's *measured* per-partition arrival shares.  Saturated
  throughput is compared, but saturated latency is not — under overload
  both queues grow without bound and the instantaneous latencies depend
  on horizon length, not on model agreement.
* The tensor backend is documented as bit-identical to serial cells,
  so its tolerance is exactly zero.
* Migration accounting is compared at round commits, where the fluid
  fractions describe whole committed transfers; the gap to the bucket
  map is then pure bucket granularity plus plan imbalance.

Failures write ``check.divergence`` chronicle records (and invariant
failures write ``invariant.violation``), so a nonzero ``pstore check``
always leaves an auditable trail in ``chronicle.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..config import default_config
from ..errors import InvariantViolation, SimulationError
from ..hstore import Cluster, Column, Schema, Table
from ..hstore.engine import QueueingEngine, TransactionExecutor
from ..hstore.txn import StoredProcedure, Transaction, TxnContext
from ..squall.migrator import ClusterMigrator
from ..telemetry import get_telemetry
from . import invariants

#: Tensor batch vs. serial cells must match bit for bit.
BIT_IDENTICAL_TOL = 0.0
#: Relative throughput tolerance below saturation (both engines should
#: complete essentially everything that is offered).
THROUGHPUT_SUB_TOL = 0.05
#: Relative throughput tolerance at saturation (service-time sampling
#: noise on the executor side).
THROUGHPUT_SAT_TOL = 0.10
#: Relative tolerance on stationary latency percentiles.  Both sides
#: sample the same M/M/1 sojourn distribution, but from finite (and
#: differently batched) sample sets.
LATENCY_TOL = 0.25
#: Absolute tolerance between fluid migration fractions and committed
#: bucket fractions at round boundaries: bucket granularity (1/buckets)
#: times the worst per-node bucket imbalance seen in a balanced plan.
MIGRATION_FRACTION_TOL = 0.05

#: The engine differential's load: seeded Poisson probe reads over
#: ``PROBE_KEYS`` keys on ``PROBE_PARTITIONS`` partitions, once at
#: ``SUBSAT_TPS`` for ``SUBSAT_SECONDS`` and once ``SAT_FACTOR`` times
#: the service capacity for ``SAT_SECONDS``.
PROBE_SEED = 7
PROBE_PARTITIONS = 2
PROBE_KEYS = 400
SUBSAT_TPS = 80.0
SUBSAT_SECONDS = 240.0
SAT_FACTOR = 1.5
SAT_SECONDS = 120.0
#: The migration differential scales its 3-node cluster out to this.
MIGRATION_TARGET_NODES = 5


@dataclass(frozen=True)
class DiffCheck:
    """One comparison: measured divergence against its tolerance."""

    name: str
    delta: float
    tolerance: float
    ok: bool
    detail: str = ""


@dataclass
class CheckReport:
    """Outcome of one differential run (or the whole suite)."""

    checks: List[DiffCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[DiffCheck]:
        return [check for check in self.checks if not check.ok]

    def extend(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)

    def describe(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok  " if check.ok else "FAIL"
            line = (
                f"{status} {check.name:<38} "
                f"delta {check.delta:.3e} (tol {check.tolerance:.3e})"
            )
            if check.detail:
                line += f"  {check.detail}"
            lines.append(line)
        return "\n".join(lines)


def _record(
    checks: List[DiffCheck],
    name: str,
    delta: float,
    tolerance: float,
    detail: str = "",
) -> None:
    ok = bool(delta <= tolerance)
    checks.append(DiffCheck(name, float(delta), float(tolerance), ok, detail))
    tel = get_telemetry()
    if tel.enabled and not ok:
        tel.chronicle.record(
            "check.divergence",
            name=name,
            delta=float(delta),
            tolerance=float(tolerance),
            detail=detail,
        )
        tel.metrics.counter("check.divergences").inc()


def _record_violation(checks: List[DiffCheck], name: str, error: Exception) -> None:
    """An invariant tripped inside a differential run: report it as a
    failed check (the invariant already chronicled itself)."""
    checks.append(
        DiffCheck(name, float("inf"), 0.0, False, f"invariant: {error}")
    )


# ----------------------------------------------------------------------
# Transaction engine vs. queueing engine
# ----------------------------------------------------------------------


class _ProbeRead(StoredProcedure):
    """Fixed-cost single-key read used for the engine differential.

    ``cost_weight`` is exactly 1.0 so the executor's mean service time is
    ``1 / mu_partition`` — the same rate the analytic engine uses.
    """

    name = "CheckProbeRead"
    read_only = True
    cost_weight = 1.0

    def routing_key(self, params: Mapping[str, Any]) -> Any:
        return params["k"]

    def run(self, ctx: TxnContext, params: Mapping[str, Any]) -> Any:
        return ctx.require("kv", params["k"])["v"]


def _probe_cluster() -> Cluster:
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(
        schema, 1, PROBE_PARTITIONS, n_buckets=PROBE_PARTITIONS * 16
    )
    for i in range(PROBE_KEYS):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _run_executor(rate: float, duration: float, seed: int):
    """Open-loop Poisson arrivals of :class:`_ProbeRead` transactions.

    Returns (completed_tps, latencies_ms, per-partition arrival shares)
    with completion counted by *finish* time inside the horizon, so a
    saturated run reports the service capacity rather than the offered
    rate.
    """
    cluster = _probe_cluster()
    executor = TransactionExecutor(cluster, seed=seed)
    rng = np.random.default_rng(seed + 1)
    probe = _ProbeRead()
    arrivals = np.zeros(PROBE_PARTITIONS)
    latencies: List[float] = []
    finished_in_horizon = 0
    now = rng.exponential(1.0 / rate)
    while now < duration:
        key = f"key-{int(rng.integers(0, PROBE_KEYS))}"
        result = executor.execute(
            Transaction(probe, {"k": key}, submit_time=now)
        )
        arrivals[result.partition_id] += 1
        latencies.append(result.latency_ms)
        if now + result.latency_ms / 1000.0 <= duration:
            finished_in_horizon += 1
        now += rng.exponential(1.0 / rate)
    completed_tps = finished_in_horizon / duration
    shares = arrivals / arrivals.sum()
    return completed_tps, np.asarray(latencies), shares


def _run_queueing(
    rate: float, duration: float, shares: np.ndarray, seed: int
):
    """The analytic engine on the same offered load and measured shares,
    with transient skew disabled (the executor has no hot-key process)."""
    engine = QueueingEngine(
        n_partitions=shares.size,
        seed=seed,
        skew_sigma=0.0,
        hot_episode_rate=0.0,
        samples_per_tick=512,
    )
    block = engine.step_block(1.0, np.full(int(duration), rate), shares)
    return block.completed_tps, block.p50_ms, block.p95_ms


def diff_engines() -> CheckReport:
    """Transaction engine vs. queueing engine on the same Poisson trace.

    Two load levels: one well below saturation (throughput *and*
    stationary latency must agree) and one 50% past it (only throughput
    — the completion rate must pin to the service capacity on both
    sides; overloaded latency depends on horizon length, not model
    agreement).
    """
    checks: List[DiffCheck] = []
    from ..hstore.engine import DEFAULT_MU_PARTITION

    capacity = DEFAULT_MU_PARTITION * PROBE_PARTITIONS

    # --- below saturation ------------------------------------------------
    tput, latencies, shares = _run_executor(
        SUBSAT_TPS, SUBSAT_SECONDS, PROBE_SEED
    )
    q_completed, q_p50, q_p95 = _run_queueing(
        SUBSAT_TPS, SUBSAT_SECONDS, shares, PROBE_SEED
    )
    warmup = int(0.1 * SUBSAT_SECONDS)
    q_tput = float(q_completed.mean())
    _record(
        checks,
        "engines.throughput-subsat",
        abs(tput - q_tput) / max(q_tput, 1e-9),
        THROUGHPUT_SUB_TOL,
        f"executor {tput:.1f} vs queueing {q_tput:.1f} tps",
    )
    exec_p50 = float(np.percentile(latencies, 50))
    exec_p95 = float(np.percentile(latencies, 95))
    q_p50_m = float(np.median(q_p50[warmup:]))
    q_p95_m = float(np.median(q_p95[warmup:]))
    _record(
        checks,
        "engines.p50-subsat",
        abs(exec_p50 - q_p50_m) / max(q_p50_m, 1e-9),
        LATENCY_TOL,
        f"executor {exec_p50:.1f} vs queueing {q_p50_m:.1f} ms",
    )
    _record(
        checks,
        "engines.p95-subsat",
        abs(exec_p95 - q_p95_m) / max(q_p95_m, 1e-9),
        LATENCY_TOL,
        f"executor {exec_p95:.1f} vs queueing {q_p95_m:.1f} ms",
    )

    # --- past saturation -------------------------------------------------
    sat_rate = SAT_FACTOR * capacity
    tput_sat, _, shares_sat = _run_executor(
        sat_rate, SAT_SECONDS, PROBE_SEED + 100
    )
    q_completed_sat, _, _ = _run_queueing(
        sat_rate, SAT_SECONDS, shares_sat, PROBE_SEED + 100
    )
    q_tput_sat = float(q_completed_sat.mean())
    _record(
        checks,
        "engines.throughput-saturated",
        abs(tput_sat - q_tput_sat) / max(q_tput_sat, 1e-9),
        THROUGHPUT_SAT_TOL,
        f"executor {tput_sat:.1f} vs queueing {q_tput_sat:.1f} tps "
        f"(capacity {capacity:.1f})",
    )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Fluid migration accounting vs. committed buckets
# ----------------------------------------------------------------------


def _migration_cluster(nodes: int = 3, ppn: int = 2, buckets: int = 120,
                       rows: int = 3000) -> Cluster:
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(schema, nodes, ppn, buckets)
    for i in range(rows):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _drop_one_bucket(cluster: Cluster, migrator: ClusterMigrator) -> int:
    """Corrupt the migration: silently discard the rows of one bucket
    that is scheduled to move (the injection behind ``--inject
    drop-bucket``).  Returns the sacrificed bucket id."""
    for moves in migrator._pair_buckets.values():
        for move in moves:
            bucket = move.bucket
            owner = cluster.partition(cluster.plan.owner(bucket))
            keys = set(cluster._bucket_keys[bucket]["kv"])
            if keys:
                owner.extract_rows("kv", keys)  # rows vanish, index stays
                return bucket
    raise SimulationError("no scheduled bucket with rows to drop")


def diff_migration_accounting(drop_bucket: bool = False) -> CheckReport:
    """Scale a row-level cluster and compare, at every round commit, the
    fluid-model data fractions against the bucket map's actual
    per-node fractions; verify rows are conserved end to end.

    ``drop_bucket`` corrupts the move (one scheduled bucket's rows are
    discarded mid-flight, *between* advances, the way a buggy transfer
    would lose them) — end-to-end row conservation must trip, and at
    the expensive tier the bucket-map cross-check flags the orphaned
    index entries.
    """
    checks: List[DiffCheck] = []
    cluster = _migration_cluster()
    migrator = ClusterMigrator(cluster, default_config())
    baseline = invariants.snapshot_row_counts(cluster)
    migrator.start_move(MIGRATION_TARGET_NODES)
    active = migrator.active
    assert active is not None
    node_map = dict(active.node_map or {})
    round_seconds = active.round_seconds
    worst = 0.0
    commits = 0
    try:
        while migrator.migrating:
            migrator.advance(round_seconds)
            commits += 1
            if drop_bucket and commits == 1:
                _drop_one_bucket(cluster, migrator)
            if migrator.migrating:
                fluid: Dict[int, float] = {}
                for logical, fraction in enumerate(active.data_fractions()):
                    fluid[node_map.get(logical, logical)] = float(fraction)
                committed = cluster.bucket_fractions_by_node()
                gap = max(
                    abs(fluid.get(node, 0.0) - committed.get(node, 0.0))
                    for node in set(fluid) | set(committed)
                )
                worst = max(worst, gap)
    except InvariantViolation as violation:
        # A runtime invariant (row conservation at a commit, bucket-map
        # agreement at finish) fired inside the migrator itself.
        _record_violation(checks, "migration.invariant", violation)
        return CheckReport(checks)
    _record(
        checks,
        "migration.fluid-vs-buckets",
        worst,
        MIGRATION_FRACTION_TOL,
        f"{commits} commits, {cluster.n_nodes} nodes",
    )
    final = invariants.snapshot_row_counts(cluster)
    _record(
        checks,
        "migration.rows-conserved",
        float(sum(abs(final[t] - baseline[t]) for t in baseline)),
        0.0,
        f"{sum(baseline.values())} rows",
    )
    if invariants.enabled(invariants.EXPENSIVE):
        try:
            invariants.check_bucket_map_agreement(
                cluster, "diff_migration_accounting"
            )
            _record(checks, "migration.bucket-map-agreement", 0.0, 0.0)
        except InvariantViolation as violation:
            _record_violation(checks, "migration.bucket-map-agreement", violation)
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Tensor batch engine vs. serial cells
# ----------------------------------------------------------------------


def diff_tensor(perturb: bool = False) -> CheckReport:
    """Run the tensmoke grid twice — serial per-cell and batched through
    the :class:`~repro.sim.tensor.TensorBatchEngine` — and compare every
    cell's canonical payload.

    The tensor backend's contract is *bit-identical* payloads, so the
    comparison is exact equality of the canonical JSON (the same
    material ``result_hash`` pins).  The grid includes migrating
    strategies, whose migration seconds ride the fused blocks as
    per-tick rows; a final check asserts that no cell left the batch.
    ``perturb`` corrupts one tensor payload to prove the comparison has
    teeth.
    """
    from ..config import canonical_json
    from ..experiments import tensmoke
    from ..runner.spec import jsonify
    from ..sim.tensor import TensorBatchEngine

    config = default_config()
    specs = tensmoke.grid()
    serial = {
        spec.label: canonical_json(jsonify(tensmoke.run_cell(spec, config)))
        for spec in specs
    }
    programs = [tensmoke.tensor_cell(spec, config) for spec in specs]
    batch = TensorBatchEngine(programs).run()

    checks: List[DiffCheck] = []
    for spec, program, cell in zip(specs, programs, batch.outcomes):
        if cell.error is not None:
            checks.append(
                DiffCheck(
                    f"tensor.{spec.label}", float("inf"), 0.0, False,
                    f"batch error: {cell.error.splitlines()[-1]}",
                )
            )
            continue
        payload = jsonify(program.finalize(cell.result))
        if perturb and spec is specs[0]:
            payload = dict(payload, __perturbed__=True)
        delta = 0.0 if canonical_json(payload) == serial[spec.label] else 1.0
        _record(
            checks,
            f"tensor.{spec.label}",
            delta,
            BIT_IDENTICAL_TOL,
            f"{cell.batched_ticks} batched + {cell.scalar_ticks} scalar "
            f"ticks, {cell.evictions} evictions",
        )
    _record(
        checks,
        "tensor.every-tick-batched",
        float(batch.evictions + batch.scalar_ticks),
        0.0,
        f"{batch.evictions} evictions, {batch.scalar_ticks} scalar ticks "
        f"over {batch.rounds} rounds",
    )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Serve crash/resume vs. uninterrupted run
# ----------------------------------------------------------------------

#: Report index the crashing serve run dies at — past the drift slot
#: (72), so the checkpoint carries a hot accuracy window, a refit model,
#: and (typically) trigger state, the hardest state to reconstruct.
SERVE_RESUME_KILL_AFTER = 90


def diff_serve_resume(perturb: bool = False) -> CheckReport:
    """Crash a checkpointing serve run mid-stream, resume it, and compare
    against one uninterrupted run of the identical scenario.

    Convergence contract: the resumed run must finish with the same
    summary counters (intervals, violations, moves, trigger activity,
    final machine count) and the same chronicle projection — ``(kind,
    time)`` rows, ``service.*`` markers excluded — as if the crash never
    happened.  Equal interval counts plus an identical projection also
    rule out double-closed intervals: a re-closed slot would show up as
    extra interval records on both axes.  The killed run's checkpoint
    must also be the state it died in: the last journal fold
    (``read_checkpoint``) equals the plane's ``state_dict()`` at the
    kill.  ``perturb`` corrupts one projection row and that state to
    prove the comparisons have teeth.
    """
    import json
    import tempfile

    from ..experiments.serve import (
        SERVE_SEED,
        SERVE_TRIGGER,
        chronicle_projection,
        run_resume_scenario,
        run_scenario,
    )
    from ..serve.persist import read_checkpoint

    baseline_summary, baseline_chronicle = run_scenario(
        SERVE_SEED, SERVE_TRIGGER
    )
    at_kill = {}

    def on_kill(plane) -> None:
        # Before the resumed run rewrites the directory.
        folded = read_checkpoint(plane.options.checkpoint_dir)
        for meta in ("schema", "seq", "chronicle_rows"):
            folded.pop(meta)
        state = json.loads(json.dumps(plane.state_dict(), sort_keys=True))
        if perturb:
            state["processed"] += 1
        at_kill.update(folded=folded, state=state)

    with tempfile.TemporaryDirectory(prefix="pstore-serve-resume-") as tmp:
        killed, resumed, merged = run_resume_scenario(
            SERVE_SEED,
            SERVE_TRIGGER,
            checkpoint_dir=tmp,
            kill_after=SERVE_RESUME_KILL_AFTER,
            on_kill=on_kill,
        )

    checks: List[DiffCheck] = []
    _record(
        checks,
        "serve-resume.crash-was-partial",
        0.0 if killed["intervals"] < baseline_summary["intervals"] else 1.0,
        0.0,
        f"killed at {killed['intervals']} of "
        f"{baseline_summary['intervals']} intervals",
    )
    folded, state = at_kill["folded"], at_kill["state"]
    differ = sorted(
        key for key in folded.keys() | state.keys()
        if folded.get(key) != state.get(key)
    )
    _record(
        checks,
        "serve-resume.checkpoint-is-the-state-at-the-kill",
        float(len(differ)),
        0.0,
        f"fields that differ: {', '.join(differ)}" if differ else
        f"all {len(state)} top-level fields equal after "
        f"{killed['intervals']} intervals",
    )
    _record(
        checks,
        "serve-resume.resumed-from-checkpoint",
        0.0 if resumed.get("resumed") else 1.0,
        0.0,
        f"checkpoint saves: {resumed.get('checkpoint_saves')}",
    )
    for field in (
        "intervals",
        "violations",
        "moves_started",
        "emergencies",
        "trigger_fires",
        "trigger_recoveries",
        "steady_machines",
    ):
        _record(
            checks,
            f"serve-resume.{field}",
            float(abs(resumed[field] - baseline_summary[field])),
            0.0,
            f"baseline={baseline_summary[field]} resumed={resumed[field]}",
        )
    _record(
        checks,
        "serve-resume.mode",
        0.0 if resumed["mode"] == baseline_summary["mode"] else 1.0,
        0.0,
        f"baseline={baseline_summary['mode']} resumed={resumed['mode']}",
    )
    base_proj = chronicle_projection(baseline_chronicle)
    merged_proj = chronicle_projection(merged)
    if perturb and merged_proj:
        merged_proj[-1] = ("__perturbed__", -1.0)
    mismatches = sum(
        1 for a, b in zip(base_proj, merged_proj) if a != b
    ) + abs(len(base_proj) - len(merged_proj))
    _record(
        checks,
        "serve-resume.chronicle-projection",
        float(mismatches),
        0.0,
        f"{len(base_proj)} baseline vs {len(merged_proj)} merged records",
    )
    _record(
        checks,
        "serve-resume.no-duplicate-reports-counted",
        0.0 if resumed["reports"] == baseline_summary["reports"] else 1.0,
        0.0,
        f"baseline={baseline_summary['reports']} resumed={resumed['reports']} "
        f"(duplicates suppressed: {resumed['duplicate_reports']})",
    )
    return CheckReport(checks)


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------

SUITES = ("engines", "migration", "tensor", "serve-resume")
INJECTIONS = ("drop-bucket", "perturb-tensor", "perturb-serve-resume")


def run_suite(
    suites: Sequence[str] = SUITES,
    inject: Optional[str] = None,
) -> CheckReport:
    """Run the selected differential suites and merge their reports.

    ``inject`` deliberately corrupts one path (one of
    :data:`INJECTIONS`) so callers can verify the harness catches it.
    """
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise SimulationError(f"unknown differential suite(s): {sorted(unknown)}")
    if inject is not None and inject not in INJECTIONS:
        raise SimulationError(f"unknown injection {inject!r}; use {INJECTIONS}")
    report = CheckReport([])
    if "engines" in suites:
        report.extend(diff_engines())
    if "migration" in suites:
        report.extend(
            diff_migration_accounting(drop_bucket=inject == "drop-bucket")
        )
    if "tensor" in suites:
        report.extend(diff_tensor(perturb=inject == "perturb-tensor"))
    if "serve-resume" in suites:
        report.extend(
            diff_serve_resume(perturb=inject == "perturb-serve-resume")
        )
    return report
