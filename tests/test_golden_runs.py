"""Golden pins: behaviour recorded at one commit, checked at every later one.

Sweep hashes are otherwise only compared serial-vs-parallel *within* a
commit, so a refactor that moves every ``result_hash`` the same way
passes.  The digests in ``golden_runs.json`` were recorded before the
reconfiguration-lifecycle refactor (PR 14) on unmodified parent code;
each scenario below is LAPACK-free (no SPAR/AR solves), so the digests
depend only on the numpy ``major.minor`` stored next to them.  Two of
them pin the checkpoint *format*, not behaviour — ``checkpoint_schema``
and ``controller_doc`` — and were re-recorded when PR 16 moved the
document to ``pstore.serve-checkpoint/v2``; that re-record changed
those two lines of the file and no other.

``zoo`` is the exception to LAPACK-free: SPAR, AR, ARMA and mSSA solve
least squares and mSSA takes an eigendecomposition, so it also pins the
BLAS/LAPACK the numpy wheel bundles.  It was recorded on the scalar GBT
split search and per-lag forecast loops, before those were vectorised,
and is what holds the kernels to the old trees and forecasts end to
end.  Its mSSA digest and shootout hash were re-recorded when mSSA's
recurrence ridge became relative, and the mSSA digest again when its
Grams came from lagged products instead of GEMMs and its forecast steps
from one dot each.  Of mSSA's fit only ``eigh`` and ``solve_ridge``
still depend on the thread count: OpenBLAS rounds them differently on
one thread than on several, ~1.4e-12 of the peak in the forecasts.  So
``zoo`` also stores its forecast arrays (``forecast_values``: per model,
the 576 x 7 forecasts as base64 of little-endian float64), and under
one OpenBLAS thread, or on another numpy series, checks them by value
within ``ZOO_RTOL`` of their peak instead of bitwise; the shootout hash
stays bitwise on the recorded numpy.  The other scenarios are skipped
on another numpy.

Re-record (only when a change is *meant* to move behaviour)::

    PYTHONPATH=src python tests/test_golden_runs.py --record
"""

import base64
import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_runs.json")


def _numpy_series() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _digest(rows) -> str:
    """sha256 over canonical JSON, one row per line."""
    sha = hashlib.sha256()
    for row in rows:
        sha.update(json.dumps(row, sort_keys=True, default=float).encode())
        sha.update(b"\n")
    return sha.hexdigest()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _sweep(grid) -> dict:
    from repro.runner import run_sweep

    report = run_sweep(
        grid, cache=None, jobs=1, backend="serial", record_events=True
    )
    return {
        "result_hash": report.result_hash,
        "chronicle": _digest(
            {"cell": cell.label, **record}
            for cell in report.cells
            for record in cell.chronicle
        ),
        "migration_records": sum(
            1
            for cell in report.cells
            for record in cell.chronicle
            if record["kind"].startswith("migration.")
        ),
    }


def scenario_smoke() -> dict:
    from repro.experiments import smoke

    return _sweep(smoke.grid())


def scenario_tensmoke() -> dict:
    from repro.experiments import tensmoke

    return _sweep(tensmoke.grid())


def scenario_sim_chaos() -> dict:
    """The tick-level loop under every fault class that touches a move:
    a wedged transfer, a corrupted round and a crash mid-migration."""
    from repro.config import default_config
    from repro.elasticity import ReactiveStrategy
    from repro.faults import FaultInjector, FaultScenario, FaultSpec
    from repro.sim import ElasticDbSimulator
    from repro.telemetry import Telemetry
    from repro.telemetry.runtime import telemetry_scope

    config = default_config().with_interval(60.0)
    scenario = FaultScenario(
        faults=(
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=90.0),
            FaultSpec(kind="transfer_corruption", on_migration=2),
            FaultSpec(kind="node_crash", at_time=1512.0),
        ),
        seed=5,
        name="golden-sim-chaos",
    )
    ramp = np.concatenate([
        np.linspace(0.4, 1.9, 1500),
        np.linspace(1.9, 0.5, 1500),
        np.linspace(0.5, 1.6, 1200),
    ]) * config.q * 3
    telemetry = Telemetry()
    with telemetry_scope(telemetry):
        injector = FaultInjector(scenario, telemetry=telemetry)
        sim = ElasticDbSimulator(
            config, max_machines=8, initial_machines=3, seed=3,
            injector=injector,
        )
        result = sim.run(ramp, ReactiveStrategy(config, max_machines=8))
    kinds = [rec["kind"] for rec in telemetry.chronicle.records]
    return {
        "chronicle": _digest(telemetry.chronicle.records),
        "faults": _digest(injector.chronicle),
        "machines": hashlib.sha256(result.machines.tobytes()).hexdigest(),
        "p99": hashlib.sha256(
            result.latency.series(99.0).tobytes()
        ).hexdigest(),
        "moves_started": int(result.moves_started),
        "completed": kinds.count("migration.complete"),
        "aborted": kinds.count("migration.aborted"),
    }


def scenario_serve_replay() -> dict:
    """A ControlPlane replay (seasonal predictor): completed moves, a
    checkpoint cut with a move in flight (the one started at the close
    of interval 99) + resume, and a drain-time abort."""
    from repro.experiments.serve import (
        SERVE_SEED,
        SERVE_TRIGGER,
        run_resume_scenario,
        run_scenario,
    )
    from repro.serve.persist import read_checkpoint

    summary, chronicle = run_scenario(SERVE_SEED, SERVE_TRIGGER)
    with tempfile.TemporaryDirectory() as ckpt:
        _, resumed, merged = run_resume_scenario(
            SERVE_SEED, SERVE_TRIGGER, checkpoint_dir=ckpt, kill_after=100
        )
        checkpoint = read_checkpoint(ckpt)
    kinds = [rec["kind"] for rec in chronicle]
    return {
        "chronicle": _digest(chronicle),
        "resumed_chronicle": _digest(merged),
        "summary": _digest([{
            key: summary[key]
            for key in ("intervals", "violations", "moves_started",
                        "emergencies", "steady_machines", "mode")
        }]),
        "resumed_moves_started": int(resumed["moves_started"]),
        "checkpoint_schema": checkpoint["schema"],
        "completed": kinds.count("migration.complete"),
        "aborted": kinds.count("migration.aborted"),
    }


def scenario_serve_checkpoint() -> dict:
    """The controller's checkpoint document with a move in flight."""
    import dataclasses

    from repro.config import default_config
    from repro.prediction import LastValuePredictor
    from repro.serve.controller import OnlineController
    from repro.telemetry import Telemetry

    config = default_config().with_interval(300.0)
    config = dataclasses.replace(config, d_seconds=config.d_seconds * 8)
    telemetry = Telemetry()
    controller = OnlineController(
        config, LastValuePredictor().fit([1000.0]), initial_machines=2,
        telemetry=telemetry,
    )
    history = [1000.0]
    for slot in range(1, 5):
        history.append(30000.0)
        controller.on_interval(slot, history, (slot + 1) * 300.0)
    assert controller.migrating
    return {
        "controller_doc": _digest([controller.state_dict()]),
        "chronicle": _digest(telemetry.chronicle.records),
    }


def scenario_migrator_chaos() -> dict:
    """ClusterMigrator alone: a wedged transfer and a corrupted round on
    the way out, an abort on the way back in."""
    from repro.config import PStoreConfig
    from repro.faults import FaultInjector, FaultSpec
    from repro.hstore import Cluster, Column, Schema, Table
    from repro.squall import ClusterMigrator
    from repro.telemetry import Telemetry

    schema = Schema([Table(
        "kv", [Column("k", "str"), Column("v", "int", nullable=True)],
        primary_key="k",
    )])
    cluster = Cluster(schema, 3, 2, 120)
    for i in range(600):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    telemetry = Telemetry()
    injector = FaultInjector(
        [
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=120.0),
            FaultSpec(kind="transfer_corruption", at_time=0.0),
        ],
        telemetry=telemetry,
    )
    migrator = ClusterMigrator(
        cluster, PStoreConfig(database_kb=6000.0, d_seconds=600.0),
        telemetry=telemetry, injector=injector,
    )
    migrator.start_move(5)
    ticks = 0
    while migrator.migrating:
        migrator.advance(7.0)
        ticks += 1
    migration = migrator.start_move(3)
    migrator.advance(migration.round_seconds * 1.5)
    migrator.abort("operator")
    rows = sum(
        cluster.partition(p).row_count() for p in cluster.partition_ids
    )
    return {
        "chronicle": _digest(telemetry.chronicle.records),
        "faults": _digest(injector.chronicle),
        "ticks": ticks,
        "rows": rows,
        "nodes": cluster.n_nodes,
    }


def scenario_service_crash() -> dict:
    """PStoreService: a scale-out aborted by a crash, then the re-planned
    move running to completion on the row-level cluster."""
    from repro.benchmark import b2w_schema, load_b2w_data
    from repro.config import PStoreConfig
    from repro.core import PStoreService
    from repro.faults import FaultInjector, crash_during_migration_scenario
    from repro.hstore import Cluster
    from repro.prediction.base import Predictor
    from repro.telemetry import Telemetry
    from repro.telemetry.runtime import telemetry_scope

    class FlatPredictor(Predictor):
        def __init__(self, level):
            super().__init__()
            self.level = level
            self._fitted = True

        @property
        def min_history(self):
            return 1

        def fit(self, series):
            return self

        def predict_horizon(self, history, horizon):
            return np.full(horizon, self.level)

    config = PStoreConfig(
        interval_seconds=60.0, d_seconds=600.0, database_kb=3000.0,
        partitions_per_node=3,
    )
    telemetry = Telemetry()
    with telemetry_scope(telemetry):
        cluster = Cluster(b2w_schema(), n_nodes=3, partitions_per_node=3,
                          n_buckets=192)
        load_b2w_data(cluster, n_stock=50, n_carts=60, n_checkouts=10, seed=1)
        injector = FaultInjector(
            crash_during_migration_scenario(seed=7), telemetry=telemetry
        )
        service = PStoreService(
            cluster, config, FlatPredictor(config.q * 4.5), max_machines=6,
            injector=injector,
        )
        for _ in range(40):
            service.advance_time(30.0)
        service.predictor.level = config.q * 1.2   # then scale back in
        for _ in range(60):
            service.advance_time(30.0)
    kinds = [rec["kind"] for rec in telemetry.chronicle.records]
    return {
        "chronicle": _digest(telemetry.chronicle.records),
        "service_events": _digest(
            {"time": r["time"], "kind": r["kind"][len("service."):],
             "detail": r["detail"], "record_id": r["id"]}
            for r in telemetry.chronicle.records
            if r["kind"].startswith("service.")
        ),
        "machines": int(service.machines),
        "completed": kinds.count("migration.complete"),
        "aborted": kinds.count("migration.aborted"),
        "node_adds": kinds.count("node.add"),
        "node_removes": kinds.count("node.remove"),
    }


def scenario_zoo() -> dict:
    """The predictor zoo end to end and at capacity_zoo's scale: the
    serial ``shootout`` sweep (8 predictors x 4 drift workloads, period
    24), then spar / mssa / gbt fitted on 14 steady days at period 288
    and asked for the controller's horizon at every evaluation slot."""
    from repro.experiments import shootout
    from repro.prediction import get_predictor_spec
    from repro.runner import run_sweep

    try:
        from tests.zoo_oracles import ZOO_HORIZON, ZOO_PERIOD, zoo_scale_series
    except ImportError:  # run as a script from the repository root
        from zoo_oracles import ZOO_HORIZON, ZOO_PERIOD, zoo_scale_series

    report = run_sweep(shootout.grid(), cache=None, jobs=1, backend="serial")
    train, evaluation = zoo_scale_series()
    series = np.concatenate([train, evaluation])
    forecasts, values = {}, {}
    for slug in ("spar", "mssa", "gbt"):
        model = get_predictor_spec(slug).for_period(ZOO_PERIOD).fit(train)
        rows = np.array([
            model.predict_horizon(series[: train.size + slot + 1], ZOO_HORIZON)
            for slot in range(evaluation.size)
        ], dtype="<f8")
        forecasts[slug] = hashlib.sha256(rows.tobytes()).hexdigest()
        values[slug] = base64.b64encode(rows.tobytes()).decode("ascii")
    return {
        "shootout_result_hash": report.result_hash,
        "forecasts": forecasts,
        "forecast_values": values,
    }


SCENARIOS = {
    "smoke": scenario_smoke,
    "tensmoke": scenario_tensmoke,
    "sim_chaos": scenario_sim_chaos,
    "migrator_chaos": scenario_migrator_chaos,
    "serve_replay": scenario_serve_replay,
    "serve_checkpoint": scenario_serve_checkpoint,
    "service_crash": scenario_service_crash,
    "zoo": scenario_zoo,
}


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------


#: How far the ``zoo`` forecasts may move, relative to their peak, where
#: they are checked by value: BLAS/LAPACK rounding, 1.35e-12 of the peak
#: between one OpenBLAS thread and several.
ZOO_RTOL = 1e-9


def _one_blas_thread() -> bool:
    """Whether OpenBLAS runs one thread in this process.  It reads the
    first of these variables that is set, and otherwise starts one
    thread per CPU it may run on."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value:
            return value == "1"
    cpus = getattr(os, "sched_getaffinity", None)
    return (len(cpus(0)) if cpus else os.cpu_count()) == 1


def _forecast_rows(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype="<f8")


@pytest.fixture(scope="module")
def recording() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _skip_on_another_numpy(recording: dict) -> None:
    if recording["numpy"] != _numpy_series():
        pytest.skip(
            f"golden digests were recorded under numpy {recording['numpy']}, "
            f"this is {_numpy_series()}"
        )


@pytest.fixture(scope="module")
def golden(recording) -> dict:
    _skip_on_another_numpy(recording)
    return recording["digests"]


def _zoo_by_value(want: dict, same_numpy: bool) -> None:
    """The ``zoo`` forecasts within ``ZOO_RTOL`` of their recorded
    peak, and the shootout hash bitwise on the recorded numpy."""
    got = scenario_zoo()
    if same_numpy:
        assert got["shootout_result_hash"] == want["shootout_result_hash"]
    for slug, blob in want["forecast_values"].items():
        theirs = _forecast_rows(blob)
        ours = _forecast_rows(got["forecast_values"][slug])
        assert np.abs(ours - theirs).max() <= ZOO_RTOL * theirs.max(), slug


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run(recording, name):
    """Bitwise where the run matches the recording: its numpy series
    and, for ``zoo``, a multi-threaded BLAS.  ``zoo`` is checked by
    value under one OpenBLAS thread or on another numpy; the other
    scenarios are skipped on another numpy."""
    same_numpy = recording["numpy"] == _numpy_series()
    if name == "zoo" and (_one_blas_thread() or not same_numpy):
        _zoo_by_value(recording["digests"]["zoo"], same_numpy)
        return
    _skip_on_another_numpy(recording)
    assert SCENARIOS[name]() == recording["digests"][name]


def test_scenarios_cover_the_lifecycle(golden):
    """The pins are only worth something if moves actually happen."""
    assert golden["smoke"]["migration_records"] > 0
    assert golden["tensmoke"]["migration_records"] > 0
    for name in ("sim_chaos", "serve_replay", "service_crash"):
        assert golden[name]["completed"] >= 1, name
        assert golden[name]["aborted"] >= 1, name
    assert golden["serve_replay"]["checkpoint_schema"] == (
        "pstore.serve-checkpoint/v2"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_runs.py --record")
    GOLDEN_PATH.write_text(json.dumps(
        {
            "numpy": _numpy_series(),
            "digests": {name: fn() for name, fn in sorted(SCENARIOS.items())},
        },
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")
