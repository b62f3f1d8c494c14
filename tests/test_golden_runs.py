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

Beside the digests, ``values`` stores the numbers each of those
scenarios hashes: its integer counts as they are, each float array as
its length / sum / max, each chronicle as its ``(kind, time)``
projection, and a sweep cell's payload with its ``series_sha`` (itself a
digest) left out.  On the recorded numpy series the digests are checked
bitwise; on another series the values are, counts, kinds and strings
exactly and floats within ``VALUE_RTOL`` of the recording.

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
``zoo`` stores its forecast arrays (``forecast_values``: per model, the
576 x 7 forecasts as base64 of little-endian float64) in place of
``values``, and under one OpenBLAS thread, or on another numpy series,
checks them by value within ``ZOO_RTOL`` of their peak instead of
bitwise; the shootout hash stays bitwise on the recorded numpy.

Re-record (only when a change is *meant* to move behaviour)::

    PYTHONPATH=src python tests/test_golden_runs.py --record
"""

import base64
import functools
import hashlib
import json
import math
import os
import pathlib
import re
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


def _values(obj):
    """``obj`` by value: dicts and lists walked, a non-empty list or
    array of numbers as its length / sum / max, scalars as they are."""
    if isinstance(obj, dict):
        return {str(key): _values(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray) or (
        isinstance(obj, (list, tuple)) and obj
        and all(type(x) in (int, float) for x in obj)
    ):
        array = np.asarray(obj)
        return {
            "len": int(array.size),
            "sum": array.sum().item(),
            "max": array.max().item(),
        }
    if isinstance(obj, (list, tuple)):
        return [_values(x) for x in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


class Pin:
    """What a scenario pins, entry by entry: a digest, and the numbers
    it hashes (see the module docstring)."""

    def __init__(self):
        self.digests, self.values = {}, {}

    def rows(self, name, rows, project=None):
        """``rows`` as one digest; by value, ``project(row)`` of each
        row, or the rows themselves."""
        rows = list(rows)
        self.digests[name] = _digest(rows)
        self.values[name] = _values(
            [project(row) for row in rows] if project else rows
        )

    def chronicle(self, name, records, kind="kind"):
        self.rows(name, records, lambda r: [r[kind], r["time"]])

    def array(self, name, array):
        self.digests[name] = hashlib.sha256(array.tobytes()).hexdigest()
        self.values[name] = _values(array)

    def value(self, name, value, by_value=None):
        """An entry pinned as it is, or a hash whose numbers are
        ``by_value``."""
        self.digests[name] = value
        self.values[name] = _values(value if by_value is None else by_value)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _sweep(grid) -> Pin:
    from repro.runner import run_sweep

    report = run_sweep(
        grid, cache=None, jobs=1, backend="serial", record_events=True
    )
    pin = Pin()
    pin.value("result_hash", report.result_hash, {
        cell.label: {
            key: value for key, value in cell.payload.items()
            if key != "series_sha"
        }
        for cell in report.cells
    })
    pin.rows(
        "chronicle",
        (
            {"cell": cell.label, **record}
            for cell in report.cells
            for record in cell.chronicle
        ),
        lambda r: [r["cell"], r["kind"], r["time"]],
    )
    pin.value("migration_records", sum(
        1
        for cell in report.cells
        for record in cell.chronicle
        if record["kind"].startswith("migration.")
    ))
    return pin


def scenario_smoke() -> Pin:
    from repro.experiments import smoke

    return _sweep(smoke.grid())


def scenario_tensmoke() -> Pin:
    from repro.experiments import tensmoke

    return _sweep(tensmoke.grid())


def scenario_sim_chaos() -> Pin:
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
    pin = Pin()
    pin.chronicle("chronicle", telemetry.chronicle.records)
    pin.chronicle("faults", injector.chronicle, kind="event")
    pin.array("machines", result.machines)
    pin.array("p99", result.latency.series(99.0))
    pin.value("moves_started", int(result.moves_started))
    pin.value("completed", kinds.count("migration.complete"))
    pin.value("aborted", kinds.count("migration.aborted"))
    return pin


def scenario_serve_replay() -> Pin:
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
    pin = Pin()
    pin.chronicle("chronicle", chronicle)
    pin.chronicle("resumed_chronicle", merged)
    pin.rows("summary", [{
        key: summary[key]
        for key in ("intervals", "violations", "moves_started",
                    "emergencies", "steady_machines", "mode")
    }])
    pin.value("resumed_moves_started", int(resumed["moves_started"]))
    pin.value("checkpoint_schema", checkpoint["schema"])
    pin.value("completed", kinds.count("migration.complete"))
    pin.value("aborted", kinds.count("migration.aborted"))
    return pin


def scenario_serve_checkpoint() -> Pin:
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
    pin = Pin()
    pin.rows("controller_doc", [controller.state_dict()])
    pin.chronicle("chronicle", telemetry.chronicle.records)
    return pin


def scenario_migrator_chaos() -> Pin:
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
    pin = Pin()
    pin.chronicle("chronicle", telemetry.chronicle.records)
    pin.chronicle("faults", injector.chronicle, kind="event")
    pin.value("ticks", ticks)
    pin.value("rows", rows)
    pin.value("nodes", cluster.n_nodes)
    return pin


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
    "zoo": scenario_zoo,
}


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------


#: How far the ``zoo`` forecasts may move, relative to their peak, where
#: they are checked by value: BLAS/LAPACK rounding, 1.35e-12 of the peak
#: between one OpenBLAS thread and several.
ZOO_RTOL = 1e-9
#: How far a float in ``values`` may move, relative to its recording,
#: where it is checked by value: far above the last-bit rounding another
#: numpy may bring, far below any change of behaviour.
VALUE_RTOL = 1e-9


@functools.lru_cache(maxsize=None)
def _run(name: str) -> tuple:
    """Scenario ``name``, run once per session: its digests and its
    values as the recording stores them (None for ``zoo``, whose
    by-value data is its ``forecast_values``)."""
    result = SCENARIOS[name]()
    if name == "zoo":
        return result, None
    return result.digests, json.loads(json.dumps(result.values))


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


def _zoo_by_value(want: dict, same_numpy: bool) -> None:
    """The ``zoo`` forecasts within ``ZOO_RTOL`` of their recorded
    peak, and the shootout hash bitwise on the recorded numpy."""
    got, _ = _run("zoo")
    if same_numpy:
        assert got["shootout_result_hash"] == want["shootout_result_hash"]
    for slug, blob in want["forecast_values"].items():
        theirs = _forecast_rows(blob)
        ours = _forecast_rows(got["forecast_values"][slug])
        assert np.abs(ours - theirs).max() <= ZOO_RTOL * theirs.max(), slug


def _assert_close(got, want, where: str) -> None:
    """``got`` is the recorded ``want`` by value: structure, counts,
    kinds and strings exactly, floats within ``VALUE_RTOL``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (ours, theirs) in enumerate(zip(got, want)):
            _assert_close(ours, theirs, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, where
        assert math.isclose(got, want, rel_tol=VALUE_RTOL) or (
            math.isnan(got) and math.isnan(want)
        ), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run(recording, name):
    """Bitwise where the run matches the recording: its numpy series
    and, for ``zoo``, a multi-threaded BLAS.  By value elsewhere: ``zoo``
    its forecast arrays, every other scenario its ``values``."""
    same_numpy = recording["numpy"] == _numpy_series()
    if name == "zoo" and (_one_blas_thread() or not same_numpy):
        _zoo_by_value(recording["digests"]["zoo"], same_numpy)
    elif same_numpy:
        assert _run(name)[0] == recording["digests"][name]
    else:
        _assert_close(_run(name)[1], recording["values"][name], name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run_on_another_numpy(recording, name, monkeypatch):
    """The by-value path, taken here by claiming another numpy series."""
    monkeypatch.setitem(globals(), "_numpy_series", lambda: "0.0")
    test_golden_run(recording, name)


def test_the_by_value_check_catches_a_moved_number(recording):
    want = recording["values"]["sim_chaos"]
    _assert_close(json.loads(json.dumps(want)), want, "as recorded")
    nudged = json.loads(json.dumps(want))
    nudged["p99"]["sum"] *= 1 + VALUE_RTOL / 10
    _assert_close(nudged, want, "within tolerance")
    for change in (
        lambda v: v["p99"].__setitem__("sum", v["p99"]["sum"] * (1 + 1e-6)),
        lambda v: v["chronicle"][-1].__setitem__(1, v["chronicle"][-1][1] + 1),
        lambda v: v["chronicle"][0].__setitem__(0, "migration.other"),
        lambda v: v["faults"].pop(),
        lambda v: v.__setitem__("moves_started", v["moves_started"] + 1),
    ):
        moved = json.loads(json.dumps(want))
        change(moved)
        with pytest.raises(AssertionError):
            _assert_close(moved, want, "moved")


def test_scenarios_cover_the_lifecycle(recording):
    """The pins are only worth something if moves actually happen, and
    every scenario can be checked by value."""
    golden = recording["digests"]
    assert set(golden) == set(SCENARIOS)
    assert set(recording["values"]) == set(SCENARIOS) - {"zoo"}
    assert golden["smoke"]["migration_records"] > 0
    assert golden["tensmoke"]["migration_records"] > 0
    for name in ("sim_chaos", "serve_replay"):
        assert golden[name]["completed"] >= 1, name
        assert golden[name]["aborted"] >= 1, name
    assert golden["serve_replay"]["checkpoint_schema"] == (
        "pstore.serve-checkpoint/v2"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_runs.py --record")
    runs = {name: _run(name) for name in sorted(SCENARIOS)}
    text = json.dumps(
        {
            "numpy": _numpy_series(),
            "digests": {name: run[0] for name, run in runs.items()},
            "values": {
                name: run[1] for name, run in runs.items()
                if run[1] is not None
            },
        },
        indent=1, sort_keys=True,
    )
    # One line per list of scalars: a chronicle's projection is then one
    # line per record.
    text = re.sub(
        r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m.group())), text
    )
    GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {GOLDEN_PATH}")
