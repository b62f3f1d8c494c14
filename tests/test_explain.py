"""Tests for the causal layer: violation attribution, chronicle IO,
causal chains, and the ``pstore explain`` subcommand."""

import json

import numpy as np
import pytest

from repro.analysis import (
    CAUSE_BUCKETS,
    CAUSE_FAULT,
    CAUSE_HEADROOM,
    CAUSE_MIGRATION,
    CAUSE_UNDER_FORECAST,
    attribute_violation,
    attribution_totals,
    causal_chain,
    explain_run,
    load_chronicle,
    render_explain,
)
from repro.cli import main
from repro.config import default_config
from repro.elasticity import PStoreStrategy
from repro.errors import TelemetryError
from repro.faults import FaultInjector, FaultScenario, FaultSpec
from repro.prediction.naive import LastValuePredictor
from repro.sim import ElasticDbSimulator
from repro.telemetry import (
    CHRONICLE_SCHEMA,
    FlightRecorder,
    Telemetry,
    make_record_id,
    telemetry_scope,
    write_chronicle_jsonl,
)

CFG = default_config()  # 60 s planner interval


# ----------------------------------------------------------------------
# Attribution precedence
# ----------------------------------------------------------------------


class TestAttribution:
    def test_fault_dominates_everything(self):
        record = {
            "fault_seconds": 12,
            "migrating_seconds": 30,
            "measured_tps": 900.0,
            "inflated_tps": 400.0,
        }
        assert attribute_violation(record) == CAUSE_FAULT

    def test_migration_beats_forecast(self):
        record = {
            "migrating_seconds": 30,
            "measured_tps": 900.0,
            "inflated_tps": 400.0,
        }
        assert attribute_violation(record) == CAUSE_MIGRATION

    def test_under_forecast_when_load_exceeds_inflated(self):
        record = {"measured_tps": 900.0, "inflated_tps": 400.0}
        assert attribute_violation(record) == CAUSE_UNDER_FORECAST

    def test_headroom_otherwise(self):
        assert attribute_violation(
            {"measured_tps": 350.0, "inflated_tps": 400.0}
        ) == CAUSE_HEADROOM
        # No forecast context at all also lands on headroom.
        assert attribute_violation({}) == CAUSE_HEADROOM

    def test_capacity_records_use_peak_tps(self):
        record = {"peak_tps": 900.0, "inflated_tps": 400.0,
                  "migrating": False}
        assert attribute_violation(record) == CAUSE_UNDER_FORECAST
        record["migrating"] = True
        assert attribute_violation(record) == CAUSE_MIGRATION

    def test_totals_sum_seconds_per_bucket(self):
        totals = attribution_totals([
            {"fault_seconds": 5, "seconds": 5},
            {"migrating_seconds": 10, "seconds": 10},
            {"measured_tps": 900.0, "inflated_tps": 400.0, "seconds": 7},
            {"measured_tps": 900.0, "inflated_tps": 400.0},  # 1 interval
        ])
        assert totals[CAUSE_FAULT] == 5
        assert totals[CAUSE_MIGRATION] == 10
        assert totals[CAUSE_UNDER_FORECAST] == 8
        assert totals[CAUSE_HEADROOM] == 0


# ----------------------------------------------------------------------
# Record IDs and chains
# ----------------------------------------------------------------------


class TestRecordIds:
    def test_ids_are_deterministic(self):
        assert make_record_id("forecast.snapshot", 300.0, 17) == "fc-300-00017"
        assert make_record_id("sla.violation", None, 2) == "sv-x-00002"
        assert make_record_id("custom.kind", 1.5, 1) == "ck-1.5-00001"

    def test_recorder_links_parents(self):
        chron = FlightRecorder()
        snap = chron.record("forecast.snapshot", time=60.0, origin_slot=0)
        plan = chron.record("plan.decision", time=60.0, parent=snap)
        move = chron.record("migration.start", time=61.0,
                            parent=plan["id"])
        assert plan["parent"] == snap["id"]
        assert move["parent"] == plan["id"]
        assert chron.last("plan.decision") == plan["id"]
        assert len(chron) == 3

    def test_reserved_keys_survive_field_collisions(self):
        chron = FlightRecorder()
        # A payload field named ``id`` must not clobber the record's
        # identity (``kind``/``time``/``parent`` are keyword params and
        # cannot even reach the payload).
        rec = chron.record("node.remove", time=5.0, id="bad", node=3)
        assert rec["kind"] == "node.remove"
        assert rec["id"] != "bad"
        assert rec["id"].startswith("nr-5-")
        assert rec["node"] == 3


class TestCausalChain:
    def _records(self):
        chron = FlightRecorder()
        snap = chron.record("forecast.snapshot", time=60.0)
        plan = chron.record("plan.decision", time=60.0, parent=snap)
        move = chron.record("migration.start", time=61.0, parent=plan)
        viol = chron.record("sla.violation", time=90.0, parent=move,
                            seconds=3, migrating_seconds=3)
        return chron.snapshot(), snap, viol

    def test_chain_is_root_first(self):
        records, snap, viol = self._records()
        by_id = {r["id"]: r for r in records}
        chain = causal_chain(viol, by_id)
        assert [r["kind"] for r in chain] == [
            "forecast.snapshot", "plan.decision", "migration.start",
            "sla.violation",
        ]
        assert chain[0] is by_id[snap["id"]]

    def test_dangling_parent_yields_stub(self):
        viol = {"id": "sv-1-00001", "kind": "sla.violation",
                "parent": "fc-gone-00009"}
        chain = causal_chain(viol, {viol["id"]: viol})
        assert chain[0] == {"id": "fc-gone-00009", "kind": "(missing)"}

    def test_cycles_terminate(self):
        a = {"id": "a", "kind": "x", "parent": "b"}
        b = {"id": "b", "kind": "x", "parent": "a"}
        chain = causal_chain(a, {"a": a, "b": b})
        assert len(chain) == 2


# ----------------------------------------------------------------------
# Chronicle IO
# ----------------------------------------------------------------------


class TestChronicleIo:
    def test_round_trip(self, tmp_path):
        tel = Telemetry()
        tel.chronicle.record("forecast.snapshot", time=60.0)
        tel.chronicle.record("sla.violation", time=90.0, seconds=2)
        path = write_chronicle_jsonl(tel, tmp_path / "chronicle.jsonl")
        records = load_chronicle(tmp_path)
        assert len(records) == 2
        assert records[0]["kind"] == "forecast.snapshot"
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": CHRONICLE_SCHEMA}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_chronicle(tmp_path)

    def test_bad_schema_raises(self, tmp_path):
        (tmp_path / "chronicle.jsonl").write_text(
            json.dumps({"schema": "pstore.spans/v1"}) + "\n"
        )
        with pytest.raises(TelemetryError):
            load_chronicle(tmp_path)

    def test_invalid_json_raises(self, tmp_path):
        (tmp_path / "chronicle.jsonl").write_text(
            json.dumps({"schema": CHRONICLE_SCHEMA}) + "\n{broken\n"
        )
        with pytest.raises(TelemetryError):
            load_chronicle(tmp_path)

    def test_merged_sweep_rows_are_namespaced(self, tmp_path):
        rows = [
            {"schema": CHRONICLE_SCHEMA, "merged": True},
            {"cell": "a", "id": "fc-60-00001", "kind": "forecast.snapshot"},
            {"cell": "a", "id": "sv-90-00002", "kind": "sla.violation",
             "parent": "fc-60-00001", "seconds": 1},
            {"cell": "b", "id": "fc-60-00001", "kind": "forecast.snapshot"},
        ]
        (tmp_path / "chronicle.jsonl").write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n"
        )
        records = load_chronicle(tmp_path)
        ids = [r["id"] for r in records]
        assert ids == ["a/fc-60-00001", "a/sv-90-00002", "b/fc-60-00001"]
        assert records[1]["parent"] == "a/fc-60-00001"
        report = explain_run(tmp_path)
        chain = report.chain(report.violations[0])
        assert [r["id"] for r in chain] == ["a/fc-60-00001", "a/sv-90-00002"]


# ----------------------------------------------------------------------
# End-to-end: an under-forecast spike plus a node crash, explained
# ----------------------------------------------------------------------


def _spike_and_crash_run():
    """A canned deterministic run with three engineered violation causes:

    * a node crash at t=300s that overloads the surviving machine until
      recovery completes (fault attribution);
    * a sudden ~3x load step at t=1800s — long after recovery — that the
      last-value predictor cannot foresee (under-forecast attribution);
    * the scale-out the controller then launches, which steals capacity
      while data moves (migration-overhead attribution).
    """
    low = CFG.q_hat * 2 * 0.55   # fits 2 machines, overloads 1
    high = CFG.q_hat * 2 * 1.5
    offered = np.concatenate([np.full(1800, low), np.full(600, high)])
    scenario = FaultScenario(
        faults=(FaultSpec(kind="node_crash", at_time=300.0),),
        seed=5,
        name="explain-drill",
    )
    tel = Telemetry()
    with telemetry_scope(tel):
        predictor = LastValuePredictor().fit([low] * 8)
        strategy = PStoreStrategy(CFG, predictor)
        sim = ElasticDbSimulator(
            CFG, max_machines=6, initial_machines=2, seed=3,
            injector=FaultInjector(scenario),
        )
        result = sim.run(offered, strategy)
    return tel, result


@pytest.fixture(scope="module")
def spike_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("explain-run")
    tel, _ = _spike_and_crash_run()
    write_chronicle_jsonl(tel, out / "chronicle.jsonl")
    return out


class TestExplainEndToEnd:
    def test_chronicle_is_deterministic(self):
        first, _ = _spike_and_crash_run()
        second, _ = _spike_and_crash_run()
        assert first.chronicle.snapshot() == second.chronicle.snapshot()

    def test_violations_cover_the_engineered_causes(self, spike_run_dir):
        report = explain_run(spike_run_dir)
        assert report.violations
        causes = {attribute_violation(v) for v in report.violations}
        assert CAUSE_FAULT in causes
        assert CAUSE_UNDER_FORECAST in causes
        # Every violating interval lands in exactly one bucket.
        assert causes <= set(CAUSE_BUCKETS)
        totals = report.attribution
        assert sum(totals.values()) == sum(
            float(v.get("seconds", 1)) for v in report.violations
        )

    def test_chains_are_walkable(self, spike_run_dir):
        report = explain_run(spike_run_dir)
        for violation in report.violations:
            chain = report.chain(violation)
            assert chain[-1] is violation
            # Single-run chronicles never have dangling parents.
            assert all(r.get("kind") != "(missing)" for r in chain)
            # A violation always hangs off some cause record.
            assert len(chain) >= 2
        # Fault-attributed violations chain back to the injection.
        fault_violations = [
            v for v in report.violations
            if attribute_violation(v) == CAUSE_FAULT
        ]
        assert fault_violations
        for violation in fault_violations:
            kinds = {r["kind"] for r in report.chain(violation)}
            assert "fault.injected" in kinds

    def test_reconfigurations_link_to_their_decisions(self, spike_run_dir):
        report = explain_run(spike_run_dir)
        assert report.reconfigurations
        for move in report.reconfigurations:
            chain = report.chain(move)
            kinds = [r["kind"] for r in chain]
            assert kinds[-1] == "migration.start"
            assert "plan.decision" in kinds
            assert "forecast.snapshot" in kinds

    def test_window_filters_anchors(self, spike_run_dir):
        full = explain_run(spike_run_dir)
        early = explain_run(spike_run_dir, window=(0.0, 1799.0))
        late = explain_run(spike_run_dir, window=(1800.0, 2400.0))
        assert len(early.violations) + len(late.violations) == len(
            full.violations
        )
        # The under-forecast spike lives entirely in the late window.
        late_causes = {attribute_violation(v) for v in late.violations}
        assert CAUSE_UNDER_FORECAST in late_causes
        early_causes = {attribute_violation(v) for v in early.violations}
        assert CAUSE_UNDER_FORECAST not in early_causes

    def test_bad_window_rejected(self, spike_run_dir):
        with pytest.raises(TelemetryError):
            explain_run(spike_run_dir, window=(100.0, 0.0))

    def test_render_mentions_buckets_and_ids(self, spike_run_dir):
        report = explain_run(spike_run_dir)
        text = render_explain(report)
        assert "attribution" in text
        assert CAUSE_FAULT in text
        assert CAUSE_UNDER_FORECAST in text
        assert report.violations[0]["id"] in text
        assert "reconfigurations" in text

    def test_clean_window_renders_clean(self, spike_run_dir):
        report = explain_run(spike_run_dir, window=(0.0, 100.0))
        assert "clean run" in render_explain(report)


class TestExplainCli:
    def test_text_output(self, spike_run_dir, capsys):
        assert main(["explain", str(spike_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "pstore explain" in out
        assert "attribution" in out

    def test_json_output(self, spike_run_dir, capsys):
        assert main(["explain", str(spike_run_dir), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"]
        assert set(doc["attribution"]) == set(CAUSE_BUCKETS)
        for violation in doc["violations"]:
            assert violation["cause"] in CAUSE_BUCKETS
            assert violation["chain"]

    def test_window_flag(self, spike_run_dir, capsys):
        assert main([
            "explain", str(spike_run_dir), "--window", "0:100", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["window"] == [0.0, 100.0]

    def test_bad_window_exits_nonzero(self, spike_run_dir, capsys):
        assert main(["explain", str(spike_run_dir),
                     "--window", "nope"]) == 1
        assert "window" in capsys.readouterr().err

    def test_missing_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path)]) == 1
        assert "chronicle" in capsys.readouterr().err
