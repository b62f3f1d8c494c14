"""Smoke test of the benchmark itself, in-process.

Run as ``python -m pytest perfbench/test_smoke.py`` from the repository
root (not part of tier-1: ``testpaths = ["tests"]``).  Takes about two
minutes: every workload runs its traced phase once.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from perfbench import OUT_DIR, ROOT, add_src_to_path, cli, layers, tracing

add_src_to_path()
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*argv: str):
    """``(exit code, parsed last line, full stdout)`` of one invocation."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    text = buffer.getvalue()
    lines = text.strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None, text


@pytest.fixture(scope="module")
def traced():
    """Every workload at ``--seconds 1 --trace 1``, run once."""
    return {
        name: run_cli("--workload", name, "--seconds", "1", "--trace", "1")
        for name in cli.WORKLOADS
    }


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    """One cheap gated run, appended to a history file."""
    history = tmp_path_factory.mktemp("history") / "runs.jsonl"
    result = run_cli(
        "--workload", "sim_static", "--seconds", "1", "--trace", "0",
        "--append", str(history),
    )
    return result, history


def test_contract_matches_the_code():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["perfbench"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(cli.WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert cli.load_workload(entry["name"]).why == entry["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [w["name"] for w in CONTRACT["workloads"]] + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == layers.SPECS


@pytest.mark.parametrize("name", list(cli.WORKLOADS))
def test_traced_run_passes_its_checks(traced, name):
    code, last, text = traced[name]
    assert code == 0, text
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == PER_LAYER
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for metric, entry in last["metrics"].items():
        assert entry["unit"] == units[metric]
        assert entry["value"] >= 0 or metric == "harness.trace_overhead_frac"
    assert "harness.trace_overhead_frac" in text
    assert "loadgen.decision_ms_tail is the p" in text


@pytest.mark.parametrize("name", list(cli.WORKLOADS))
def test_self_times_partition_the_traced_wall_time(traced, name):
    assert traced[name][0] == 0
    with open(OUT_DIR / f"trace-{name}.jsonl", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    keys = {"id", "name", "parent", "root", "run", "start", "end", "units",
            "failed"}
    assert all(keys <= set(span) for span in spans)
    own = tracing.self_times(spans)
    assert all(value >= 0 for value in own.values())
    roots = [s for s in spans if s["name"] == "harness.pass"]
    assert len(roots) == 2
    for root in roots:
        inside = sum(own[s["id"]] for s in spans if s["root"] == root["id"])
        assert inside <= (root["end"] - root["start"]) * (1 + 1e-6)


def test_the_traced_run_shows_the_intended_split(traced):
    def metrics(name):
        return {k: v["value"] for k, v in traced[name][1]["metrics"].items()}

    static = metrics("sim_static")
    for idle in ("core.planner.calls", "core.controller.decides",
                 "squall.moves", "squall.advance_calls",
                 "prediction.predicts.spar"):
        assert static[idle] == 0
    # One scalar tick per planner boundary, everything else batched.
    assert static["hstore.engine.step_calls"] == 2 * 144
    assert static["hstore.engine.ticks_batched_frac"] > 0.98

    elastic = metrics("sim_elastic")
    assert elastic["core.planner.calls"] > 0 and elastic["squall.moves"] > 0
    assert elastic["hstore.engine.step_calls"] > static["hstore.engine.step_calls"]

    zoo = metrics("capacity_zoo")
    assert zoo["hstore.engine.block_calls"] == zoo["hstore.engine.step_calls"] == 0
    assert all(zoo[f"prediction.fits.{s}"] == 1 for s in ("spar", "mssa", "gbt"))

    sweep = metrics("sweep_fig09")
    assert sweep["runner.cache.hits"] == sweep["runner.cache.misses"] == 4
    assert sweep["sim.tensor.fused_calls"] > 0

    fanin = metrics("serve_fanin")
    per_report = (
        fanin["serve.plane.loop_self_s"]
        + 1e-6 * fanin["serve.ingest.reports"] * (
            fanin["serve.ingest.parse_us"] + fanin["serve.depository.add_us"]
            + fanin["serve.depository.flush_us"]
        )
    )
    per_interval = 1e-3 * fanin["serve.controller.intervals"] * (
        fanin["serve.controller.on_interval_ms_p50"]
        + fanin["serve.persist.save_ms_p50"]
    )
    assert per_report > 5 * per_interval

    intervals = metrics("serve_intervals")
    assert intervals["serve.controller.refits"] >= 1
    assert intervals["core.planner.calls"] >= 288
    total = 180 + 432 + 100  # lead-in + closed loop + open loop
    assert intervals["serve.persist.saves"] == total
    assert intervals["loadgen.sent"] == 4 * total


def test_gated_run_prints_every_end_to_end_metric(gated):
    (code, last, text), _history = gated
    assert code == 0, text
    assert list(last["metrics"]) != [] and set(last["metrics"]) == set(END_TO_END)
    assert all(entry["value"] > 0 for entry in last["metrics"].values())
    assert last["correct"] is True and last["failed"] == 0


def test_bad_digest_injection_is_caught():
    code, last, text = run_cli(
        "--workload", "sim_static", "--seconds", "1", "--trace", "0",
        "--inject", "bad-digest",
    )
    assert code != 0
    assert last["correct"] is False and last["failed"] == 1
    assert "digest" in text


def test_compare_same_and_worse(gated, tmp_path):
    _result, history = gated
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["compare", str(history), str(history)])
    assert code == 0
    rows = [l for l in buffer.getvalue().splitlines() if l.startswith("sim_static")]
    assert len(rows) == len(END_TO_END)
    assert all(" same " in row for row in rows)

    record = json.loads(history.read_text().splitlines()[0])
    record["workloads"]["sim_static"]["end_to_end"]["sim_s_per_host_s"] *= 0.5
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text(json.dumps(record) + "\n")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["compare", str(history), str(doctored)])
    assert code == 1
    worse = [l for l in buffer.getvalue().splitlines() if " worse " in l]
    assert len(worse) == 1 and "sim_s_per_host_s" in worse[0]


def test_nothing_is_left_behind(traced, gated):
    assert cli.leftovers() == []
