"""One fact, one sink: an interval is a span, an action is a chronicle
record, a level is a metric — and there is no fifth recorder."""

import numpy as np
import pytest

from repro.config import default_config
from repro.experiments import serve as serve_scenario
from repro.serve.controller import OnlineController
from repro.sim import CapacitySimulator
from repro.telemetry import NULL_TELEMETRY, Telemetry, export_run
from repro.workload.trace import LoadTrace

from .test_reconfiguration import LOOPS, OneMove

INTERVAL_ATTRS = ["machines", "migrating", "slot", "tps"]


def _watch_serve(monkeypatch):
    """Have every :meth:`OnlineController.on_interval` call note the
    bundle it wrote to and what ``status()`` said once it returned."""
    seen = []
    on_interval = OnlineController.on_interval

    def watched(self, slot, history, now):
        on_interval(self, slot, history, now)
        seen.append((self._telemetry, slot, self.status()))

    monkeypatch.setattr(OnlineController, "on_interval", watched)
    return seen


def _serve_plane(monkeypatch):
    seen = _watch_serve(monkeypatch)
    serve_scenario.run_scenario(
        serve_scenario.SERVE_SEED, serve_scenario.SERVE_TRIGGER, n_days=3
    )
    return seen[0][0]


def _loop(name):
    def run(monkeypatch):
        tel = Telemetry()
        LOOPS[name](tel, abort=False)
        return tel

    return run


@pytest.mark.parametrize(
    "run, closed_slots",
    [
        (_loop("capacity_sim"), 12),
        (_loop("elastic_sim"), 10),
        (_loop("serve"), 12),
        (_serve_plane, 3 * serve_scenario.SERVE_SLOTS_PER_DAY),
    ],
    ids=["capacity_sim", "elastic_sim", "serve", "serve_plane"],
)
def test_every_closed_slot_is_one_interval_span(run, closed_slots, monkeypatch):
    tel = run(monkeypatch)
    spans = tel.tracer.by_name("interval")
    assert [s.attrs["slot"] for s in spans] == list(range(closed_slots))
    width = spans[0].end - spans[0].start
    for span in spans:
        assert span.clock == "sim"
        assert span.end - span.start == width
        assert sorted(span.attrs) == INTERVAL_ATTRS
        assert type(span.attrs["machines"]) is int
        assert type(span.attrs["migrating"]) is bool
    # Each loop ran a scale-out (the plane: its own), and the series shows it.
    assert spans[-1].attrs["machines"] > 3
    # Nothing is told twice: what the chronicle records at a time, no
    # simulated-time span also records under that name.
    told = {(r["kind"], r["time"]) for r in tel.chronicle.records}
    assert not told & {
        (s.name, t) for s in tel.tracer.spans if s.clock == "sim"
        for t in (s.start, s.end)
    }


def test_the_bundle_has_four_parts_and_four_artifacts(tmp_path):
    for bundle in (Telemetry(), NULL_TELEMETRY):
        assert not hasattr(bundle, "events")
        for part in ("metrics", "tracer", "chronicle", "accuracy"):
            assert hasattr(bundle, part)
    paths = export_run(Telemetry(), tmp_path)
    assert set(paths) == {"spans", "chronicle", "metrics", "prom"}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chronicle.jsonl", "metrics.json", "metrics.prom", "spans.jsonl",
    ]


@pytest.mark.parametrize("seed_slots", [0, 40])
def test_capacity_sim_slots_are_history_indices(seed_slots):
    # Regression: the per-slot rows of a seeded run could not be joined
    # (``interval`` keyed by history index, ``machines`` by loop index).
    config = default_config().with_interval(60.0)
    n_slots = 12
    trace = LoadTrace(np.full(n_slots, config.q * 2 * 60.0), 60.0)
    tel = Telemetry()
    result = CapacitySimulator(
        config, 3, history_seed=[config.q] * seed_slots, telemetry=tel
    ).run(trace, OneMove())
    spans = tel.tracer.by_name("interval")
    assert [s.attrs["slot"] for s in spans] == list(
        range(seed_slots, seed_slots + n_slots)
    )
    assert [s.attrs["machines"] for s in spans] == list(result.machines)
    assert [s.attrs["migrating"] for s in spans] == list(result.migrating)
    assert [s.attrs["tps"] for s in spans] == list(result.load_tps)
    assert result.moves_started == 1


def test_serve_run_has_a_machines_series(monkeypatch):
    # Regression: ``pstore serve`` only set a gauge, so its run directory
    # had no per-slot machines series and no machines block.
    from repro.telemetry import render_dashboard

    seen = _watch_serve(monkeypatch)
    summary, _ = serve_scenario.run_scenario(
        serve_scenario.SERVE_SEED, serve_scenario.SERVE_TRIGGER
    )
    tel = seen[0][0]
    spans = tel.tracer.by_name("interval")
    assert len(spans) == len(seen) == summary["intervals"]
    for span, (_, slot, status) in zip(spans, seen):
        assert span.attrs["slot"] == slot
        assert span.attrs["machines"] == status["machines"]
        assert span.attrs["migrating"] == status["migrating"]
    assert len({s.attrs["machines"] for s in spans}) > 1
    assert "machines" in render_dashboard(tel).split("measured load")[0]


def test_resumed_serve_run_does_not_rewrite_restored_slots(
    monkeypatch, tmp_path
):
    seen = _watch_serve(monkeypatch)
    killed, resumed, _ = serve_scenario.run_resume_scenario(
        serve_scenario.SERVE_SEED, serve_scenario.SERVE_TRIGGER,
        checkpoint_dir=tmp_path / "ckpt", kill_after=90,
    )
    bundles = []
    for tel, _, _ in seen:
        if tel not in bundles:
            bundles.append(tel)
    first, second = (
        [s.attrs["slot"] for s in tel.tracer.by_name("interval")]
        for tel in bundles
    )
    assert first == list(range(killed["intervals"]))
    assert second == list(range(killed["intervals"], resumed["intervals"]))
    assert second, "the resumed run served the tail"

