"""Per-layer metrics, computed from the traced run's spans.

:data:`SPECS` is the full list, in the order ``BENCHMARK.json`` carries
it: ``(name, unit, better)``.  Every workload prints every metric; a
layer the workload never reaches reads 0.  Totals (``*_s``, counts) are
per traced pass; means and percentiles pool the calls of all traced
passes.  Three metrics that explain ``setup_s`` — ``workload.generate_s``,
``workload.slots`` and ``experiments.setup_s`` — add the traced set-up
to the per-pass figure.  Spans under ``serve.plane.resume`` (the
durability check that rebuilds a plane from the last checkpoint) count
towards ``serve.persist.resume_ms`` only.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Tuple

from . import stats
from .tracing import PREDICTOR_CLASSES, self_times

SLUGS = tuple(PREDICTOR_CLASSES)

SPECS: List[Tuple[str, str, str]] = [
    ("workload.generate_s", "s", "lower"),
    ("workload.slots", "count", "lower"),
]
for _slug in SLUGS:
    SPECS += [
        (f"prediction.fit_s.{_slug}", "s", "lower"),
        (f"prediction.fits.{_slug}", "count", "lower"),
        (f"prediction.predict_ms.{_slug}", "ms", "lower"),
        (f"prediction.predicts.{_slug}", "count", "lower"),
    ]
SPECS += [
    ("core.planner.best_moves_ms", "ms", "lower"),
    ("core.planner.calls", "count", "lower"),
    ("core.planner.self_s", "s", "lower"),
    ("core.controller.decide_self_s", "s", "lower"),
    ("core.controller.decides", "count", "lower"),
    ("core.controller.moves_started", "count", "lower"),
    ("core.controller.emergencies", "count", "lower"),
    ("elasticity.reactive_decide_s", "s", "lower"),
    ("squall.start_move_ms", "ms", "lower"),
    ("squall.advance_s", "s", "lower"),
    ("squall.advance_calls", "count", "lower"),
    ("squall.moves", "count", "lower"),
    ("squall.aborts", "count", "lower"),
    ("hstore.engine.block_s", "s", "lower"),
    ("hstore.engine.block_calls", "count", "lower"),
    ("hstore.engine.block_ticks", "count", "higher"),
    ("hstore.engine.step_s", "s", "lower"),
    ("hstore.engine.step_calls", "count", "lower"),
    ("hstore.engine.ticks_batched_frac", "frac", "higher"),
    ("hstore.engine.us_per_tick", "us", "lower"),
    ("sim.simulator.self_s", "s", "lower"),
    ("sim.simulator.sim_seconds", "sim-s", "higher"),
    ("sim.simulator.sla_violations_p99", "count", "lower"),
    ("sim.capacity_sim.self_s", "s", "lower"),
    ("sim.capacity_sim.slots", "count", "higher"),
    ("sim.capacity_sim.insufficient_frac", "frac", "lower"),
    ("sim.tensor.run_self_s", "s", "lower"),
    ("sim.tensor.ticks_batched_frac", "frac", "higher"),
    ("sim.tensor.evictions", "count", "lower"),
    ("sim.tensor.fused_calls", "count", "lower"),
    ("runner.executor.self_s", "s", "lower"),
    ("runner.cache.store_ms", "ms", "lower"),
    ("runner.cache.load_ms", "ms", "lower"),
    ("runner.cache.hits", "count", "higher"),
    ("runner.cache.misses", "count", "lower"),
    ("runner.warm_ms", "ms", "lower"),
    ("runner.trace_memo_hits", "count", "higher"),
    ("experiments.setup_s", "s", "lower"),
    ("serve.ingest.parse_us", "us", "lower"),
    ("serve.ingest.reports", "count", "higher"),
    ("serve.ingest.rejected", "count", "lower"),
    ("serve.ingest.backpressure_hits", "count", "lower"),
    ("serve.ingest.throttled", "count", "lower"),
    ("serve.depository.add_us", "us", "lower"),
    ("serve.depository.flush_us", "us", "lower"),
    ("serve.depository.flushes", "count", "lower"),
    ("serve.depository.closed", "count", "higher"),
    ("serve.depository.late", "count", "lower"),
    ("serve.depository.evictions", "count", "lower"),
    ("serve.plane.loop_self_s", "s", "lower"),
    ("serve.plane.us_per_report", "us", "lower"),
    ("serve.controller.on_interval_ms_p50", "ms", "lower"),
    ("serve.controller.on_interval_ms_p95", "ms", "lower"),
    ("serve.controller.intervals", "count", "higher"),
    ("serve.controller.refits", "count", "lower"),
    ("serve.controller.replans", "count", "lower"),
    ("serve.controller.moves_started", "count", "lower"),
    ("serve.plane.checkpoint_self_ms", "ms", "lower"),
    ("serve.persist.save_ms_p50", "ms", "lower"),
    ("serve.persist.save_ms_p95", "ms", "lower"),
    ("serve.persist.saves", "count", "lower"),
    ("serve.persist.bytes_per_save", "bytes", "lower"),
    ("serve.persist.resume_ms", "ms", "lower"),
    ("telemetry.chronicle.records", "count", "lower"),
    ("telemetry.accuracy.observe_ms", "ms", "lower"),
    ("host.calib_s", "s", "lower"),
    ("harness.passes", "count", "higher"),
    ("harness.cpu_s_per_pass", "s", "lower"),
    ("harness.trace_overhead_frac", "frac", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.late_ms_p95", "ms", "lower"),
    ("loadgen.decision_ms_tail", "ms", "lower"),
]


def kernel_seconds() -> float:
    """One timing of the fixed numpy + Python kernel of
    ``benchmarks/bench_regression.py::_calibrate`` (a copy: that file is
    not importable from here and stays untouched)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(40):
        acc += float((a @ a).sum())
        acc += sum(i * i for i in range(20000))
        b = np.sort(rng.random(40000))
        acc += float(b.searchsorted(0.5))
    elapsed = time.perf_counter() - t0
    if acc == 0.0:
        raise RuntimeError("calibration kernel computed nothing")
    return elapsed


class _Index:
    """The spans of the traced passes, grouped by name."""

    def __init__(self, spans: List[dict], n_passes: int) -> None:
        self.n = max(1, n_passes)
        self.self_s = self_times(spans)
        by_id = {s["id"]: s for s in spans}
        hidden = set()
        self.ancestors: Dict[int, List[str]] = {}
        for span in spans:  # parents precede children
            parent = span["parent"]
            chain = (
                self.ancestors[parent] + [by_id[parent]["name"]]
                if parent is not None else []
            )
            self.ancestors[span["id"]] = chain
            if "serve.plane.resume" in chain:
                hidden.add(span["id"])
        self.setup: Dict[str, List[dict]] = {}
        self.passes: Dict[str, List[dict]] = {}
        for span in spans:
            if span["id"] in hidden:
                continue
            if span["run"] == "traced-setup":
                self.setup.setdefault(span["name"], []).append(span)
            elif span["run"].startswith("traced-"):
                self.passes.setdefault(span["name"], []).append(span)

    def get(self, *names: str) -> List[dict]:
        return [s for name in names for s in self.passes.get(name, [])]

    def count(self, *names: str) -> float:
        return len(self.get(*names)) / self.n

    def total(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.get(*names)) / self.n

    def own(self, *names: str) -> float:
        return sum(self.self_s[s["id"]] for s in self.get(*names)) / self.n

    def units(self, *names: str) -> float:
        return sum(s["units"] for s in self.get(*names)) / self.n

    def mean_ms(self, *names: str) -> float:
        return 1e3 * stats.mean(
            [s["end"] - s["start"] for s in self.get(*names)]
        )

    def durations_ms(self, *names: str) -> List[float]:
        return [1e3 * (s["end"] - s["start"]) for s in self.get(*names)]

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            float(s["attrs"][key]) for s in self.get(name) if "attrs" in s
        ) / self.n

    def folded(self, name: str) -> Tuple[float, float, float]:
        """``(calls, seconds, units)`` of a folded call, per pass."""
        calls = seconds = units = 0.0
        for group in self.passes.values():
            for span in group:
                entry = span.get("folded", {}).get(name)
                if entry:
                    calls += entry[0]
                    seconds += entry[1]
                    units += entry[2]
        return calls / self.n, seconds / self.n, units / self.n

    def with_setup(self, name: str, field: str) -> float:
        """Traced set-up total plus the per-pass figure."""
        def value(span):
            return span["units"] if field == "units" else span["end"] - span["start"]
        once = sum(value(s) for s in self.setup.get(name, []))
        return once + sum(value(s) for s in self.get(name)) / self.n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(spans: List[dict], refs: Iterable, traced: Iterable,
            calib_s: float, decision_ms_tail: float) -> Dict[str, float]:
    """All of :data:`SPECS` for one workload's traced phase; ``calib_s``
    is the best kernel timing of the run and ``decision_ms_tail`` the
    tail decision latency of the reference passes (raw ms)."""
    refs, traced = list(refs), list(traced)
    ix = _Index(spans, len(traced))
    m: Dict[str, float] = {name: 0.0 for name, _, _ in SPECS}

    def counter(key: str) -> float:
        return stats.mean([p.counters.get(key, 0.0) for p in traced])

    m["workload.generate_s"] = ix.with_setup("workload.generate", "seconds")
    m["workload.slots"] = ix.with_setup("workload.generate", "units")
    m["experiments.setup_s"] = ix.with_setup(
        "experiments.benchmark_setup", "seconds"
    )

    for slug in SLUGS:
        fit, predict = f"prediction.fit.{slug}", f"prediction.predict.{slug}"
        m[f"prediction.fit_s.{slug}"] = ix.total(fit)
        m[f"prediction.fits.{slug}"] = ix.count(fit)
        m[f"prediction.predict_ms.{slug}"] = ix.mean_ms(predict)
        m[f"prediction.predicts.{slug}"] = ix.count(predict)

    m["core.planner.best_moves_ms"] = ix.mean_ms("core.planner.best_moves")
    m["core.planner.calls"] = ix.count("core.planner.best_moves")
    m["core.planner.self_s"] = ix.own("core.planner.best_moves")
    m["core.controller.decide_self_s"] = ix.own("core.controller.decide")
    m["core.controller.decides"] = ix.count("core.controller.decide")
    m["core.controller.moves_started"] = ix.attr_sum(
        "core.controller.decide", "acts"
    )
    m["core.controller.emergencies"] = ix.attr_sum(
        "core.controller.decide", "emergency"
    )
    m["elasticity.reactive_decide_s"] = ix.total("elasticity.reactive.decide")

    starts = ("squall.build_schedule", "squall.migration.start",
              "squall.cluster.start_move")
    m["squall.moves"] = ix.count("squall.migration.start")
    m["squall.start_move_ms"] = 1e3 * _ratio(ix.own(*starts), m["squall.moves"])
    m["squall.advance_s"] = ix.own(
        "squall.migration.advance", "squall.cluster.advance"
    )
    m["squall.advance_calls"] = ix.count("squall.migration.advance")
    m["squall.aborts"] = ix.count(
        "squall.migration.abort", "squall.cluster.abort"
    )

    block, step = "hstore.engine.step_block", "hstore.engine.step"
    m["hstore.engine.block_s"] = ix.total(block)
    m["hstore.engine.block_calls"] = ix.count(block)
    m["hstore.engine.block_ticks"] = ix.units(block)
    m["hstore.engine.step_s"] = ix.total(step)
    m["hstore.engine.step_calls"] = ix.count(step)
    ticks = m["hstore.engine.block_ticks"] + m["hstore.engine.step_calls"]
    m["hstore.engine.ticks_batched_frac"] = _ratio(
        m["hstore.engine.block_ticks"], ticks
    )
    m["hstore.engine.us_per_tick"] = 1e6 * _ratio(
        m["hstore.engine.block_s"] + m["hstore.engine.step_s"], ticks
    )

    m["sim.simulator.self_s"] = ix.own("sim.simulator.run")
    m["sim.simulator.sim_seconds"] = ix.units("sim.simulator.run")
    m["sim.simulator.sla_violations_p99"] = counter("sla_violations_p99")
    m["sim.capacity_sim.self_s"] = ix.own("sim.capacity_sim.run")
    m["sim.capacity_sim.slots"] = ix.units("sim.capacity_sim.run")
    m["sim.capacity_sim.insufficient_frac"] = _ratio(
        counter("insufficient_slots"), m["sim.capacity_sim.slots"]
    )

    m["sim.tensor.run_self_s"] = ix.own(
        "sim.tensor.run", "sim.tensor.run_programs"
    )
    batched = ix.attr_sum("sim.tensor.run", "batched_ticks")
    scalar = ix.attr_sum("sim.tensor.run", "scalar_ticks")
    m["sim.tensor.ticks_batched_frac"] = _ratio(batched, batched + scalar)
    m["sim.tensor.evictions"] = ix.attr_sum("sim.tensor.run", "evictions")
    m["sim.tensor.fused_calls"] = ix.attr_sum("sim.tensor.run", "fused_calls")

    m["runner.executor.self_s"] = ix.own("runner.run_sweep")
    m["runner.cache.store_ms"] = ix.mean_ms("runner.cache.store")
    m["runner.cache.load_ms"] = ix.mean_ms("runner.cache.load")
    loads = ix.get("runner.cache.load")
    hits = sum(1 for s in loads if s.get("attrs", {}).get("hit"))
    m["runner.cache.hits"] = hits / ix.n
    m["runner.cache.misses"] = (len(loads) - hits) / ix.n
    m["runner.warm_ms"] = 1e3 * stats.mean([
        s["end"] - s["start"] for s in ix.get("runner.run_sweep")
        if "attrs" in s and s["attrs"]["hits"] == s["attrs"]["cells"]
    ])
    m["runner.trace_memo_hits"] = ix.attr_sum(
        "runner.run_sweep", "trace_memo_hits"
    )

    calls, seconds, parsed = ix.folded("serve.ingest.parse")
    m["serve.ingest.parse_us"] = 1e6 * _ratio(seconds, calls)
    m["serve.ingest.reports"] = parsed
    for key in ("rejected", "backpressure_hits", "throttled"):
        m[f"serve.ingest.{key}"] = counter(key)
    calls, seconds, _ = ix.folded("serve.depository.add")
    m["serve.depository.add_us"] = 1e6 * _ratio(seconds, calls)
    calls, seconds, closed = ix.folded("serve.depository.flush")
    m["serve.depository.flush_us"] = 1e6 * _ratio(seconds, calls)
    m["serve.depository.flushes"] = calls
    m["serve.depository.closed"] = closed
    m["serve.depository.late"] = counter("late")
    m["serve.depository.evictions"] = counter("evictions")
    m["serve.plane.loop_self_s"] = ix.own("serve.plane.run")
    m["serve.plane.us_per_report"] = 1e6 * _ratio(
        ix.total("serve.plane.run"), parsed
    )

    on_interval = ix.durations_ms("serve.controller.on_interval")
    m["serve.controller.on_interval_ms_p50"] = stats.median(on_interval)
    m["serve.controller.on_interval_ms_p95"] = stats.percentile(on_interval, 95)
    m["serve.controller.intervals"] = ix.count("serve.controller.on_interval")
    fits = ix.get(*(f"prediction.fit.{slug}" for slug in SLUGS))
    m["serve.controller.refits"] = sum(
        1 for s in fits
        if "serve.controller.on_interval" in ix.ancestors[s["id"]]
    ) / ix.n
    m["serve.controller.replans"] = counter("trigger_fires")
    m["serve.controller.moves_started"] = counter("moves_started")
    checkpoints = ix.get("serve.plane.checkpoint")
    m["serve.plane.checkpoint_self_ms"] = 1e3 * stats.mean(
        [ix.self_s[s["id"]] for s in checkpoints]
    )
    saves = ix.durations_ms("serve.persist.save")
    m["serve.persist.save_ms_p50"] = stats.median(saves)
    m["serve.persist.save_ms_p95"] = stats.percentile(saves, 95)
    m["serve.persist.saves"] = ix.count("serve.persist.save")
    m["serve.persist.bytes_per_save"] = _ratio(
        ix.units("serve.persist.save"), m["serve.persist.saves"]
    )
    m["serve.persist.resume_ms"] = ix.mean_ms("serve.plane.resume")
    m["telemetry.chronicle.records"] = ix.count("telemetry.chronicle.record")
    m["telemetry.accuracy.observe_ms"] = ix.mean_ms("telemetry.accuracy.observe")

    m["host.calib_s"] = calib_s
    m["harness.passes"] = float(len(traced))
    m["harness.cpu_s_per_pass"] = stats.mean([p.cpu_s for p in refs])
    m["harness.trace_overhead_frac"] = _ratio(
        stats.mean([p.wall_s for p in traced]),
        stats.mean([p.wall_s for p in refs]),
    ) - 1.0
    m["loadgen.sent"] = counter("sent")
    m["loadgen.late_ms_p95"] = stats.percentile(
        [ms for p in refs for ms in p.late_ms], 95
    )
    m["loadgen.decision_ms_tail"] = decision_ms_tail
    return m
