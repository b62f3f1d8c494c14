"""Spans around the public entry points of every layer, from outside.

The traced run installs wrappers (:func:`install`) around the calls
listed in :data:`TARGETS`; nothing inside ``repro`` knows it is being
watched.  A span is one call::

    {id, name, parent, root, run, start, end, units, failed}

``parent`` is the span that was open when the call began, ``root`` the
outermost open span (one per pass, so the spans of one pass share it),
``run`` the label of the harness phase (``setup``, ``traced-0``, ...),
``units`` the amount of work the call did (ticks, slots, bytes — 1 when
a call is the unit) and ``attrs`` a few per-call counts the layer
metrics need.  A span's *self time* is its duration minus the part its
child spans and folded calls cover (:func:`self_times`).

Calls that fire more than ~10 000 times per pass are *folded*: instead
of one span each they add ``[count, seconds, units]`` under their name
to the ``folded`` map of the enclosing span.

Everything runs on one thread, so a single stack gives the nesting —
including across the one coroutine that is wrapped
(``ControlPlane.run``): the synchronous spans of other tasks that run
while it awaits begin and end atomically on top of it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional


class Tracer:
    """In-memory span recorder; written out when the workload ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        #: Label of the harness phase the next spans belong to.
        self.run = ""

    def begin(self, name: str) -> dict:
        stack = self._stack
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "root": stack[0]["id"] if stack else len(self.spans),
            "run": self.run,
            "start": 0.0,
            "end": 0.0,
            "units": 1.0,
            "failed": False,
        }
        self.spans.append(span)
        stack.append(span)
        span["start"] = perf_counter()
        return span

    def end(self, span: dict, failed: bool = False) -> None:
        span["end"] = perf_counter()
        span["failed"] = failed
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(
                f"span nesting broken: closing {span['name']} while "
                f"{top['name']} is open"
            )

    def fold(self, name: str, seconds: float, units: float) -> None:
        """Account one high-frequency call on the enclosing span."""
        if not self._stack:
            return
        folded = self._stack[-1].setdefault("folded", {})
        entry = folded.get(name)
        if entry is None:
            folded[name] = [1, seconds, units]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += units

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self.begin(name)
        try:
            yield span
        except BaseException:
            self.end(span, failed=True)
            raise
        self.end(span)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(str(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Self time per span id: duration minus child spans and folded
    calls.  Never negative beyond clock granularity (clamped at 0)."""
    covered: Dict[int, float] = {}
    durations: Dict[int, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        durations[span["id"]] = duration
        parent = span["parent"]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + duration
        for _count, seconds, _units in span.get("folded", {}).values():
            covered[span["id"]] = covered.get(span["id"], 0.0) + seconds
    return {
        sid: max(0.0, duration - covered.get(sid, 0.0))
        for sid, duration in durations.items()
    }


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

Extract = Callable[[tuple, dict, Any], Any]


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``owner`` is a class name inside ``module`` (the attribute is then
    replaced on the class) or None for a module-level function, which is
    re-bound in every loaded module that imported it by name.
    """

    module: str
    owner: Optional[str]
    attr: str
    name: str
    units: Optional[Extract] = None
    attrs: Optional[Extract] = None
    fold: bool = False
    is_async: bool = False


def _result_attr(attr: str) -> Extract:
    return lambda args, kwargs, result: float(getattr(result, attr))


def _decision_attrs(args, kwargs, result) -> dict:
    return {"acts": bool(result.acts), "emergency": bool(result.emergency)}


def _sweep_attrs(args, kwargs, result) -> dict:
    return {
        "cells": len(result.cells),
        "hits": int(result.hits),
        "executed": int(result.executed),
        "trace_memo_hits": int((result.trace_reuse or {}).get("hits", 0)),
        "backend": str(result.backend),
    }


def _tensor_attrs(args, kwargs, result) -> dict:
    return {k: int(v) for k, v in result.stats().items()}


def _save_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0].checkpoint_path))


#: Zoo members the benchmark reaches, slug -> (module, class).
PREDICTOR_CLASSES = {
    "spar": ("repro.prediction.spar", "SparPredictor"),
    "mssa": ("repro.prediction.mssa", "MssaPredictor"),
    "gbt": ("repro.prediction.gbt", "GbtPredictor"),
    "seasonal": ("repro.prediction.naive", "SeasonalNaivePredictor"),
}

_ENGINE = "repro.hstore.engine"
_MIGRATOR = "repro.squall.migrator"

TARGETS: List[Target] = [
    Target(_ENGINE, "QueueingEngine", "step", "hstore.engine.step"),
    Target(_ENGINE, "QueueingEngine", "step_block",
           "hstore.engine.step_block", units=_result_attr("ticks")),
    Target("repro.sim.simulator", "ElasticDbSimulator", "run",
           "sim.simulator.run", units=_result_attr("seconds")),
    Target("repro.sim.capacity_sim", "CapacitySimulator", "run",
           "sim.capacity_sim.run", units=_result_attr("n_slots")),
    Target("repro.prediction.online", "OnlinePredictor", "observe",
           "prediction.online.observe"),
    Target("repro.prediction.online", "OnlinePredictor", "refit_now",
           "prediction.online.refit_now"),
    Target("repro.core.planner", "Planner", "best_moves",
           "core.planner.best_moves"),
    Target("repro.core.controller", "PredictiveController", "decide",
           "core.controller.decide", attrs=_decision_attrs),
    Target("repro.elasticity.reactive", "ReactiveStrategy", "decide",
           "elasticity.reactive.decide"),
    # The simulators and the serve controller drive ActiveMigration
    # directly; ClusterMigrator (PStoreService's wrapper) is wrapped too
    # so a workload that reaches it shows up.
    Target("repro.squall.schedule", None, "build_migration_schedule",
           "squall.build_schedule"),
    Target(_MIGRATOR, "ActiveMigration", "__init__", "squall.migration.start"),
    Target(_MIGRATOR, "ActiveMigration", "advance",
           "squall.migration.advance"),
    Target(_MIGRATOR, "ActiveMigration", "rollback_partial_round",
           "squall.migration.abort"),
    Target(_MIGRATOR, "ClusterMigrator", "start_move",
           "squall.cluster.start_move"),
    Target(_MIGRATOR, "ClusterMigrator", "advance", "squall.cluster.advance"),
    Target(_MIGRATOR, "ClusterMigrator", "abort", "squall.cluster.abort"),
    Target("repro.runner.executor", None, "run_sweep", "runner.run_sweep",
           attrs=_sweep_attrs),
    Target("repro.runner.cache", "ResultCache", "load", "runner.cache.load",
           attrs=lambda a, k, r: {"hit": r is not None}),
    Target("repro.runner.cache", "ResultCache", "store",
           "runner.cache.store"),
    Target("repro.sim.tensor", None, "run_programs", "sim.tensor.run_programs"),
    Target("repro.sim.tensor", "TensorBatchEngine", "run", "sim.tensor.run",
           attrs=_tensor_attrs),
    Target("repro.experiments.common", None, "benchmark_setup",
           "experiments.benchmark_setup"),
    Target("repro.workload.generators", None, "b2w_like_trace",
           "workload.generate",
           units=lambda a, k, r: float(len(r))),
    Target("repro.serve.ingest", None, "parse_report_line",
           "serve.ingest.parse", fold=True,
           units=lambda a, k, r: 0.0 if r is None else 1.0),
    Target("repro.serve.depository", "Depository", "add",
           "serve.depository.add", fold=True),
    Target("repro.serve.depository", "Depository", "flush",
           "serve.depository.flush", fold=True,
           units=lambda a, k, r: float(r)),
    Target("repro.serve.controller", "OnlineController", "on_interval",
           "serve.controller.on_interval"),
    Target("repro.serve.plane", "ControlPlane", "checkpoint",
           "serve.plane.checkpoint"),
    Target("repro.serve.plane", "ControlPlane", "run", "serve.plane.run",
           is_async=True),
    Target("repro.serve.persist", "CheckpointStore", "save",
           "serve.persist.save", units=_save_bytes),
    Target("repro.serve.persist", "CheckpointStore", "load",
           "serve.persist.load"),
    Target("repro.telemetry.accuracy", "AccuracyTracker", "observe",
           "telemetry.accuracy.observe"),
    Target("repro.telemetry.causal", "FlightRecorder", "record",
           "telemetry.chronicle.record"),
]
for _slug, (_module, _cls) in PREDICTOR_CLASSES.items():
    TARGETS.append(Target(_module, _cls, "fit", f"prediction.fit.{_slug}"))
    TARGETS.append(Target(_module, _cls, "predict_horizon",
                          f"prediction.predict.{_slug}"))


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name, units, attrs = target.name, target.units, target.attrs

    if target.fold:
        @functools.wraps(fn)
        def folded(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - start
            tracer.fold(
                name, seconds,
                units(args, kwargs, result) if units else 1.0,
            )
            return result
        return folded

    def finish(span, args, kwargs, result):
        tracer.end(span)
        if units is not None:
            span["units"] = units(args, kwargs, result)
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)

    if target.is_async:
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                tracer.end(span, failed=True)
                raise
            finish(span, args, kwargs, result)
            return result
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(span, failed=True)
            raise
        finish(span, args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer, targets: Iterable[Target] = TARGETS) -> Callable[[], None]:
    """Wrap every target; returns the function that undoes it all."""
    undo: List[Callable[[], None]] = []

    def restore() -> None:
        while undo:
            undo.pop()()

    try:
        for target in targets:
            module = importlib.import_module(target.module)
            if target.owner is not None:
                cls = getattr(module, target.owner)
                original = getattr(cls, target.attr)
                own = target.attr in vars(cls)
                setattr(cls, target.attr, _wrap(tracer, target, original))
                if own:
                    undo.append(
                        lambda c=cls, a=target.attr, o=original: setattr(c, a, o)
                    )
                else:
                    undo.append(lambda c=cls, a=target.attr: delattr(c, a))
                continue
            original = getattr(module, target.attr)
            wrapper = _wrap(tracer, target, original)
            # ``from x import f`` copies the binding, so replace it in
            # every loaded module that holds the original object.
            for holder in list(sys.modules.values()):
                names = getattr(holder, "__dict__", None)
                if not names:
                    continue
                for key, value in list(names.items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append(
                            lambda h=holder, k=key, o=original: setattr(h, k, o)
                        )
    except BaseException:
        restore()
        raise
    return restore
