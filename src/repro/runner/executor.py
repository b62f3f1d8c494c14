"""The parallel sweep executor.

Decomposes an experiment sweep into independent :class:`RunSpec` cells,
executes the dirty ones across a multiprocess worker pool, and persists
every completed cell into a content-addressed :class:`ResultCache` the
moment it finishes — so interrupted sweeps resume for free and repeat
invocations are pure cache hits.

Determinism contract: cells are hermetic (every RNG stream is derived
from the spec's seed), workers receive the spec and the base config by
value, and results are re-assembled in submission order — so a sweep's
payloads are bit-identical whether it ran with ``jobs=1`` or ``jobs=N``,
with a warm cache or a cold one.  The manifest's ``result_hash`` pins
exactly that: it hashes only ``{label: payload}``, never timings or
worker ids.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import PStoreConfig, canonical_json, default_config
from ..errors import SweepError
from ..telemetry import get_telemetry
from ..telemetry.runtime import NULL_TELEMETRY, Telemetry, telemetry_scope
from ..workload import memo as trace_memo
from .cache import ENVELOPE_SCHEMA, ResultCache
from .spec import RunSpec, jsonify

#: Manifest schema identifier.
MANIFEST_SCHEMA = "pstore.sweep/v1"

#: Execution backends a sweep can run under.  ``auto`` picks ``tensor``
#: when every pending cell's experiment declares a tensor program
#: builder, else the historical inline/pool choice.
BACKENDS: Tuple[str, ...] = ("auto", "serial", "process", "tensor")


def _resolve_cell_runner(experiment: str):
    """The registered ``run_cell`` callable for ``experiment``."""
    from ..experiments.registry import get_experiment

    return get_experiment(experiment).cell_runner()


def _cell_bundle(record_events: bool):
    """The telemetry a cell runs under: a fresh live bundle when the
    sweep records events, else :data:`NULL_TELEMETRY`, so an
    untelemetered cell pays for no metrics, spans or chronicle it would
    throw away.  Either way the cell never sees the caller's bundle."""
    return Telemetry() if record_events else NULL_TELEMETRY


def _execute_cell(task: tuple) -> tuple:
    """Worker entry: run one cell hermetically, return its result.

    ``task`` is ``(index, spec_dict, config_dict, record_events)``; the
    return value is ``(index, payload, spans, chronicle, elapsed,
    trace_stats, error)`` where exactly one of ``payload``/``error`` is
    set and ``trace_stats`` is this cell's delta against the worker's
    trace-memo counters.  Runs in a pool worker (or inline for
    ``jobs=1``); everything crossing the boundary is plain picklable
    data.
    """
    index, spec_dict, config_dict, record_events = task
    start = time.perf_counter()
    memo_before = trace_memo.stats()
    try:
        spec = RunSpec.from_dict(spec_dict)
        config = PStoreConfig.from_dict(config_dict)
        run_cell = _resolve_cell_runner(spec.experiment)
        bundle = _cell_bundle(record_events)
        with telemetry_scope(bundle):
            payload = run_cell(spec, config)
        payload = jsonify(payload)
        if not isinstance(payload, dict):
            raise SweepError(
                f"cell {spec.label} returned {type(payload).__name__}, "
                "expected a JSON-serialisable mapping"
            )
        spans = bundle.tracer.snapshot()
        chronicle = bundle.chronicle.snapshot()
        elapsed = time.perf_counter() - start
        return (
            index, payload, jsonify(spans), jsonify(chronicle), elapsed,
            trace_memo.delta(memo_before), None,
        )
    except Exception as exc:  # noqa: BLE001 - marshalled to the parent
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return (
            index, None, [], [], time.perf_counter() - start,
            trace_memo.delta(memo_before), detail,
        )


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-hit) cell of a sweep."""

    spec: RunSpec
    key: str
    payload: Dict[str, Any]
    elapsed_seconds: float
    cached: bool
    worker: Optional[int] = None
    spans: Tuple[dict, ...] = field(default=())
    chronicle: Tuple[dict, ...] = field(default=())

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass
class SweepReport:
    """All cells of a completed sweep, in submission order."""

    cells: List[CellOutcome]
    config_hash: str
    jobs: int
    elapsed_seconds: float
    #: Backend the dirty cells actually ran under ("serial", "process",
    #: or "tensor"; "serial" when everything was a cache hit).
    backend: str = "serial"
    #: ResultCache hit/miss/corrupt/store deltas for this run.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Trace-memo hit/miss totals summed over this run's executed cells.
    trace_reuse: Dict[str, int] = field(default_factory=dict)
    #: Tensor-backend stats (tensorized/fallback cell counts plus the
    #: :class:`~repro.sim.tensor.TensorBatchReport` counters).  Empty
    #: unless the tensor backend ran.
    tensor: Dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def executed(self) -> int:
        return len(self.cells) - self.hits

    @property
    def payloads(self) -> Dict[str, Dict[str, Any]]:
        """Cell label -> JSON payload, in submission order."""
        return {c.label: c.payload for c in self.cells}

    @property
    def result_hash(self) -> str:
        """SHA-256 over :attr:`payloads` — the bit-identity anchor.

        Independent of jobs, cache state, timings, and worker placement;
        two sweeps agree iff every cell produced identical results.
        """
        material = canonical_json(self.payloads)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def manifest(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "config_hash": self.config_hash,
            "jobs": self.jobs,
            "backend": self.backend,
            "n_cells": len(self.cells),
            "hits": self.hits,
            "executed": self.executed,
            "result_hash": self.result_hash,
            "elapsed_seconds": self.elapsed_seconds,
            "cache": dict(self.cache_stats),
            "trace_reuse": dict(self.trace_reuse),
            "tensor": dict(self.tensor),
            "cells": [
                {
                    "label": c.label,
                    "spec": c.spec.to_dict(),
                    "key": c.key,
                    "cached": c.cached,
                    "elapsed_seconds": c.elapsed_seconds,
                    "worker": c.worker,
                    "payload": c.payload,
                }
                for c in self.cells
            ],
        }

    def write_manifest(self, out_dir) -> Dict[str, str]:
        """Write ``manifest.json`` plus the merged per-cell telemetry
        (``spans.jsonl`` and ``chronicle.jsonl``, one record per line
        tagged with its cell) into ``out_dir``; returns ``{kind: path}``.

        The chronicle rides alongside the manifest, never inside the
        cell payloads, so enabling it cannot move ``result_hash``.
        """
        import json
        import pathlib

        from ..telemetry.causal import CHRONICLE_SCHEMA
        from ..telemetry.export import SPANS_SCHEMA

        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json.dumps(self.manifest(), indent=1))
        paths["manifest"] = str(manifest_path)
        for kind, schema in (
            ("spans", SPANS_SCHEMA), ("chronicle", CHRONICLE_SCHEMA)
        ):
            path = out / f"{kind}.jsonl"
            with path.open("w") as handle:
                handle.write(
                    json.dumps({"schema": schema, "merged": True}) + "\n"
                )
                for cell in self.cells:
                    for record in getattr(cell, kind):
                        tagged = {"cell": cell.label, **record}
                        handle.write(json.dumps(tagged, sort_keys=True) + "\n")
            paths[kind] = str(path)
        return paths

    def summary(self) -> str:
        bits = [
            f"{len(self.cells)} cells, {self.hits} cached, "
            f"{self.executed} executed in {self.elapsed_seconds:.1f}s "
            f"(jobs={self.jobs}, backend={self.backend})"
        ]
        if self.cache_stats:
            c = self.cache_stats
            bits.append(
                f"cache {c.get('hits', 0)}h/{c.get('misses', 0)}m/"
                f"{c.get('corrupt', 0)}x"
            )
        if self.trace_reuse.get("hits"):
            bits.append(f"trace reuse {self.trace_reuse['hits']}")
        if self.tensor.get("tensorized"):
            bits.append(
                f"tensor {self.tensor['tensorized']} cells "
                f"({self.tensor.get('evictions', 0)} evictions)"
            )
        return ", ".join(bits) + f", result {self.result_hash[:12]}"


class SweepExecutor:
    """Executes a grid of :class:`RunSpec` cells, caching results.

    Parameters
    ----------
    config:
        base :class:`PStoreConfig` handed to every cell; its
        :meth:`~repro.config.PStoreConfig.config_hash` is part of each
        cache key.
    cache:
        a :class:`ResultCache`, a directory path, or None to disable
        caching.
    jobs:
        worker processes; 1 executes inline in submission order.
    record_events:
        run each cell under a fresh live telemetry bundle and return its
        spans and chronicle in the outcome (merged into the manifest
        directory as ``spans.jsonl`` / ``chronicle.jsonl``).  False
        (the default) runs each cell under
        :data:`~repro.telemetry.runtime.NULL_TELEMETRY`: nothing is
        recorded, and the cell's engine and simulator skip their metric
        work.  Payloads are the same either way.  A recording sweep
        runs every cell, cached or not, and stores it again.
    backend:
        one of :data:`BACKENDS`.  ``serial`` runs cells inline,
        ``process`` always uses the spawn pool, ``tensor`` batches every
        tensorizable cell through
        :class:`~repro.sim.tensor.TensorBatchEngine` (cells whose
        experiment declares no tensor program fall back to inline
        execution).  ``auto`` (default) picks ``tensor`` when every
        pending cell is tensorizable, else the historical inline/pool
        choice based on ``jobs``.
    """

    def __init__(
        self,
        config: Optional[PStoreConfig] = None,
        cache=None,
        jobs: int = 1,
        record_events: bool = False,
        backend: str = "auto",
    ) -> None:
        if jobs < 1:
            raise SweepError("jobs must be >= 1")
        if backend not in BACKENDS:
            raise SweepError(
                f"unknown backend {backend!r} (expected one of {BACKENDS})"
            )
        self.config = config if config is not None else default_config()
        if cache is None or isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        else:
            self.cache = ResultCache(cache)
        self.jobs = jobs
        self.record_events = record_events
        self.backend = backend

    # ------------------------------------------------------------------

    def run(
        self,
        specs: Sequence[RunSpec],
        force: bool = False,
        progress=None,
    ) -> SweepReport:
        """Execute every cell of ``specs``; returns a :class:`SweepReport`.

        Cached cells are served from disk unless ``force`` or the sweep
        records events (a cache entry keeps no records).  On a cell
        failure a :class:`SweepError` is raised *after* every completed
        cell has been persisted, so the next invocation resumes from the
        survivors.  ``progress`` (optional) is called with each
        :class:`CellOutcome` as it completes.
        """
        specs = list(specs)
        if not specs:
            raise SweepError("sweep grid is empty")
        start = time.perf_counter()
        cache_before = (
            dict(self.cache.stats) if self.cache is not None else None
        )
        self._trace_reuse: Dict[str, int] = {"hits": 0, "misses": 0}
        self._tensor_stats: Dict[str, int] = {}
        config_hash = self.config.config_hash()
        keys = [spec.cache_key(config_hash) for spec in specs]
        # The report keys payloads by label, so two distinct cells must not
        # share one (identical cells share a key and run once, below).
        by_label: Dict[str, int] = {}
        for i, (spec, key) in enumerate(zip(specs, keys)):
            first = by_label.setdefault(spec.label, i)
            if keys[first] != key:
                raise SweepError(
                    f"cells {canonical_json(specs[first].to_dict())} and "
                    f"{canonical_json(spec.to_dict())} share the label "
                    f"{spec.label}; give them distinct cell names or seeds"
                )

        outcomes: List[Optional[CellOutcome]] = [None] * len(specs)
        pending: List[int] = []
        seen: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        for i, (spec, key) in enumerate(zip(specs, keys)):
            if key in seen:
                duplicates.append((i, seen[key]))
                continue
            seen[key] = i
            envelope = None if force or self.record_events else (
                self.cache.load(key) if self.cache is not None else None
            )
            if envelope is not None:
                outcomes[i] = CellOutcome(
                    spec=spec,
                    key=key,
                    payload=envelope["payload"],
                    elapsed_seconds=float(
                        envelope.get("elapsed_seconds", 0.0)
                    ),
                    cached=True,
                )
            else:
                pending.append(i)

        backend = self._resolve_backend(specs, pending)
        failures = self._execute_pending(
            specs, keys, pending, outcomes, progress, backend
        )
        for i, first in duplicates:
            original = outcomes[first]
            if original is not None:
                outcomes[i] = CellOutcome(
                    spec=specs[i],
                    key=keys[i],
                    payload=original.payload,
                    elapsed_seconds=0.0,
                    cached=True,
                )
        if failures:
            label, detail = failures[0]
            more = (
                f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
            )
            raise SweepError(
                f"cell {label} failed: {detail}{more}; completed cells "
                "are cached, re-run to resume"
            )

        cells = [c for c in outcomes if c is not None]
        elapsed = time.perf_counter() - start
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("sweep.cells").inc(len(cells))
            tel.metrics.counter("sweep.hits").inc(
                sum(1 for c in cells if c.cached)
            )
        cache_delta = {}
        if cache_before is not None and self.cache is not None:
            cache_delta = {
                k: self.cache.stats.get(k, 0) - cache_before.get(k, 0)
                for k in self.cache.stats
            }
        return SweepReport(
            cells=cells,
            config_hash=config_hash,
            jobs=self.jobs,
            elapsed_seconds=elapsed,
            backend=backend,
            cache_stats=cache_delta,
            trace_reuse=dict(self._trace_reuse),
            tensor=dict(self._tensor_stats),
        )

    # ------------------------------------------------------------------

    def _resolve_backend(
        self, specs: Sequence[RunSpec], pending: Sequence[int]
    ) -> str:
        """The backend the dirty cells will run under.

        Explicit choices win; ``auto`` upgrades to ``tensor`` when every
        pending cell's experiment declares a tensor program builder (all
        cells then share trace/config shape by construction) — unless
        the caller asked for worker processes: the tensor batch runs in
        one process, so an explicit ``jobs > 1`` on a pool-sized grid
        (heavyweight cells, minutes each) must keep the pool.  Pass
        ``backend="tensor"`` to force batching regardless.
        """
        if self.backend != "auto":
            return self.backend
        if self.jobs > 1 and len(pending) > 1:
            return "process"
        if pending and self._all_tensorizable(specs, pending):
            return "tensor"
        return "serial"

    @staticmethod
    def _all_tensorizable(
        specs: Sequence[RunSpec], pending: Sequence[int]
    ) -> bool:
        from ..experiments.registry import get_experiment

        try:
            return all(
                get_experiment(specs[i].experiment).has_tensor_cell
                for i in pending
            )
        except Exception:  # noqa: BLE001 - unknown experiments fail later
            return False

    def _execute_pending(
        self,
        specs: Sequence[RunSpec],
        keys: Sequence[str],
        pending: List[int],
        outcomes: List[Optional[CellOutcome]],
        progress,
        backend: str,
    ) -> List[Tuple[str, str]]:
        """Run the dirty cells (inline, pooled, or tensor-batched)."""
        if not pending:
            return []
        config_dict = self.config.to_dict()
        tasks = [
            (i, specs[i].to_dict(), config_dict, self.record_events)
            for i in pending
        ]
        failures: List[Tuple[str, str]] = []

        def complete(result: tuple, worker: Optional[int]) -> None:
            index, payload, spans, chronicle, elapsed, trace, error = result
            spec, key = specs[index], keys[index]
            for bucket in ("hits", "misses"):
                self._trace_reuse[bucket] += int(
                    (trace or {}).get(bucket, 0)
                )
            if error is not None:
                failures.append((spec.label, error))
                return
            outcome = CellOutcome(
                spec=spec,
                key=key,
                payload=payload,
                elapsed_seconds=elapsed,
                cached=False,
                worker=worker,
                spans=tuple(spans),
                chronicle=tuple(chronicle),
            )
            outcomes[index] = outcome
            if self.cache is not None:
                self.cache.store(key, self._envelope(outcome))
            if progress is not None:
                progress(outcome)

        if backend == "tensor":
            self._execute_tensor(specs, pending, config_dict, complete)
            return failures

        if backend == "serial" or len(tasks) == 1:
            for task in tasks:
                complete(_execute_cell(task), worker=None)
            return failures

        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        self._export_import_path()
        with ctx.Pool(processes=min(self.jobs, len(tasks))) as pool:
            for result in pool.imap_unordered(_execute_cell, tasks):
                complete(result, worker=None)
        return failures

    def _execute_tensor(
        self,
        specs: Sequence[RunSpec],
        pending: Sequence[int],
        config_dict: dict,
        complete,
    ) -> None:
        """Run the dirty cells through the tensor batch engine.

        Each tensorizable cell contributes a
        :class:`~repro.sim.tensor.TensorProgram`; the batch engine
        advances every cell one planner interval at a time with one
        fused array step and the per-cell results flow through the same
        ``complete`` path as the other backends (so payloads, caching,
        and ``result_hash`` are produced exactly as today).  Cells whose experiment declares no
        tensor program run inline via :func:`_execute_cell`.
        """
        from ..experiments.registry import get_experiment
        from ..sim.tensor import TensorBatchEngine

        entries = []  # (index, program, bundle, build_seconds, trace_delta)
        fallback: List[int] = []
        for i in pending:
            spec = specs[i]
            try:
                builder = get_experiment(spec.experiment).tensor_cell_builder()
            except Exception:  # noqa: BLE001 - let _execute_cell report it
                builder = None
            if builder is None:
                fallback.append(i)
                continue
            bundle = _cell_bundle(self.record_events)
            start = time.perf_counter()
            memo_before = trace_memo.stats()
            try:
                with telemetry_scope(bundle):
                    program = builder(spec, self.config)
            except Exception as exc:  # noqa: BLE001 - marshalled like workers
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                complete(
                    (
                        i, None, [], [], time.perf_counter() - start,
                        trace_memo.delta(memo_before), detail,
                    ),
                    None,
                )
                continue
            program.scope = lambda b=bundle: telemetry_scope(b)
            entries.append(
                (
                    i, program, bundle, time.perf_counter() - start,
                    trace_memo.delta(memo_before),
                )
            )

        stats: Dict[str, int] = {
            "tensorized": len(entries),
            "fallback": len(fallback),
        }
        if entries:
            engine = TensorBatchEngine(
                [entry[1] for entry in entries], clock=time.perf_counter
            )
            report = engine.run()
            batch_stats = report.stats()
            batch_stats.pop("cells", None)
            stats.update(batch_stats)
            for (i, program, bundle, build_s, tdelta), cell in zip(
                entries, report.outcomes
            ):
                elapsed = build_s + cell.elapsed_seconds
                if cell.error is not None:
                    complete((i, None, [], [], elapsed, tdelta, cell.error), None)
                    continue
                try:
                    if program.finalize is None:
                        raise SweepError(
                            f"tensor program {cell.label} has no finalize"
                        )
                    payload = jsonify(program.finalize(cell.result))
                    if not isinstance(payload, dict):
                        raise SweepError(
                            f"cell {cell.label} returned "
                            f"{type(payload).__name__}, expected a "
                            "JSON-serialisable mapping"
                        )
                except Exception as exc:  # noqa: BLE001
                    detail = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    complete((i, None, [], [], elapsed, tdelta, detail), None)
                    continue
                complete(
                    (
                        i, payload, jsonify(bundle.tracer.snapshot()),
                        jsonify(bundle.chronicle.snapshot()),
                        elapsed, tdelta, None,
                    ),
                    None,
                )
        self._tensor_stats = stats

        for i in fallback:
            task = (i, specs[i].to_dict(), config_dict, self.record_events)
            complete(_execute_cell(task), worker=None)

    @staticmethod
    def _export_import_path() -> None:
        """Make sure spawned workers can import this package.

        ``spawn`` children inherit the environment, not ``sys.path``;
        when the package is importable only via a relative
        ``PYTHONPATH=src`` (or an injected ``sys.path``), prepend its
        absolute location so workers resolve the same code.
        """
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = os.environ.get("PYTHONPATH", "")
        parts = existing.split(os.pathsep) if existing else []
        absolute = [os.path.abspath(p) for p in parts if p]
        if package_root not in absolute:
            absolute.insert(0, package_root)
        os.environ["PYTHONPATH"] = os.pathsep.join(absolute)
        if package_root not in sys.path:
            sys.path.insert(0, package_root)

    def _envelope(self, outcome: CellOutcome) -> dict:
        return {
            "schema": ENVELOPE_SCHEMA,
            "key": outcome.key,
            "spec": outcome.spec.to_dict(),
            "config_hash": self.config.config_hash(),
            "elapsed_seconds": outcome.elapsed_seconds,
            "payload": outcome.payload,
        }


def run_sweep(
    specs: Sequence[RunSpec],
    config: Optional[PStoreConfig] = None,
    cache=None,
    jobs: int = 1,
    force: bool = False,
    record_events: bool = False,
    progress=None,
    backend: str = "auto",
) -> SweepReport:
    """One-call convenience wrapper around :class:`SweepExecutor`.

    ``record_events=True`` runs every cell under its own live telemetry
    bundle and returns its spans and chronicle; the default runs cells
    under null telemetry and records nothing.  Either way no cell
    records into the caller's global bundle, which is the one installed
    when the sweep returns.
    """
    executor = SweepExecutor(
        config=config,
        cache=cache,
        jobs=jobs,
        record_events=record_events,
        backend=backend,
    )
    return executor.run(specs, force=force, progress=progress)
