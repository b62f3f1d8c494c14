"""Cross-cell tensor simulation: run a whole sweep as one array program.

:class:`TensorBatchEngine` advances many independent
:class:`~repro.sim.simulator.ElasticDbSimulator` runs ("cells") at once.
Each cell is driven through :meth:`ElasticDbSimulator.drive`, which runs
its control loop one planner interval ahead of the engine and yields a
:class:`~repro.sim.simulator.BlockRequest` per interval — per-tick
shares, migration interference and capacity rows included, so
migration rounds, fault windows and re-plans are part of the block, not
an exception to it.  The batch engine collects all currently-pending
block requests, stacks their per-tick arrays along the tick axis (each
engine draws its samples straight into its rows of one shared
:class:`~repro.hstore.engine._SampleScratch`), and executes the
latency-sampling math of every cell in one fused numpy call.

No eviction
-----------
Every tick of every cell reaches the engine through a block, so a cell
never leaves the batch between its first request and its result.
``evictions`` and ``scalar_ticks`` are still counted — ticks a
generator advanced without asking — and read 0; a non-zero value means
a scalar stepping path has come back into :meth:`drive`.

Bit-identity
------------
Results are bit-identical to the serial engines because nothing about
the numbers changes — only the batching of pure math:

* every RNG draw happens on the owning engine's own streams, in exactly
  the scalar order (:meth:`QueueingEngine._block_prep` and
  :meth:`QueueingEngine._block_sample_draws` are called per engine; the
  rows an engine fills are its own, so where they sit in the scratch
  changes nothing);
* the fused stage, :meth:`QueueingEngine._block_sample_math`, is
  row-independent per tick — elementwise ops, per-row ``cumsum``, a
  per-row cell table that returns the exact ``searchsorted`` index,
  exact gathers, percentiles off a per-row sort — so stacking blocks of
  different cells along the tick axis produces the same floats each
  cell would produce alone;
* cells are only fused when they share a ``(n_partitions,
  samples_per_tick)`` shape signature (a cell with no move in flight
  joins a group that has one on all-zero interference rows, which add
  ``+0.0``), and a block containing a zero-completed tick is sampled
  by its own engine, which draws for its completed rows only.

``tests/test_tensor.py`` pins this: it runs the tensmoke grid through
serial and tensor drivers side by side and compares each cell's
canonical payload byte for byte.

This module lives in simulated time and must stay free of wall-clock
reads (enforced by the sim-time lint, ``tests/lint.py``).  Callers
that want per-cell timings pass a ``clock`` callable (e.g.
``time.perf_counter`` from the sweep executor, which is allowlisted).
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..hstore.engine import (
    MigrationInterference,
    QueueingEngine,
    _SampleScratch,
)
from .simulator import ElasticDbSimulator, SimulationResult


@dataclass
class TensorProgram:
    """One sweep cell prepared for batched execution.

    Bundles everything :meth:`ElasticDbSimulator.run` would need, plus an
    optional ``finalize`` hook mapping the :class:`SimulationResult` to
    the cell's payload (the sweep executor uses it to keep payloads — and
    therefore ``result_hash`` — byte-identical to the serial path) and an
    optional ``scope`` context-manager factory (telemetry scoping).
    """

    simulator: ElasticDbSimulator
    offered_tps: Sequence[float]
    strategy: object
    history_seed_tps: Sequence[float] = ()
    label: str = ""
    finalize: Optional[Callable[[SimulationResult], dict]] = None
    scope: Optional[Callable[[], object]] = None

    def signature(self) -> Tuple[int, int]:
        """The fuse-compatibility key: cells sharing it may be batched."""
        engine = self.simulator.engine
        return (engine.n_partitions, engine.samples_per_tick)


@dataclass
class TensorCellOutcome:
    """Result of one cell driven by the batch engine.

    Exactly one of ``result``/``error`` is set.  ``batched_ticks`` were
    advanced by fused cross-cell calls; ``scalar_ticks`` ran inside the
    generator without a request and ``evictions`` counts the requests
    that followed such a gap — both 0 (see the module docstring).
    """

    label: str
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    batched_ticks: int = 0
    scalar_ticks: int = 0
    evictions: int = 0


@dataclass
class TensorBatchReport:
    """All cell outcomes plus aggregate batching statistics."""

    outcomes: List[TensorCellOutcome]
    rounds: int = 0
    fused_calls: int = 0
    batched_ticks: int = 0
    scalar_ticks: int = 0
    evictions: int = 0

    def stats(self) -> Dict[str, int]:
        return {
            "cells": len(self.outcomes),
            "rounds": self.rounds,
            "fused_calls": self.fused_calls,
            "batched_ticks": self.batched_ticks,
            "scalar_ticks": self.scalar_ticks,
            "evictions": self.evictions,
        }


class _CellState:
    """Internal per-cell driver state."""

    __slots__ = (
        "index", "program", "gen", "request", "block", "outcome",
        "cursor", "total_ticks", "admitted",
    )

    def __init__(self, index: int, program: TensorProgram):
        self.index = index
        self.program = program
        self.gen = program.simulator.drive(
            program.offered_tps, program.strategy, program.history_seed_tps
        )
        self.request = None
        self.block = None
        self.outcome = TensorCellOutcome(label=program.label)
        #: Tick index up to which batched blocks have been applied.
        self.cursor = 0
        self.total_ticks = int(np.asarray(program.offered_tps).size)
        #: Whether the cell has ever received a batched block.
        self.admitted = False

    def scope(self):
        if self.program.scope is not None:
            return self.program.scope()
        return contextlib.nullcontext()


class TensorBatchEngine:
    """Drives N simulator generators, fusing their per-interval blocks.

    Parameters
    ----------
    programs:
        the cells to run; cells sharing a shape signature are fused,
        the rest still run correctly (each in its own block call).
    clock:
        optional zero-argument callable returning seconds (e.g.
        ``time.perf_counter``); used only for per-cell elapsed
        accounting.  None keeps this module free of wall-clock reads.
    """

    def __init__(
        self,
        programs: Sequence[TensorProgram],
        clock: Optional[Callable[[], float]] = None,
    ):
        programs = list(programs)
        if not programs:
            raise SimulationError("TensorBatchEngine needs at least one program")
        self._programs = programs
        self._clock = clock
        #: One sample scratch per shape signature, reused round to round.
        self._scratch: Dict[Tuple[int, int], _SampleScratch] = {}

    # ------------------------------------------------------------------

    def run(self) -> TensorBatchReport:
        """Run every cell to completion; returns the batch report.

        Cell failures are recorded in the cell's outcome (``error``) and
        do not disturb the other cells.
        """
        report = TensorBatchReport(outcomes=[])
        states = [_CellState(i, p) for i, p in enumerate(self._programs)]
        report.outcomes = [s.outcome for s in states]
        for state in states:
            self._advance(state, None)
        while True:
            pending = [s for s in states if s.request is not None]
            if not pending:
                break
            report.rounds += 1
            groups: Dict[Tuple[int, int], List[_CellState]] = {}
            for state in pending:
                groups.setdefault(state.program.signature(), []).append(state)
            for group in groups.values():
                report.fused_calls += 1
                self._step_group(group)
            for state in pending:
                block, state.block = state.block, None
                if block is None:
                    continue  # errored during the group step
                request = state.request
                state.request = None
                state.outcome.batched_ticks += request.ticks
                state.cursor = request.end
                state.admitted = True
                self._advance(state, block)
        for state in states:
            outcome = state.outcome
            if outcome.error is None:
                outcome.scalar_ticks = state.total_ticks - outcome.batched_ticks
            report.batched_ticks += outcome.batched_ticks
            report.scalar_ticks += outcome.scalar_ticks
            report.evictions += outcome.evictions
        return report

    # ------------------------------------------------------------------

    def _advance(self, state: _CellState, block) -> None:
        """Send ``block`` into the cell's generator; record the next
        request, the final result, or the failure."""
        started = self._clock() if self._clock is not None else None
        try:
            with state.scope():
                state.request = state.gen.send(block)
        except StopIteration as stop:
            state.request = None
            state.outcome.result = stop.value
        except Exception as exc:  # noqa: BLE001 - isolated per cell
            state.request = None
            state.outcome.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        else:
            # Ticks between the last applied block and the new request
            # ran inside the generator without a request: the cell left
            # the batch and came back.
            if state.request.start > state.cursor and state.admitted:
                state.outcome.evictions += 1
        if started is not None:
            state.outcome.elapsed_seconds += self._clock() - started

    def _step_group(self, group: List[_CellState]) -> None:
        """Answer every pending request of one same-signature group.

        Stateful stages (prep, RNG draws, finish) run per engine in
        scalar order; the pure sampling math of all fully-completed
        blocks is fused into one tick-axis-concatenated call.
        """
        prepped: List[Tuple[_CellState, object]] = []
        for state in group:
            engine = state.program.simulator.engine
            request = state.request
            started = self._clock() if self._clock is not None else None
            try:
                with state.scope():
                    prep = engine._block_prep(
                        1.0, request.offered, request.shares,
                        request.interference, request.capacity,
                    )
            except Exception as exc:  # noqa: BLE001 - isolated per cell
                state.request = None
                state.block = None
                state.outcome.error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                state.gen.close()
            else:
                prepped.append((state, prep))
            if started is not None:
                state.outcome.elapsed_seconds += self._clock() - started

        fused: List[Tuple[_CellState, object]] = []
        for state, prep in prepped:
            if np.all(prep.total_completed > 0.0):
                fused.append((state, prep))
                continue
            # Zero-completed ticks consume no draws, so the rows of this
            # block are not a full batch: the engine samples it alone.
            engine = state.program.simulator.engine
            started = self._clock() if self._clock is not None else None
            with state.scope():
                state.block = engine._block_finish(
                    prep, *engine._block_samples(prep)
                )
            if started is not None:
                state.outcome.elapsed_seconds += self._clock() - started

        if not fused:
            return
        # Every cell draws into its own rows of the group's scratch, so
        # the fused call reads one stacked batch nobody had to copy.
        all_ticks = sum(prep.ticks for _, prep in fused)
        signature = group[0].program.signature()
        scratch = self._scratch.setdefault(signature, _SampleScratch())
        scratch.reserve(all_ticks, signature[1])
        offset = 0
        for state, prep in fused:
            started = self._clock() if self._clock is not None else None
            state.program.simulator.engine._block_sample_draws(
                scratch, offset, prep.ticks
            )
            offset += prep.ticks
            if started is not None:
                state.outcome.elapsed_seconds += self._clock() - started

        started = self._clock() if self._clock is not None else None
        # Cells with no move in flight ride a mixed group on zero rows
        # (the stall term then adds +0.0, as the scalar step always does).
        interference = None
        if any(prep.interference is not None for _, prep in fused):
            rows = [
                prep.interference
                if prep.interference is not None
                else MigrationInterference.none(prep.arrivals.shape)
                for _, prep in fused
            ]
            interference = MigrationInterference(
                np.concatenate([r.busy_fraction for r in rows]),
                np.concatenate([r.stall_seconds for r in rows]),
            )
        p50, p95, p99 = QueueingEngine._block_sample_math(
            scratch,
            np.concatenate([prep.arrivals for _, prep in fused]),
            np.concatenate([prep.mu_eff for _, prep in fused]),
            np.concatenate([prep.backlog_mid for _, prep in fused]),
            np.concatenate([prep.completed for _, prep in fused]),
            np.concatenate([prep.total_completed for _, prep in fused]),
            interference,
        )
        offset = 0
        total = self._clock() - started if started is not None else 0.0
        for state, prep in fused:
            engine = state.program.simulator.engine
            ticks = prep.ticks
            rows = slice(offset, offset + ticks)
            offset += ticks
            finish_started = (
                self._clock() if self._clock is not None else None
            )
            with state.scope():
                state.block = engine._block_finish(
                    prep, p50[rows], p95[rows], p99[rows]
                )
            if self._clock is not None:
                # Apportion the fused call's cost by each cell's share of
                # its ticks; exact per-cell split is unobservable.
                state.outcome.elapsed_seconds += total * (ticks / all_ticks)
                state.outcome.elapsed_seconds += (
                    self._clock() - finish_started
                )


def run_programs(
    programs: Sequence[TensorProgram],
    clock: Optional[Callable[[], float]] = None,
) -> TensorBatchReport:
    """One-call convenience wrapper around :class:`TensorBatchEngine`."""
    return TensorBatchEngine(programs, clock=clock).run()
