"""The two serve workloads (the operator's trips) and their load generator.

The generator lives in the control plane's own event loop: no thread, no
second process, one or two TCP connections to ``TcpSource`` on 127.0.0.1
(a numeric address, so asyncio never starts a resolver thread).  One pass
is one ``asyncio.run()`` whose ``finally`` awaits ``TcpSource.close()``.

Closed loop: interval *k*'s reports are written once the decision for
interval *k - 2* is durable, i.e. one interval is outstanding.  Open
loop: interval *k* is written at its due time whatever the plane is
doing, each decision is timed from the due time of the reports that
close its interval, and how late the generator itself ran is reported.

Interval 0 is a registration barrier in both modes: the depository's
watermark only knows nodes it has heard from, so every node must have
reported once before any node reports twice.

A fresh plane plans reactively until it has measured ``min_history``
intervals itself, however well its predictor was trained offline
(``OnlineController._plan``).  ``serve_intervals`` therefore starts each
pass with an untimed closed-loop *lead-in* of that many intervals, so
every timed decision runs predict -> plan; ``serve_fanin`` does not (288
more intervals of 1 024 reports would take half a minute), and its few
decisions are the reactive warm-up ones ``pstore serve`` makes too.

Per-node counts are whole numbers, so a slot's sum does not depend on
the order in which the two connections are served and the digest of a
pass is reproducible.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional

from repro.config import default_config
from repro.prediction import build_predictor
from repro.prediction.online import OnlinePredictor
from repro.serve import ControlPlane, ServeOptions, TcpSource
from repro.serve.controller import ErrorTrigger, parse_error_trigger
from repro.telemetry import Telemetry
from repro.telemetry.runtime import telemetry_scope
from repro.workload import memo

from . import TMP_DIR
from .harness import PassResult, Workload
from .workloads import digest_of, steady_trace

TRAIN_DAYS = 14
PEAK_TPS = 1450.0
AUTH_TOKEN = "perfbench-token"
#: Per-connection token-bucket rate: armed, and far above anything one
#: connection can deliver, so it never throttles.
MAX_REPORT_RATE = 1e7
NODE_TIMEOUT = 3


class TimedPlane(ControlPlane):
    """A control plane that notes when each decision became durable.

    The only probe in the gated path: one clock read per checkpoint.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(intervals processed, perf_counter())`` per checkpoint.
        self.durable: List[tuple] = []
        #: ``(processed, machines, mode)`` as of the last checkpoint.
        self.last_durable = (0, self.controller.machines, self.controller.mode)
        self._waiter: Optional[asyncio.Future] = None
        self._target = 0

    def checkpoint(self) -> dict:
        receipt = super().checkpoint()
        processed = receipt["intervals"]
        self.durable.append((processed, time.perf_counter()))
        self.last_durable = (
            processed, self.controller.machines, self.controller.mode
        )
        if self._waiter is not None and processed >= self._target:
            self._waiter.set_result(None)
            self._waiter = None
        return receipt

    def when_processed(self, target: int) -> asyncio.Future:
        """A future that resolves once ``target`` intervals are durable."""
        future = asyncio.get_running_loop().create_future()
        if self.last_durable[0] >= target:
            future.set_result(None)
        else:
            self._waiter, self._target = future, target
        return future


@dataclass
class ServeState:
    config: object
    train: object
    initial_machines: int
    #: ``payloads[k][c]``: the bytes connection ``c`` writes for interval ``k``.
    payloads: List[List[bytes]]
    reference_digest: Optional[str] = None


@dataclass
class Session:
    """Raw observations of one plane run."""

    summary: dict
    plane: TimedPlane
    source: TcpSource
    chronicle: list
    sent_at: List[float]        # when interval k's reports were written / due
    late_ms: List[float]
    first_send: float
    closed_start: float
    closed_end: float
    closed_processed: int
    finished: float


class ServeWorkload(Workload):
    """Shared machinery; the two workloads differ in size and predictor."""

    slot_seconds = 300.0
    nodes = 0
    connections = 2
    lead_in = 0                 # untimed closed-loop intervals first
    closed_intervals = 0
    open_intervals = 0
    open_rate = 0.0             # intervals per second, open-loop phase
    warmup_closed = 0
    warmup_open = 0
    first_slot = 0              # slot of the evaluation window to start at
    trigger_text = ""
    min_moves = 0

    @property
    def slots_per_day(self) -> int:
        return int(round(86_400.0 / self.slot_seconds))

    # No ``prepare``: importing this module imported what it reaches.

    def build_predictor(self, state: ServeState):
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------

    def setup(self, seed: int) -> ServeState:
        memo.clear()
        slot = self.slot_seconds
        config = default_config().with_interval(slot)
        total = self.lead_in + self.closed_intervals + self.open_intervals
        eval_days = math.ceil((self.first_slot + total) / self.slots_per_day)
        trace = steady_trace(
            seed, TRAIN_DAYS + eval_days, slot, PEAK_TPS * slot,
            weekly_pattern=(1.0,) * 7,
        )
        counts = trace.slice_days(TRAIN_DAYS, eval_days).values[
            self.first_slot:self.first_slot + total
        ]
        names = [
            [f"n{i}" for i in range(c, self.nodes, self.connections)]
            for c in range(self.connections)
        ]
        payloads = []
        for k, count in enumerate(counts):
            base, extra = divmod(int(round(count)), self.nodes)
            stamp = (k + 0.5) * slot
            payloads.append([
                "".join(
                    json.dumps({
                        "time": stamp, "node": node,
                        "count": base + (1 if int(node[1:]) < extra else 0),
                    }) + "\n"
                    for node in group
                ).encode("ascii")
                for group in names
            ])
        state = ServeState(
            config=config,
            train=trace.slice_days(0, TRAIN_DAYS).as_rate_per_second(),
            initial_machines=max(1, math.ceil(
                counts[0] / slot * 1.3 / config.q
            )),
            payloads=payloads,
        )
        self._pass(state, None, self.warmup_closed, self.warmup_open)
        return state

    # -- one plane run ----------------------------------------------------

    def _options(self, state, checkpoint_dir, resume=False) -> ServeOptions:
        return ServeOptions(
            speed=0.0, http_port=None, out=None, quiet=True, status_every=0,
            initial_machines=state.initial_machines,
            checkpoint_dir=str(checkpoint_dir), resume=resume,
            node_timeout=NODE_TIMEOUT,
        )

    def _trigger(self) -> Optional[ErrorTrigger]:
        parsed = parse_error_trigger(self.trigger_text)
        if parsed is None:
            return None
        return ErrorTrigger(parsed.clauses, tau=1, min_pairs=12)

    async def _session(self, state, checkpoint_dir, closed, opened) -> Session:
        telemetry = Telemetry()
        with telemetry_scope(telemetry):
            source = TcpSource(
                0, auth_token=AUTH_TOKEN, max_report_rate=MAX_REPORT_RATE
            )
            plane = TimedPlane(
                state.config, self.build_predictor(state), source,
                trigger=self._trigger(),
                options=self._options(state, checkpoint_dir),
                telemetry=telemetry,
            )
            if plane.controller.mode != "predictive":
                raise RuntimeError(
                    f"plane starts in {plane.controller.mode} mode; the "
                    "predictor must be trained before interval 0"
                )
            await source.start()
            run_task = asyncio.ensure_future(plane.run())
            writers = []
            try:
                # No public accessor for the bound port of ``tcp:0``.
                port = source._server.sockets[0].getsockname()[1]
                for _ in range(self.connections):
                    _reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(AUTH_TOKEN.encode("ascii") + b"\n")
                    writers.append(writer)
                observed = await self._generate(
                    state, plane, run_task, writers, closed, opened
                )
            finally:
                for writer in writers:
                    writer.close()
                for writer in writers:
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                await source.close()
                summary = await run_task
            return Session(
                summary=summary, plane=plane, source=source,
                chronicle=telemetry.chronicle.snapshot(),
                finished=time.perf_counter(), **observed,
            )

    async def _generate(self, state, plane, run_task, writers, closed, opened):
        """Write ``closed`` intervals closed-loop, then ``opened`` open-loop."""
        payloads = state.payloads
        depository, source = plane.depository, plane.source

        async def send(k: int) -> None:
            for writer, payload in zip(writers, payloads[k]):
                writer.write(payload)
            for writer in writers:
                await writer.drain()

        async def ingested(reports: int) -> None:
            # Dropped reports count too: the checks fail the pass for
            # them, this wait must not hang on them.
            while (
                depository.reports_ingested + depository.late_reports
                + depository.duplicate_reports + source.rejected < reports
            ):
                if run_task.done():
                    raise RuntimeError("control plane stopped early")
                await asyncio.sleep(0)

        async def processed(target: int) -> None:
            waiter = plane.when_processed(target)
            await asyncio.wait(
                {waiter, run_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if not waiter.done():
                raise RuntimeError("control plane stopped early")

        sent_at: List[float] = []
        first_send = time.perf_counter()
        closed_start, lead_processed = first_send, 0
        for k in range(self.lead_in + closed):
            if k == self.lead_in:
                closed_start = time.perf_counter()
                lead_processed = plane.last_durable[0]
            sent_at.append(time.perf_counter())
            await send(k)
            if k == 0:
                await ingested(self.nodes)
            else:
                await processed(k)
        closed_end = time.perf_counter()
        closed_processed = plane.last_durable[0] - lead_processed

        late_ms: List[float] = []
        origin = time.perf_counter()
        for j in range(opened):
            due = origin + j / self.open_rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append(max(0.0, 1e3 * (time.perf_counter() - due)))
            sent_at.append(due)
            await send(self.lead_in + closed + j)
        await ingested(self.nodes * (self.lead_in + closed + opened))
        return dict(
            sent_at=sent_at, late_ms=late_ms, first_send=first_send,
            closed_start=closed_start, closed_end=closed_end,
            closed_processed=closed_processed,
        )

    # -- one pass ---------------------------------------------------------

    def run_pass(self, state: ServeState, tracer) -> PassResult:
        return self._pass(
            state, tracer, self.closed_intervals, self.open_intervals
        )

    def _pass(self, state, tracer, closed, opened) -> PassResult:
        checkpoint_dir = TMP_DIR / f"checkpoint-{self.name}"
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        try:
            session = asyncio.run(
                self._session(state, checkpoint_dir, closed, opened)
            )
            span = (
                tracer.span("serve.plane.resume") if tracer is not None
                else nullcontext()
            )
            with span:
                resumed = self._resume(state, checkpoint_dir)
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return self._evaluate(session, resumed, closed, opened)

    def _resume(self, state, checkpoint_dir) -> tuple:
        """Durability check: a second plane built from the final
        checkpoint must be where the first one was."""
        telemetry = Telemetry()
        with telemetry_scope(telemetry):
            plane = ControlPlane(
                state.config, self.build_predictor(state), None,
                trigger=self._trigger(),
                options=self._options(state, checkpoint_dir, resume=True),
                telemetry=telemetry,
            )
        return (
            int(round(plane.sim_time / self.slot_seconds)),
            plane.controller.machines,
            plane.controller.mode,
        )

    def _evaluate(self, session: Session, resumed, closed, opened) -> PassResult:
        summary, plane, source = session.summary, session.plane, session.source
        total = self.lead_in + closed + opened
        sent = self.nodes * total
        problems: List[str] = []

        def expect(label: str, got, want) -> None:
            if got != want:
                problems.append(f"{label}: {got!r}, expected {want!r}")

        expect("reports ingested", summary["reports"], sent)
        expect("intervals decided", summary["intervals"], total)
        expect(
            "intervals closed by the monitor",
            plane.depository.monitor.completed_intervals, total,
        )
        expect("stream drained", summary["drained"], True)
        expect("checkpoints cover every interval", plane.last_durable[0], total)
        for label, value in (
            ("rejected", source.rejected),
            ("late", summary["late_reports"]),
            ("duplicate", summary["duplicate_reports"]),
            ("throttled", source.throttled),
            ("auth_failures", source.auth_failures),
            ("overlong_lines", source.overlong_lines),
            ("evicted_nodes", summary["evicted_nodes"]),
        ):
            expect(label, value, 0)
        expect("resumed plane (processed, machines, mode)",
               resumed, plane.last_durable)
        if summary["moves_started"] < self.min_moves:
            problems.append(
                f"{summary['moves_started']} moves started, expected at "
                f"least {self.min_moves}"
            )

        # Latency of the decision for interval k - 1: from the moment the
        # reports that close it (interval k's) were written or due.
        latencies: List[float] = []
        durable = iter(plane.durable)
        done_count, done_at = next(durable, (total + 1, 0.0))
        for k in range(1, total):
            while done_count < k:
                done_count, done_at = next(durable, (total + 1, 0.0))
            if done_count > total:
                problems.append(f"interval {k - 1} was never decided")
                break
            latencies.append(1e3 * (done_at - session.sent_at[k]))

        if opened:
            host_s = session.closed_end - session.closed_start
            decisions = session.closed_processed
            decision_ms = latencies[-opened:]
        else:
            host_s = session.finished - session.first_send
            decisions = total
            decision_ms = latencies
        digest = digest_of({
            "intervals": summary["intervals"],
            "machines": summary["steady_machines"],
            "mode": summary["mode"],
            "violations": summary["violations"],
            "moves_started": summary["moves_started"],
            "emergencies": summary["emergencies"],
            "trigger_fires": summary["trigger_fires"],
            "reports": summary["reports"],
            "chronicle": [
                [rec.get("kind"), rec.get("time")] for rec in session.chronicle
            ],
        })
        return PassResult(
            host_s=host_s,
            sim_seconds=decisions * self.slot_seconds,
            decisions=decisions,
            reports=self.nodes * decisions,
            ops_attempted=sent + total + 1,
            digest=digest,
            problems=problems,
            decision_ms=decision_ms,
            late_ms=session.late_ms,
            counters={
                "sent": float(sent),
                "rejected": float(source.rejected),
                "backpressure_hits": float(source.backpressure_hits),
                "throttled": float(source.throttled),
                "late": float(summary["late_reports"]),
                "evictions": float(summary["evicted_nodes"]),
                "trigger_fires": float(summary["trigger_fires"]),
                "moves_started": float(summary["moves_started"]),
            },
        )


class ServeFanin(ServeWorkload):
    name = "serve_fanin"
    why = (
        "ControlPlane.run over tcp: (auth, line/rate guards, node_timeout=3, "
        "checkpoints): 1024 nodes on 2 connections, 12 intervals closed "
        "loop, seasonal predictor - the per-report path is the work"
    )
    nodes = 1024
    # System-call heavy, so it loses more to a busy host than anything
    # else here; cheap to set up, so it can afford more passes.
    min_passes = 8
    closed_intervals = 12
    warmup_closed = 3
    first_slot = 84  # 07:00, the morning ramp

    def build_predictor(self, state):
        return build_predictor("seasonal", period=self.slots_per_day).fit(
            state.train
        )


class ServeIntervals(ServeWorkload):
    name = "serve_intervals"
    why = (
        "same plane, 4 nodes, hourly slots, spar behind OnlinePredictor "
        "(daily refit), mape:0.3 armed: 180 lead-in + 432 intervals closed "
        "loop, then 100 open loop at 64/s from due time - per-interval path"
    )
    # Hourly planner slots (as repro.experiments.serve uses): SPAR's
    # min_history is then 180 intervals, a lead-in a pass can afford.
    slot_seconds = 3600.0
    nodes = 4
    # One connection: in the open loop nothing holds two connections in
    # step, and a stall that lets one run three intervals ahead of the
    # other gets the laggard's nodes evicted and their reports dropped.
    connections = 1
    min_passes = 4
    lead_in = 180
    closed_intervals = 432
    open_intervals = 100
    open_rate = 64.0
    warmup_closed = 8
    warmup_open = 8
    trigger_text = "mape:0.3"
    min_moves = 10

    def build_predictor(self, state):
        period = self.slots_per_day
        predictor = OnlinePredictor(
            build_predictor(
                "spar", period=period, n_periods=7, m_recent=period // 2
            ),
            refit_every=period,
            max_history=21 * period,
        ).fit(state.train)
        if predictor.min_history != self.lead_in:
            raise RuntimeError(
                f"lead-in of {self.lead_in} intervals does not match the "
                f"predictor's min_history of {predictor.min_history}"
            )
        return predictor

    def check_layers(self, metrics):
        problems = []
        if metrics["serve.controller.refits"] < 1:
            problems.append("serve_intervals: no refit inside a traced pass")
        if metrics["core.planner.calls"] < 1:
            problems.append("serve_intervals: the planner never ran")
        return problems
