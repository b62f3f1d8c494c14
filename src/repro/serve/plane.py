"""The event loop that turns batch machinery into a service.

``ControlPlane.run()`` is the whole lifecycle::

    source --batches--> Depository --closed intervals--> OnlineController
                            |                                  |
                        LoadMonitor                    plan / migrate /
                            |                          error-trigger
                    AccuracyTracker harvest
                            |
         ControlPlaneServer (/status /metrics /chronicle/tail /plan)

The plane owns nothing clever: it races the source's next batch of
reports against a stop event (set by SIGINT/SIGTERM), feeds the
depository one report at a time — so where the transport cut the
stream into batches changes nothing it decides — dispatches every
newly closed interval to the controller, and streams one-line
dashboard updates.  On shutdown it *drains*: the controller rolls back
any partially-applied migration round, the telemetry scope flushes
open spans, and the full 4-artifact ``export_run`` is written — so a
killed service still yields a run directory ``pstore explain`` can walk
end-to-end.

With ``checkpoint_dir`` set the plane additionally persists its *full*
state (watermark, buffers, fitted predictor, accuracy windows, chronicle,
migration position) after every batch of closed intervals; ``resume``
reconstructs mid-stream from that directory, so even a SIGKILL — which
never reaches the graceful drain — loses at most the open interval and
never closes an interval twice.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass
from typing import Optional

from ..config import PStoreConfig
from ..errors import PStoreError, SimulationError
from ..persist import Persisted
from ..telemetry import export_run, get_telemetry
from .controller import ErrorTrigger, OnlineController
from .depository import Depository
from .persist import CheckpointStore
from .server import ControlPlaneServer


@dataclass
class ServeOptions:
    """Knobs the CLI exposes (see ``pstore serve --help``)."""

    speed: float = 60.0
    http_port: Optional[int] = None
    out: Optional[str] = "serve-out"
    initial_machines: int = 2
    max_machines: Optional[int] = None
    status_every: int = 12           # dashboard line cadence, in intervals
    quiet: bool = False
    #: Directory to checkpoint into after every closed interval (None
    #: disables persistence entirely).
    checkpoint_dir: Optional[str] = None
    #: Restore from ``checkpoint_dir`` before serving (also keeps
    #: checkpointing there).
    resume: bool = False
    #: Evict nodes whose clock trails the fastest node by more than this
    #: many intervals, so one dead node can't freeze the watermark
    #: (0 = never evict).
    node_timeout: int = 0


class ControlPlane(Persisted):
    """Wires a report source to the online controller and runs forever
    (or until the source drains / a signal arrives)."""

    def __init__(
        self,
        config: PStoreConfig,
        predictor,
        source,
        trigger: Optional[ErrorTrigger] = None,
        options: Optional[ServeOptions] = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.options = options if options is not None else ServeOptions()
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self.source = source
        self.depository = Depository(
            config.interval_seconds,
            telemetry=self._telemetry,
            node_timeout_intervals=self.options.node_timeout,
        )
        self.controller = OnlineController(
            config,
            predictor,
            initial_machines=self.options.initial_machines,
            max_machines=self.options.max_machines,
            trigger=trigger,
            telemetry=self._telemetry,
        )
        self.checkpoints: Optional[CheckpointStore] = None
        if self.options.checkpoint_dir is not None:
            self.checkpoints = CheckpointStore(self.options.checkpoint_dir)
        self._stop: Optional[asyncio.Event] = None
        self._processed = 0
        self.stopped_by_signal = False
        self.resumed = False
        if self.options.resume:
            if self.checkpoints is None:
                raise SimulationError(
                    "resume requested without a checkpoint directory"
                )
            self._restore()
        self.server: Optional[ControlPlaneServer] = None
        if self.options.http_port is not None:
            self.server = ControlPlaneServer(
                self.status,
                self.plan_view,
                port=self.options.http_port,
                telemetry=self._telemetry,
                checkpoint_fn=(
                    self.checkpoint if self.checkpoints is not None else None
                ),
            )

    # ------------------------------------------------------------------
    # Introspection (shared with the HTTP server)
    # ------------------------------------------------------------------

    @property
    def sim_time(self) -> float:
        return self._processed * self.config.interval_seconds

    def status(self) -> dict:
        doc = self.controller.status()
        doc.update(
            sim_time=self.sim_time,
            watermark=self.depository.watermark,
            reports=self.depository.reports_ingested,
            late_reports=self.depository.late_reports,
            duplicate_reports=self.depository.duplicate_reports,
            reporting_nodes=self.depository.nodes,
            evicted_nodes=self.depository.evictions,
            interval_seconds=self.config.interval_seconds,
            resumed=self.resumed,
            **self._checkpoint_health(),
        )
        return doc

    def _checkpoint_health(self) -> dict:
        """What the store has written, as ``/status`` and ``/metrics``
        name it (zeros when checkpointing is off)."""
        return {
            f"checkpoint_{name}": getattr(self.checkpoints, name, 0)
            for name in (
                "saves", "bytes_written", "journal_rows", "compactions",
            )
        }

    def plan_view(self) -> dict:
        view = {
            "mode": self.controller.mode,
            "machines": self.controller.machines,
            "last_decision": self.controller.last_decision_reason,
            "migrating": self.controller.migrating,
        }
        schedule = self.controller._strategy.controller.last_schedule
        if schedule is not None:
            view["schedule"] = [
                {
                    "start": move.start,
                    "end": move.end,
                    "before": move.before,
                    "after": move.after,
                }
                for move in schedule.moves
            ]
        return view

    def status_line(self) -> str:
        now = self.status()
        stats = now.get("error_stats") or {}
        mape = stats.get("mape_pct")
        mape_text = f"{mape:.1f}%" if mape is not None else "-"
        return (
            f"t={now['sim_time']:>9,.0f}s slots={now['intervals']:>5} "
            f"machines={now['machines']} mode={now['mode']:<10} "
            f"mape[{'t' + str(self.controller.trigger.tau) if self.controller.trigger else 't1'}]={mape_text:<7} "
            f"viol={now['violations']} moves={now['moves_started']} "
            f"trigger={now['trigger_fires']}"
        )

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --checkpoint / --resume``)
    # ------------------------------------------------------------------

    PERSIST_MATCH = ("config.interval_seconds",)
    #: The checkpoint document, in restore order: the accuracy windows
    #: and the predictor first (the controller's strategy needs a fitted
    #: model), then the monitor and the depository, then the controller
    #: (which replays any in-flight migration).  The chronicle is not in
    #: the document; it comes back from its own durable log.
    PERSIST = (
        "_processed", "_telemetry.accuracy", "controller.predictor",
        "depository.monitor", "depository", "controller",
    )

    def checkpoint(self) -> dict:
        """Persist the full plane state; returns a small receipt dict.

        Called automatically after every batch of closed intervals, and
        on demand through the HTTP ``/checkpoint`` route.
        """
        store = self.checkpoints
        if store is None:
            raise SimulationError(
                "checkpointing is not enabled (set checkpoint_dir)"
            )
        tel = self._telemetry
        store.save(self, tel.chronicle.records if tel.enabled else [])
        if tel.enabled:
            for name, value in self._checkpoint_health().items():
                tel.metrics.gauge(f"serve.{name}").set(value)
        return {
            "saved": True,
            "directory": str(store.directory),
            "intervals": self._processed,
            "saves": store.saves,
        }

    def _restore(self) -> None:
        """Reconstruct mid-stream state from the checkpoint directory:
        the chronicle first (so every other component's restored record
        IDs resolve), then the document."""
        store = self.checkpoints
        doc, records = store.load()
        tel = self._telemetry
        try:
            if tel.enabled:
                tel.chronicle.restore(records)
            self.restore_state(doc)
        except PStoreError as exc:
            raise SimulationError(
                f"cannot resume from {store.checkpoint_path}: {exc}"
            ) from None
        self.resumed = True
        if tel.enabled:
            tel.chronicle.record(
                "service.resume",
                time=self.sim_time,
                intervals=self._processed,
                watermark=self.depository.watermark,
                machines=self.controller.machines,
                mode=self.controller.mode,
            )
            tel.metrics.counter("serve.resumes").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Idempotent; safe to call from signal handlers."""
        self.stopped_by_signal = True
        if self._stop is not None:
            self._stop.set()

    def _install_signals(self, loop) -> list:
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self.request_stop)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / unsupported platform
        return installed

    async def run(self) -> dict:
        """Serve until the source drains or a signal arrives; returns a
        summary dict (also the sweep-cell payload)."""
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        installed = self._install_signals(loop)
        if self.server is not None:
            await self.server.start()
        drained = False
        try:
            batches = self.source.batches()
            depository = self.depository
            stop_task = asyncio.ensure_future(self._stop.wait())
            try:
                while not self._stop.is_set():
                    next_task = asyncio.ensure_future(batches.__anext__())
                    done, _ = await asyncio.wait(
                        {next_task, stop_task},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if next_task not in done:
                        next_task.cancel()
                        break
                    try:
                        batch = next_task.result()
                    except StopAsyncIteration:
                        drained = True
                        break
                    for report in batch:
                        if depository.add(report) and depository.flush():
                            self._dispatch()
                            if self.checkpoints is not None:
                                self.checkpoint()
            finally:
                stop_task.cancel()
            if drained:
                # End of a finite stream: close the final interval too.
                if self.depository.finish():
                    self._dispatch()
                    if self.checkpoints is not None:
                        self.checkpoint()
        finally:
            summary = await self._drain(drained, installed, loop)
        return summary

    def _dispatch(self) -> None:
        """Feed every newly closed interval to the controller, in order."""
        monitor = self.depository.monitor
        history = monitor.history_tps()
        completed = monitor.completed_intervals
        interval = self.config.interval_seconds
        for slot in range(self._processed, completed):
            self._processed = slot + 1
            self.controller.on_interval(
                slot, history[: slot + 1], (slot + 1) * interval
            )
            every = self.options.status_every
            if every and not self.options.quiet and (slot + 1) % every == 0:
                print(self.status_line(), file=sys.stderr, flush=True)

    async def _drain(self, drained: bool, installed, loop) -> dict:
        """Graceful shutdown: roll back partial work, flush artifacts."""
        self.controller.shutdown(
            self.sim_time,
            reason="source drained" if drained else "signal",
        )
        for sig in installed:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        if self.server is not None:
            server, self.server = self.server, None
            await server.close()
        if self.checkpoints is not None:
            self.checkpoints.close()
        tel = self._telemetry
        artifacts = {}
        if self.options.out and tel.enabled:
            artifacts = {
                name: str(path)
                for name, path in export_run(tel, self.options.out).items()
            }
        doc = self.status()
        doc.update(
            drained=drained,
            stopped_by_signal=self.stopped_by_signal,
            artifacts=artifacts,
        )
        if not self.options.quiet:
            print(self.status_line(), file=sys.stderr, flush=True)
        return doc
