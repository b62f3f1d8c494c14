"""The always-on predictive provisioning control plane (``pstore serve``).

Everything else in the repo is batch: a trace goes in, a finished run
directory comes out.  This package turns the same predict -> plan ->
migrate machinery into a *service that is advanced by events*, following
the monitor-surrogate -> central-depository -> reprovision-on-error
architecture:

* :mod:`repro.serve.ingest` — load-report sources: an in-proc trace
  replay (optionally accelerated by ``--speed``), plus newline-JSON
  stdin/file and TCP feeds for external monitors;
* :mod:`repro.serve.depository` — aggregates per-node reports into the
  rolling window :class:`~repro.hstore.monitor.LoadMonitor` expects,
  closing intervals at the cluster-wide watermark;
* :mod:`repro.serve.controller` — the online controller: refits SPAR on
  the window, re-plans with the existing planner, steps migrations
  non-blockingly, and — when the PR-6 :class:`AccuracyTracker` reports
  rolling MAPE/bias over threshold — fires an *unscheduled* re-plan and
  falls back to reactive provisioning until the refit model recovers;
* :mod:`repro.serve.server` — a zero-dependency asyncio HTTP endpoint
  (``/status``, ``/metrics``, ``/chronicle/tail``, ``/plan``);
* :mod:`repro.serve.persist` — crash-safe checkpointing: an atomic
  base snapshot, a journal of what changed per interval and an
  incremental chronicle log, restored by ``--resume`` so a SIGKILL'd
  plane reconstructs mid-stream without double-closing intervals;
* :mod:`repro.serve.plane` — the event loop tying them together, with
  graceful SIGINT draining that flushes the full 4-artifact
  ``export_run`` so a killed service still yields an ``explain``-able
  run directory.

See docs/SERVICE.md for the architecture and lifecycle.
"""

from .controller import ErrorTrigger, OnlineController, parse_error_trigger
from .depository import Depository
from .ingest import (
    LoadReport,
    JsonLinesSource,
    ReplaySource,
    ReportSource,
    TcpSource,
    parse_report_line,
    source_from_spec,
)
from .persist import CHECKPOINT_SCHEMA, CheckpointStore, read_checkpoint
from .plane import ControlPlane, ServeOptions
from .server import ControlPlaneServer

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "ControlPlane",
    "ControlPlaneServer",
    "Depository",
    "ErrorTrigger",
    "JsonLinesSource",
    "LoadReport",
    "OnlineController",
    "ReplaySource",
    "ReportSource",
    "ServeOptions",
    "TcpSource",
    "parse_error_trigger",
    "parse_report_line",
    "read_checkpoint",
    "source_from_spec",
]
