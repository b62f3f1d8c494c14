"""Telemetry runtime: the bundle of registry + tracer + chronicle +
accuracy tracker, and the process-global default that instrumented code binds to.

Disabled telemetry (the default) is the singleton :data:`NULL_TELEMETRY`
whose parts are all no-ops, so the cost of an instrumentation hook in a
hot path is one ``tel.enabled`` attribute check.  Enabling telemetry
swaps in a live :class:`Telemetry` bundle:

>>> from repro.telemetry import enable_telemetry, get_telemetry
>>> tel = enable_telemetry()
>>> tel is get_telemetry()
True

Instrumented classes resolve :func:`get_telemetry` once at construction
(overridable with an explicit ``telemetry=`` argument), so enable
telemetry *before* building the system you want observed.  Tests use
:func:`telemetry_scope` to install a fresh bundle for one block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .accuracy import NULL_ACCURACY, AccuracyTracker, NullAccuracyTracker
from .causal import NULL_CHRONICLE, FlightRecorder, NullFlightRecorder
from .metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .tracing import NULL_RECORDER, NullRecorder, SpanRecorder


class Telemetry:
    """A live telemetry bundle (metrics + spans + chronicle + forecast
    accuracy)."""

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanRecorder] = None,
        chronicle: Optional[FlightRecorder] = None,
        accuracy: Optional[AccuracyTracker] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanRecorder()
        self.chronicle = chronicle if chronicle is not None else FlightRecorder()
        self.accuracy = (
            accuracy
            if accuracy is not None
            else AccuracyTracker(metrics=self.metrics)
        )

    def reset(self) -> None:
        """Drop all recorded data (start of a new run)."""
        self.metrics = MetricsRegistry()
        self.tracer = SpanRecorder()
        self.chronicle = FlightRecorder()
        self.accuracy = AccuracyTracker(metrics=self.metrics)


class NullTelemetry:
    """Disabled telemetry: every part is a shared no-op."""

    enabled = False
    metrics: NullRegistry = NULL_REGISTRY
    tracer: NullRecorder = NULL_RECORDER
    chronicle: NullFlightRecorder = NULL_CHRONICLE
    accuracy: NullAccuracyTracker = NULL_ACCURACY

    def reset(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()

_active = NULL_TELEMETRY


def get_telemetry():
    """The process-global telemetry bundle (null when disabled)."""
    return _active


def set_telemetry(telemetry) -> None:
    """Install ``telemetry`` as the process-global bundle."""
    global _active
    _active = telemetry


def enable_telemetry() -> Telemetry:
    """Install and return a fresh live bundle as the global default."""
    telemetry = Telemetry()
    set_telemetry(telemetry)
    return telemetry


def disable_telemetry() -> None:
    """Restore the no-op default."""
    set_telemetry(NULL_TELEMETRY)


@contextmanager
def telemetry_scope(telemetry: Optional[Telemetry] = None):
    """Temporarily install a bundle; restores the previous global on exit.

    ``None`` (the default) means *a fresh live bundle*, not "no
    telemetry": code that wants to record nothing passes
    :data:`NULL_TELEMETRY`, as an untelemetered sweep cell does."""
    previous = get_telemetry()
    installed = telemetry if telemetry is not None else Telemetry()
    set_telemetry(installed)
    try:
        yield installed
    finally:
        set_telemetry(previous)
