"""The measurement loop shared by all workloads.

One workload is measured in up to two phases:

* the **gated** phase (``--trace 0``): :data:`SETUPS` full set-ups, then
  timed passes until ``--seconds`` have gone by (at least
  :data:`MIN_PASSES`), with nothing wrapped — this alone produces the
  end-to-end metrics;
* the **traced** phase (``--trace 1``): :data:`TRACE_PASSES` more
  untraced reference passes, then a set-up and the same number of passes
  with :mod:`perfbench.tracing` installed — this alone produces the
  per-layer metrics, and traced ÷ reference pass time − 1 is the tracing
  overhead.

Every pass checks its own outputs; a failed check is a failed operation
and makes the run incorrect.

**Calibrated host time.**  The sandbox this runs in shares its host, and
the host's speed moves on two time scales.  Over minutes it drifts: the
same pass took 0.70 s in a quiet hour and 1.03 s in a busy one, so no
statistic over the passes of one run removes it.  Within seconds it
flickers by ~10 % per pass, which only more passes average out.  A fixed
numpy + Python kernel (:func:`layers.kernel_seconds`, ~75 ms) is timed
after every set-up and every pass, and the end-to-end times of a run are
multiplied by ``CALIB_REF_S / mean kernel seconds of the run``: they are
seconds *of the reference host* (the one on which the kernel takes
:data:`CALIB_REF_S`).  One factor per run, because a single kernel timing
is as noisy as a single pass; raw times and the factor are printed.
"""

from __future__ import annotations

import collections
import faulthandler
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import OUT_DIR, layers, stats, tracing

#: Full set-ups per run; ``setup_s`` is their median plus import time.
SETUPS = 3
#: A run always times at least this many passes, so digests can be
#: compared across passes even when one pass outlasts ``--seconds``; a
#: workload whose passes are noisier asks for more (``min_passes``).
MIN_PASSES = 3
#: Reference and traced passes of the traced phase.
TRACE_PASSES = 2
#: A workload that is still running after this many seconds is hung:
#: the process dumps its stack and exits non-zero instead of lingering.
HARD_DEADLINE_S = 170

#: Kernel time on the reference host; dividing by it is what makes a
#: calibrated second a unit of time and not a bare ratio.
CALIB_REF_S = 0.075

INJECTIONS = ("bad-digest",)


class Calibrator:
    """Times the calibration kernel between the phases of a run."""

    #: Kernel time spent after a phase, as a share of the phase's own
    #: duration (at least one timing, at most :data:`MAX_TIMINGS`).
    SHARE = 0.1
    MAX_TIMINGS = 5

    def __init__(self) -> None:
        self.timings: List[float] = [layers.kernel_seconds()]

    def after(self, phase_seconds: float) -> None:
        budget = self.SHARE * phase_seconds
        spent, count = 0.0, 0
        while count == 0 or (spent < budget and count < self.MAX_TIMINGS):
            self.timings.append(layers.kernel_seconds())
            spent += self.timings[-1]
            count += 1

    @property
    def speed(self) -> float:
        """Reference-host seconds per measured second, over the run."""
        return CALIB_REF_S / stats.mean(self.timings)


@dataclass
class PassResult:
    """What one pass of a workload did and how long it took.

    ``host_s`` is the time base of the throughput metrics (the whole
    pass for batch workloads, the closed-loop phase for
    ``serve_intervals``); ``decision_ms`` holds per-decision latencies
    when the workload can observe them, otherwise the harness uses the
    amortised ``host_s / decisions``.
    """

    host_s: float
    sim_seconds: float
    decisions: int
    reports: int
    ops_attempted: int
    digest: str
    problems: List[str] = field(default_factory=list)
    decision_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0


class Workload:
    """One named set of inputs.  Subclasses fill in the four hooks."""

    name = ""
    why = ""
    min_passes = MIN_PASSES

    def prepare(self) -> None:
        """Import everything the workload reaches (timed once)."""

    def setup(self, seed: int):
        """Inputs from the seed, predictors trained, memo cleared, one
        untimed warm-up pass; returns the state passes run on.  The
        state's ``reference_digest`` (or None) votes in the digest check."""
        raise NotImplementedError

    def run_pass(self, state, tracer: Optional[tracing.Tracer]) -> PassResult:
        raise NotImplementedError

    def check_layers(self, metrics: Dict[str, float]) -> List[str]:
        """Assertions on the traced run's split (empty = fine)."""
        return []


# ----------------------------------------------------------------------
# Memory high-water mark
# ----------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset ``VmHWM`` so the next reading covers only what follows."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> Optional[float]:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------


def _timed_pass(workload, state, tracer, label: str, calib) -> PassResult:
    wall = time.perf_counter()
    cpu = time.process_time()
    if tracer is not None:
        tracer.run = label
        with tracer.span("harness.pass"):
            result = workload.run_pass(state, tracer)
    else:
        result = workload.run_pass(state, None)
    result.wall_s = time.perf_counter() - wall
    result.cpu_s = time.process_time() - cpu
    calib.after(result.wall_s)
    return result


def _check_digests(passes: List[PassResult], reference: Optional[str]) -> None:
    """Flag every pass whose digest is not the most common one."""
    votes = [p.digest for p in passes]
    if reference is not None:
        votes.append(reference)
    agreed = collections.Counter(votes).most_common(1)[0][0]
    for index, result in enumerate(passes):
        if result.digest != agreed:
            result.problems.append(
                f"pass {index}: digest {result.digest} differs from "
                f"{agreed} (simulated results are not reproducible)"
            )


def _account(passes: List[PassResult]) -> Dict[str, object]:
    problems = [p for result in passes for p in result.problems]
    return {
        "attempted": sum(r.ops_attempted for r in passes),
        "failed": len(problems),
        "problems": problems,
    }


def decision_latency(passes: List[PassResult]) -> Dict[str, float]:
    """Median and tail decision latency in raw ms, plus the tail
    percentile used.

    Percentiles are taken per pass and the median over passes is
    reported: a host stall that lands in one pass then moves neither.
    The tail is p95 when a pass has 200 samples, otherwise the highest
    percentile that still has ten of its samples beyond it, otherwise
    the median.
    """
    per_pass = [
        p.decision_ms or [1e3 * p.host_s / p.decisions] for p in passes
    ]
    tail_q = stats.tail_percentile(len(per_pass[0]))
    return {
        "p50": stats.median([stats.median(s) for s in per_pass]),
        "tail": stats.median([stats.percentile(s, tail_q) for s in per_pass]),
        "tail_percentile": tail_q,
    }


def end_to_end(passes: List[PassResult], speed: float) -> Dict[str, float]:
    """The throughput and latency metrics of a list of timed passes, in
    calibrated time (``speed`` reference-host seconds per second)."""
    host = speed * stats.median([p.host_s for p in passes])
    first = passes[0]
    return {
        "sim_s_per_host_s": first.sim_seconds / host,
        "decisions_per_s": first.decisions / host,
        "reports_per_s": first.reports / host,
        "decision_ms_p50": speed * decision_latency(passes)["p50"],
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: Optional[int],
    inject: Optional[str] = None,
    started: Optional[float] = None,
) -> dict:
    """Run one workload; returns its full result document.

    ``trace`` is 0 (gated phase only), 1 (traced phase only) or None
    (both).  ``started`` is when the process (or the caller) began, so
    the first workload's ``setup_s`` includes interpreter-side imports.
    """
    faulthandler.dump_traceback_later(
        HARD_DEADLINE_S, exit=True, file=sys.__stderr__
    )
    try:
        return _measure(workload, seed, seconds, trace, inject, started)
    finally:
        faulthandler.cancel_dump_traceback_later()


def _measure(workload, seed, seconds, trace, inject, started) -> dict:
    began = started if started is not None else time.perf_counter()
    workload.prepare()
    import_s = time.perf_counter() - began
    calib = Calibrator()

    doc: dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "end_to_end": {},
        "per_layer": {},
        "info": {},
    }
    all_passes: List[PassResult] = []
    state = None

    if trace in (None, 0):
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setups.append(time.perf_counter() - t0)
            calib.after(setups[-1])
        rss_reset = reset_peak_rss()
        passes: List[PassResult] = []
        t0 = time.perf_counter()
        while (
            len(passes) < workload.min_passes
            or time.perf_counter() - t0 < seconds
        ):
            result = _timed_pass(workload, state, None, "gated", calib)
            if inject == "bad-digest" and not passes:
                result.digest = "injected:" + result.digest
            passes.append(result)
        peak = peak_rss_mib()
        rss_source = "VmHWM" if rss_reset else "VmHWM-not-reset"
        if peak is None:
            # Linux reports ru_maxrss in KiB.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rss_source = "ru_maxrss"
        _check_digests(passes, state.reference_digest)
        speed = calib.speed
        metrics = end_to_end(passes, speed)
        doc["info"].update(
            passes=len(passes),
            pass_s=[round(p.host_s, 4) for p in passes],
            host_speed=round(speed, 4),
            kernel_timings=len(calib.timings),
            import_s=round(import_s, 4),
            setups_s=[round(s, 4) for s in setups],
            latency_samples=len(passes[0].decision_ms) or 1,
            rss_source=rss_source,
        )
        metrics["setup_s"] = speed * (import_s + stats.median(setups))
        metrics["peak_rss_mb"] = peak
        doc["end_to_end"] = metrics
        doc["digest"] = collections.Counter(
            p.digest for p in passes
        ).most_common(1)[0][0]
        all_passes.extend(passes)

    if trace in (None, 1):
        if state is None:
            state = workload.setup(seed)
        refs = [
            _timed_pass(workload, state, None, f"reference-{i}", calib)
            for i in range(TRACE_PASSES)
        ]
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            tracer.run = "traced-setup"
            with tracer.span("harness.setup"):
                traced_state = workload.setup(seed)
            traced = [
                _timed_pass(workload, traced_state, tracer, f"traced-{i}", calib)
                for i in range(TRACE_PASSES)
            ]
        finally:
            restore()
        _check_digests(refs + traced, state.reference_digest)
        latency = decision_latency(refs)
        per_layer = layers.compute(
            tracer.spans, refs, traced, min(calib.timings), latency["tail"]
        )
        problems = workload.check_layers(per_layer)
        if problems:
            traced[-1].problems.extend(problems)
        trace_path = OUT_DIR / f"trace-{workload.name}.jsonl"
        tracer.write(trace_path)
        doc["per_layer"] = per_layer
        doc["info"].update(
            trace_file=str(trace_path), spans=len(tracer.spans),
            tail_percentile=latency["tail_percentile"],
        )
        doc.setdefault("digest", refs[0].digest)
        all_passes.extend(refs + traced)

    doc.update(_account(all_passes))
    doc["correct"] = doc["failed"] == 0
    return doc
