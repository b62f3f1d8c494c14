"""Experiment: Figure 8 — migration chunk size vs latency (D discovery).

Sec. 8.1: with one machine running at its maximum rate Q-hat, move half
of the database to a second machine while varying the migration chunk
size.  Small (1000 kB) chunks barely disturb the 99th-percentile
latency; larger chunks finish faster but cause latency spikes.  The
calibrated outcome sets D = 4646 s and R = 244 kB/s.

One chunk is transmitted every ~4.1 s regardless of size (Squall spaces
chunks apart), so the effective migration rate scales linearly with
chunk size: 1000 kB -> 244 kB/s, 8000 kB -> 1952 kB/s (the "R x 8" of
Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.report import claim
from ..elasticity import StaticStrategy
from ..elasticity.manual import ManualStrategy
from ..sim import ElasticDbSimulator

#: Chunk sizes (kB) swept by the paper; None = static run, no migration.
FIGURE8_CHUNKS: Sequence[Optional[float]] = (None, 1000.0, 2000.0, 4000.0, 6000.0, 8000.0)

#: Implied chunk spacing (seconds) from R = 244 kB/s at 1000 kB chunks.
CHUNK_SPACING_S = 1000.0 / 244.0


@dataclass
class ChunkRunResult:
    """Latency and duration of one chunk-size run."""

    chunk_kb: Optional[float]
    rate_kbps: float
    p50_peak_ms: float            # worst per-second p50 during the window
    p99_peak_ms: float
    p99_mean_ms: float
    migration_seconds: float      # 0 for the static run


@dataclass
class Figure8Result:
    """All chunk-size runs of the Fig. 8 sweep."""

    runs: List[ChunkRunResult]

    def by_chunk(self) -> Dict[Optional[float], ChunkRunResult]:
        return {run.chunk_kb: run for run in self.runs}


def grid(chunks=FIGURE8_CHUNKS, duration_seconds: int = 1200,
         seed: int = 13) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig08",
            cell="static" if chunk is None else f"chunk-{int(chunk)}kb",
            seed=seed,
            overrides=(
                ("chunk_kb", None if chunk is None else float(chunk)),
                ("duration_seconds", int(duration_seconds)),
            ),
        )
        for chunk in chunks
    ]


def run_cell(spec, config) -> dict:
    """One 1 -> 2 move at the cell's chunk size (none: a static run).

    Per-machine offered load is pinned at Q-hat, as in the paper: the
    total offered rate follows the system's effective capacity at the
    maximum per-server rate.
    """
    chunk = spec.option("chunk_kb")
    duration_seconds = int(spec.option("duration_seconds", 1200))
    rate = 0.0 if chunk is None else chunk / CHUNK_SPACING_S
    # Keep the source machine at Q-hat: with 1 -> 2 machines, the
    # offered load tracks effective capacity, which our simulator
    # realises by keeping total offered at Q-hat / max-data-fraction.
    # A constant Q-hat offered load is the conservative equivalent
    # (the source holds >= half the data throughout).
    offered = np.full(duration_seconds, config.q_hat)
    simulator = ElasticDbSimulator(
        config,
        max_machines=2,
        initial_machines=1,
        seed=spec.seed,
        chunk_kb=chunk if chunk is not None else 1000.0,
        engine_kwargs={"hot_episode_rate": 0.0, "skew_sigma": 0.02},
    )
    if chunk is None:
        result = simulator.run(offered, StaticStrategy(1))
        window = slice(0, duration_seconds)
        migration_seconds = 0.0
    else:
        strategy = ManualStrategy([(1, 2, rate / config.migration_rate_kbps)])
        result = simulator.run(offered, strategy)
        migrating = np.nonzero(result.migrating)[0]
        window = (
            slice(int(migrating[0]), int(migrating[-1]) + 1)
            if migrating.size
            else slice(0, duration_seconds)
        )
        migration_seconds = float(migrating.size)
    p50 = result.latency.series(50.0)[window]
    p99 = result.latency.series(99.0)[window]
    return {
        "chunk_kb": chunk,
        "rate_kbps": rate,
        "p50_peak_ms": float(p50.max()),
        "p99_peak_ms": float(p99.max()),
        "p99_mean_ms": float(p99.mean()),
        "migration_seconds": migration_seconds,
    }


def fold(payloads) -> Figure8Result:
    return Figure8Result(
        runs=[ChunkRunResult(**payload) for payload in payloads.values()]
    )


def summarize(result: Figure8Result) -> str:
    lines = []
    for run in result.runs:
        label = "static" if run.chunk_kb is None else f"{run.chunk_kb:.0f} kB"
        lines.append(
            f"{label}: p99 peak {run.p99_peak_ms:.0f} ms, migration "
            f"{run.migration_seconds:.0f} s"
        )
    return "\n".join(lines)


def claims(result: Figure8Result) -> list:
    by_chunk = result.by_chunk()
    static, small, large = by_chunk[None], by_chunk[1000.0], by_chunk[8000.0]
    return [
        claim("1000 kB ~ static system", "p99 slightly larger, within the 500 ms SLA",
              f"{small.p99_peak_ms:.0f} vs {static.p99_peak_ms:.0f} ms peak",
              small.p99_peak_ms < 1.5 * static.p99_peak_ms,
              note="holds = under 1.5x static, whatever the SLA"),
        claim("larger chunks -> faster", "Fig 8 trend",
              f"8000 kB: {large.migration_seconds:.0f} s move vs "
              f"{small.migration_seconds:.0f} s",
              large.migration_seconds < small.migration_seconds / 4),
        claim("larger chunks -> riskier", "Fig 8 trend",
              f"8000 kB: p99 peak {large.p99_peak_ms:.0f} ms",
              large.p99_peak_ms > 2.0 * static.p99_peak_ms),
        claim("implied safe rate R", "244 kB/s", f"{small.rate_kbps:.0f} kB/s"),
    ]
