"""Differential: the row-level transaction engine against the analytic
queueing engine, two models of the same system, on one Poisson trace.

Why the tolerances can be tight: both sides run a single fixed-cost
read procedure at exponential interarrival times, so both model the
same M/M/1 mixture; the queueing engine runs with transient skew
disabled and is fed the executor's *measured* per-partition arrival
shares.  Two load levels: one well below saturation (throughput *and*
stationary latency must agree) and one 50 % past it (only throughput —
the completion rate must pin to the service capacity on both sides;
overloaded latency depends on horizon length, not model agreement).
"""

from typing import Any, List, Mapping

import numpy as np
import pytest

from repro.hstore import Cluster, Column, Schema, Table
from repro.hstore.engine import (
    DEFAULT_MU_PARTITION,
    QueueingEngine,
    TransactionExecutor,
)
from repro.hstore.txn import StoredProcedure, Transaction, TxnContext

#: Relative throughput tolerance below saturation (both engines should
#: complete essentially everything that is offered).
THROUGHPUT_SUB_TOL = 0.05
#: Relative throughput tolerance at saturation (service-time sampling
#: noise on the executor side).
THROUGHPUT_SAT_TOL = 0.10
#: Relative tolerance on stationary latency percentiles.  Both sides
#: sample the same M/M/1 sojourn distribution, but from finite (and
#: differently batched) sample sets.
LATENCY_TOL = 0.25

#: The load: seeded Poisson probe reads over ``PROBE_KEYS`` keys on
#: ``PROBE_PARTITIONS`` partitions, once at ``SUBSAT_TPS`` for
#: ``SUBSAT_SECONDS`` and once ``SAT_FACTOR`` times the service
#: capacity for ``SAT_SECONDS``.
PROBE_SEED = 7
PROBE_PARTITIONS = 2
PROBE_KEYS = 400
SUBSAT_TPS = 80.0
SUBSAT_SECONDS = 240.0
SAT_FACTOR = 1.5
SAT_SECONDS = 120.0


class _ProbeRead(StoredProcedure):
    """Fixed-cost single-key read.

    ``cost_weight`` is exactly 1.0 so the executor's mean service time is
    ``1 / mu_partition`` — the same rate the analytic engine uses.
    """

    name = "CheckProbeRead"
    read_only = True
    cost_weight = 1.0

    def routing_key(self, params: Mapping[str, Any]) -> Any:
        return params["k"]

    def run(self, ctx: TxnContext, params: Mapping[str, Any]) -> Any:
        return ctx.require("kv", params["k"])["v"]


def _probe_cluster() -> Cluster:
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(
        schema, 1, PROBE_PARTITIONS, n_buckets=PROBE_PARTITIONS * 16
    )
    for i in range(PROBE_KEYS):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def _run_executor(rate: float, duration: float, seed: int):
    """Open-loop Poisson arrivals of :class:`_ProbeRead` transactions.

    Returns (completed_tps, latencies_ms, per-partition arrival shares)
    with completion counted by *finish* time inside the horizon, so a
    saturated run reports the service capacity rather than the offered
    rate.
    """
    cluster = _probe_cluster()
    executor = TransactionExecutor(cluster, seed=seed)
    rng = np.random.default_rng(seed + 1)
    probe = _ProbeRead()
    arrivals = np.zeros(PROBE_PARTITIONS)
    latencies: List[float] = []
    finished_in_horizon = 0
    now = rng.exponential(1.0 / rate)
    while now < duration:
        key = f"key-{int(rng.integers(0, PROBE_KEYS))}"
        result = executor.execute(
            Transaction(probe, {"k": key}, submit_time=now)
        )
        arrivals[result.partition_id] += 1
        latencies.append(result.latency_ms)
        if now + result.latency_ms / 1000.0 <= duration:
            finished_in_horizon += 1
        now += rng.exponential(1.0 / rate)
    completed_tps = finished_in_horizon / duration
    shares = arrivals / arrivals.sum()
    return completed_tps, np.asarray(latencies), shares


def _run_queueing(
    rate: float, duration: float, shares: np.ndarray, seed: int
):
    """The analytic engine on the same offered load and measured shares,
    with transient skew disabled (the executor has no hot-key process)."""
    engine = QueueingEngine(
        n_partitions=shares.size,
        seed=seed,
        skew_sigma=0.0,
        hot_episode_rate=0.0,
        samples_per_tick=512,
    )
    block = engine.step_block(1.0, np.full(int(duration), rate), shares)
    return block.completed_tps, block.p50_ms, block.p95_ms


def _assert_agree(executor: float, queueing: float, tolerance: float,
                  unit: str) -> None:
    """Relative gap within ``tolerance``; the message shows both sides."""
    delta = abs(executor - queueing) / max(queueing, 1e-9)
    assert delta <= tolerance, (
        f"delta {delta:.3e} (tol {tolerance:.3e})  "
        f"executor {executor:.1f} vs queueing {queueing:.1f} {unit}"
    )


@pytest.fixture(scope="module")
def subsat():
    tput, latencies, shares = _run_executor(
        SUBSAT_TPS, SUBSAT_SECONDS, PROBE_SEED
    )
    q_completed, q_p50, q_p95 = _run_queueing(
        SUBSAT_TPS, SUBSAT_SECONDS, shares, PROBE_SEED
    )
    warmup = int(0.1 * SUBSAT_SECONDS)
    return {
        "tput": tput,
        "q_tput": float(q_completed.mean()),
        "p50": float(np.percentile(latencies, 50)),
        "p95": float(np.percentile(latencies, 95)),
        "q_p50": float(np.median(q_p50[warmup:])),
        "q_p95": float(np.median(q_p95[warmup:])),
    }


class TestBelowSaturation:
    def test_throughput(self, subsat):
        _assert_agree(
            subsat["tput"], subsat["q_tput"], THROUGHPUT_SUB_TOL, "tps"
        )

    def test_p50(self, subsat):
        _assert_agree(subsat["p50"], subsat["q_p50"], LATENCY_TOL, "ms")

    def test_p95(self, subsat):
        _assert_agree(subsat["p95"], subsat["q_p95"], LATENCY_TOL, "ms")


class TestPastSaturation:
    def test_throughput_pins_to_capacity(self):
        capacity = DEFAULT_MU_PARTITION * PROBE_PARTITIONS
        rate = SAT_FACTOR * capacity
        tput, _, shares = _run_executor(rate, SAT_SECONDS, PROBE_SEED + 100)
        q_completed, _, _ = _run_queueing(
            rate, SAT_SECONDS, shares, PROBE_SEED + 100
        )
        _assert_agree(
            tput, float(q_completed.mean()), THROUGHPUT_SAT_TOL,
            f"tps (capacity {capacity:.1f})",
        )
