"""PStoreService: the end-to-end system of Section 6 on a live cluster.

The paper's "Putting It All Together" wires a Predictive Controller to
H-Store's monitoring calls and Squall's migration engine.  This module
is that glue for the row-level substrate: feed it transactions and
advance simulated time, and it

* measures the aggregate load per planner interval (:class:`LoadMonitor`);
* streams measurements into an (optionally online/active-learning)
  predictor;
* runs the predict -> plan cycle whenever no migration is in flight,
  executing the first move of each plan (receding horizon);
* drives the Squall-like migrator so bucket moves commit round by round;
* optionally applies E-Store-style hot-bucket rebalancing between
  reconfigurations (the paper's proposed future work).
"""

from __future__ import annotations

from typing import Optional

from ..config import PStoreConfig
from ..elasticity.predictive import PStoreStrategy
from ..errors import SimulationError
from ..faults.injector import injector_from_config
from ..hstore.cluster import Cluster
from ..hstore.engine import TransactionExecutor
from ..hstore.monitor import LoadMonitor
from ..hstore.txn import Transaction, TxnResult
from ..prediction.base import Predictor
from ..squall.migrator import ClusterMigrator
from ..squall.rebalance import (
    apply_rebalance,
    hot_bucket_report,
    make_skew_rebalance_plan,
)
from ..telemetry import get_telemetry
from ..telemetry.causal import record_interval


class PStoreService:
    """A self-driving elastic database node manager.

    Parameters
    ----------
    cluster:
        the row-level cluster to manage.
    config:
        model parameters; ``interval_seconds`` sets the planning cadence.
    predictor:
        any fitted predictor, or an
        :class:`~repro.prediction.online.OnlinePredictor` that will
        learn from the measured load stream.
    max_machines:
        optional hard cap on cluster size, at least 1 (its migrator's pool).
    skew_rebalancing:
        enable hot-bucket rebalancing between reconfigurations.
    skew_threshold_share:
        the hottest partition's load share that triggers a rebalance.
    injector:
        optional :class:`~repro.faults.FaultInjector` to run this
        service under chaos; defaults to the one described by
        ``config.faults`` (None when fault injection is disabled, which
        keeps every code path identical to a fault-free run).
    """

    def __init__(
        self,
        cluster: Cluster,
        config: PStoreConfig,
        predictor: Predictor,
        max_machines: Optional[int] = None,
        chunk_kb: Optional[float] = None,
        skew_rebalancing: bool = False,
        skew_threshold_share: float = 0.25,
        telemetry=None,
        injector=None,
    ):
        self.cluster = cluster
        self.config = config
        self.predictor = predictor
        self.skew_rebalancing = skew_rebalancing
        self.skew_threshold_share = skew_threshold_share
        self._telemetry = telemetry if telemetry is not None else get_telemetry()

        tel = self._telemetry
        self._injector = injector or injector_from_config(config, tel)
        self.executor = TransactionExecutor(cluster, telemetry=tel)
        self.monitor = LoadMonitor(config.interval_seconds, telemetry=tel)
        self.migrator = ClusterMigrator(
            cluster, config, chunk_kb=chunk_kb, telemetry=tel,
            injector=self._injector,
        )
        self.migrator.allocation.pool = max_machines
        self._strategy = PStoreStrategy(config, predictor, telemetry=tel)
        self._strategy.reset(cluster.n_nodes, injector=self._injector)
        self._now = 0.0

    @property
    def injector(self):
        """The attached fault injector (None on fault-free runs)."""
        return self._injector

    def _record_event(
        self, kind: str, detail: str, parent: Optional[str] = None, **fields
    ) -> None:
        """File a provisioning action (``scale-out`` | ``scale-in`` |
        ``emergency`` | ``rebalance`` | ...) as a ``service.<kind>``
        chronicle record under its causal parent."""
        tel = self._telemetry
        if not tel.enabled:
            return
        tel.chronicle.record(
            f"service.{kind}", time=self._now, parent=parent,
            detail=detail, **fields,
        )
        tel.metrics.counter("service.events", kind=kind).inc()

    # ------------------------------------------------------------------
    # Transaction path
    # ------------------------------------------------------------------

    def execute(self, txn: Transaction) -> TxnResult:
        """Execute one transaction and record it for load monitoring."""
        if txn.submit_time < self._now:
            txn.submit_time = self._now
        result = self.executor.execute(txn)
        self.monitor.record(txn.submit_time)
        return result

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def machines(self) -> int:
        return self.cluster.n_nodes

    @property
    def migrating(self) -> bool:
        return self.migrator.migrating

    def advance_time(self, dt: float) -> None:
        """Move the service clock forward, planning and migrating.

        Called by the host once per (sub-)interval; ``dt`` need not align
        with the planner interval.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        self._now += dt

        if self._injector is not None:
            self._injector.advance(self._now)
            self._handle_crashes()

        if self.migrator.migrating:
            if self.migrator.advance(dt):
                self._record_event(
                    "move-complete",
                    f"now at {self.cluster.n_nodes} machines",
                    parent=self.migrator.last_outcome_id,
                    machines=self.cluster.n_nodes,
                )

        closed = self.monitor.record(self._now, count=0.0)
        new_rates = self.monitor.history_tps()[-closed:] if closed else ()
        tel = self._telemetry
        if closed and tel.enabled:
            tel.metrics.gauge("service.machines").set(self.cluster.n_nodes)
            interval = self.config.interval_seconds
            first = self.monitor.completed_intervals - closed
            for slot, rate in enumerate(new_rates, first):
                record_interval(
                    tel.tracer, slot * interval, (slot + 1) * interval,
                    slot, float(rate), self.cluster.n_nodes, self.migrating,
                )
        for rate in new_rates:
            self.predictor.observe(float(rate))

        if closed and not self.migrator.migrating:
            self._plan()
            self.migrator.allocation.confirm(self._now)
            if self.skew_rebalancing:
                self._maybe_rebalance()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _handle_crashes(self) -> None:
        """React to crash faults: abort any in-flight move and re-home
        the victim's buckets onto the survivors."""
        summaries = {}

        def abort_move(victim: int) -> None:
            if not self.migrator.migrating:
                return
            self.migrator.sim_time = max(self.migrator.sim_time, self._now)
            self.migrator.abort(reason=f"node {victim} crashed")
            self._record_event(
                "migration-aborted",
                f"node {victim} crashed mid-move",
                parent=self.migrator.last_outcome_id,
                node=victim,
            )

        def drop_node(victim: int) -> int:
            summaries[victim] = self.migrator.fail_node(victim)
            return summaries[victim]["survivors"]

        for victim, removed_id in self._injector.handle_crashes(
            self._now,
            lambda: [n.node_id for n in self.cluster.nodes],
            abort_move,
            drop_node,
        ):
            summary = summaries[victim]
            self._record_event(
                "node-down",
                f"node {victim} crashed; {summary['buckets_moved']} buckets "
                f"re-homed onto {summary['survivors']} survivors",
                parent=removed_id,
                node=victim,
                buckets_moved=summary["buckets_moved"],
                kb_recovered=summary["kb_recovered"],
                survivors=summary["survivors"],
            )

    def _plan(self) -> None:
        history = self.monitor.history_tps()
        if history.size == 0:
            return
        slot = self.monitor.completed_intervals - 1
        before = self.cluster.n_nodes
        decision = self._strategy.decide(slot, history, before)
        target = self.migrator.allocation.target(decision)
        if target is None:
            return
        self.migrator.sim_time = self._now
        self.migrator.start_move(target, decision)
        kind = (
            "emergency"
            if decision.emergency
            else ("scale-out" if target > before else "scale-in")
        )
        self._record_event(
            kind,
            f"{decision.reason} -> {target} machines",
            parent=decision.record_id,
            reason=decision.reason,
            before=before,
            target=target,
            rate_multiplier=decision.rate_multiplier,
        )

    def _maybe_rebalance(self) -> None:
        report = hot_bucket_report(self.cluster)
        fair = 1.0 / max(1, len(self.cluster.partition_ids))
        if report.hottest_share <= max(self.skew_threshold_share, 2 * fair):
            return
        plan = make_skew_rebalance_plan(self.cluster)
        if not plan.moves:
            return
        moved_kb = apply_rebalance(self.cluster, plan)
        self.cluster.reset_bucket_accesses()
        self._record_event(
            "rebalance",
            f"moved {len(plan.moves)} hot buckets ({moved_kb:.0f} kB)",
            n_moves=len(plan.moves),
            moved_kb=moved_kb,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> str:
        """One-line status for logs/UIs."""
        state = "migrating" if self.migrating else "steady"
        return (
            f"t={self._now:,.0f}s machines={self.machines} {state} "
            f"intervals={self.monitor.completed_intervals}"
        )
