"""System-wide configuration for the P-Store reproduction.

:class:`PStoreConfig` carries the empirically-discovered parameters of the
paper's model (Section 4.1):

``Q``
    target throughput of one server (txn/s) — the planner provisions so
    that predicted load never exceeds ``Q`` per server;
``Q_hat``
    maximum throughput of one server (txn/s) — beyond this the latency
    SLA is violated;
``D``
    shortest time (seconds) to migrate the whole database once with a
    single sender/receiver thread pair without disturbing the workload.

Defaults reproduce the values the paper discovers for the B2W workload on
H-Store with 6 partitions per node: saturation at 438 txn/s, ``Q̂ = 350``
(80%), ``Q = 285`` (65%), ``D = 4646 s`` (77 minutes, including the 10%
buffer) and a migration rate ``R = 244 kB/s`` over a 1106 MB database.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigurationError, FaultError


def canonical_json(obj) -> str:
    """Serialise ``obj`` to a canonical JSON string (sorted keys, no
    whitespace).  Identical values always yield identical strings, so the
    output is safe to hash for cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

#: Saturation throughput of a single 6-partition server (txn/s, Fig. 7).
SINGLE_NODE_SATURATION_TPS = 438.0

#: Fraction of saturation used for the maximum throughput Q̂ (Sec. 4.1).
Q_HAT_FRACTION = 0.80

#: Fraction of saturation used for the target throughput Q (Sec. 4.1).
Q_FRACTION = 0.65

#: Single-thread full-database migration time, seconds (Sec. 8.1).
DEFAULT_D_SECONDS = 4646.0

#: Database size used for D discovery (kB); 1106 MB of carts/checkouts.
DEFAULT_DATABASE_KB = 1106 * 1024

#: Calibrated safe migration rate R (kB/s) from Sec. 8.1.
DEFAULT_MIGRATION_RATE_KBPS = 244.0

#: SLA threshold from Sec. 8.2: 500 ms is the largest unnoticeable delay.
DEFAULT_SLA_LATENCY_MS = 500.0

#: Migration chunk size found safe in Sec. 8.1 (kB).
DEFAULT_CHUNK_KB = 1000.0


@dataclass(frozen=True)
class FaultConfig:
    """The ``faults`` section of :class:`PStoreConfig` (chaos testing).

    Fault injection is off by default; when off, no injector is built
    and every run is bit-identical to a fault-free one.  The retry
    fields are the policy that re-drives stalled or corrupted transfers
    (:meth:`should_retry`, :meth:`backoff_seconds`): a transfer that
    makes no progress for ``transfer_timeout_seconds`` is declared
    stalled, and retry ``k`` then waits ``base_backoff_seconds *
    backoff_multiplier**(k-1)`` scaled by ``1 ± jitter_fraction``.  All
    times are simulated seconds, so the same seed reproduces the same
    retry timeline exactly.
    """

    #: Inject the configured scenario's faults into runs.
    enabled: bool = False
    #: Path to a scenario JSON file (see docs/FAULTS.md); empty means
    #: the host supplies a scenario programmatically.
    scenario: str = ""
    #: Seed for the injector RNG (victim picks, retry jitter).
    seed: int = 0
    #: Give up re-driving a transfer after this many attempts.
    max_attempts: int = 5
    #: First retry backoff (simulated seconds).
    base_backoff_seconds: float = 2.0
    #: Growth factor between consecutive backoffs.
    backoff_multiplier: float = 2.0
    #: Backoff jitter as a fraction of the backoff (in [0, 1)).
    jitter_fraction: float = 0.1
    #: No-progress time before a transfer is declared stalled (seconds).
    transfer_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("faults.max_attempts must be >= 1")
        if self.base_backoff_seconds <= 0:
            raise ConfigurationError(
                "faults.base_backoff_seconds must be positive"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("faults.backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError(
                "faults.jitter_fraction must be in [0, 1)"
            )
        if self.transfer_timeout_seconds <= 0:
            raise ConfigurationError(
                "faults.transfer_timeout_seconds must be positive"
            )

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) is allowed."""
        return attempt <= self.max_attempts

    def backoff_seconds(self, attempt: int, rng=None) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered by one
        draw from the numpy generator ``rng`` when one is supplied."""
        if attempt < 1:
            raise FaultError("attempt counts from 1")
        base = self.base_backoff_seconds * self.backoff_multiplier ** (attempt - 1)
        if rng is None or self.jitter_fraction == 0.0:
            return base
        return base * (1.0 + self.jitter_fraction * rng.uniform(-1.0, 1.0))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultConfig":
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ConfigurationError(
                f"unknown faults config keys {sorted(unknown)}; valid "
                f"keys are {sorted(valid)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class PStoreConfig:
    """Immutable bundle of model parameters shared by planner and simulator.

    Parameters mirror the symbols of the paper (Appendix A).  All times are
    seconds; all rates are transactions per second unless noted.
    """

    #: Target average throughput per server, ``Q`` (txn/s).
    q: float = Q_FRACTION * SINGLE_NODE_SATURATION_TPS
    #: Maximum throughput per server, ``Q̂`` (txn/s).
    q_hat: float = Q_HAT_FRACTION * SINGLE_NODE_SATURATION_TPS
    #: Single-thread full-database migration time ``D`` (seconds).
    d_seconds: float = DEFAULT_D_SECONDS
    #: Logical data partitions per server, ``P``.
    partitions_per_node: int = 6
    #: Length of one planner time interval (seconds).  The paper plans at
    #: minute granularity for live runs and 5-minute granularity for the
    #: long simulations of Section 8.3.
    interval_seconds: float = 60.0
    #: Latency SLA threshold (milliseconds).
    sla_latency_ms: float = DEFAULT_SLA_LATENCY_MS
    #: Multiplier applied to load predictions to absorb prediction error
    #: ("we inflate all predictions by 15%", Sec. 8.2).
    prediction_inflation: float = 1.15
    #: Number of consecutive planning cycles that must agree before a
    #: scale-in move is executed (Sec. 6).
    scale_in_confirmations: int = 3
    #: Upper bound on machines the planner may allocate; 0 means unbounded
    #: (Z is then derived from the predicted peak as in Algorithm 1).
    max_machines: int = 0
    #: Database size in kB (used to convert chunk sizes to fractions).
    database_kb: float = DEFAULT_DATABASE_KB
    #: Migration chunk size (kB); Fig. 8 sweeps this.
    chunk_kb: float = DEFAULT_CHUNK_KB
    #: Forecast/planning horizon in intervals; 0 derives the paper's
    #: lower bound ``2 D / P`` (see PredictiveController).
    horizon_intervals: int = 0
    #: Fault injection / chaos-testing settings.
    faults: FaultConfig = FaultConfig()

    def __post_init__(self) -> None:
        if isinstance(self.faults, dict):
            # from_file/from_dict hand the section through as a mapping.
            object.__setattr__(
                self, "faults", FaultConfig.from_dict(self.faults)
            )
        if not isinstance(self.faults, FaultConfig):
            raise ConfigurationError(
                "faults must be a FaultConfig or a mapping"
            )
        if self.q <= 0 or self.q_hat <= 0:
            raise ConfigurationError("Q and Q_hat must be positive")
        if self.q > self.q_hat:
            raise ConfigurationError(
                f"target throughput Q={self.q} must not exceed Q_hat={self.q_hat}"
            )
        if self.d_seconds <= 0:
            raise ConfigurationError("D must be positive")
        if self.partitions_per_node < 1:
            raise ConfigurationError("partitions_per_node must be >= 1")
        if self.interval_seconds <= 0:
            raise ConfigurationError("interval_seconds must be positive")
        if self.sla_latency_ms <= 0:
            raise ConfigurationError("sla_latency_ms must be positive")
        if self.prediction_inflation <= 0:
            raise ConfigurationError("prediction_inflation must be positive")
        if self.scale_in_confirmations < 1:
            raise ConfigurationError("scale_in_confirmations must be >= 1")
        if self.max_machines < 0:
            raise ConfigurationError("max_machines must be >= 0 (0 = unbounded)")
        if self.database_kb <= 0:
            # database_kb / d_seconds is the migration rate R; a zero or
            # negative size would silently zero every transfer.
            raise ConfigurationError("database_kb must be positive")
        if self.chunk_kb <= 0:
            raise ConfigurationError("chunk_kb must be positive")
        if self.horizon_intervals < 0:
            raise ConfigurationError(
                "horizon_intervals must be >= 0 (0 = derive from 2D/P)"
            )

    @property
    def d_intervals(self) -> float:
        """``D`` expressed in planner time intervals (may be fractional)."""
        return self.d_seconds / self.interval_seconds

    @property
    def migration_rate_kbps(self) -> float:
        """Single-pair migration rate ``R`` implied by ``D`` (kB/s)."""
        return self.database_kb / self.d_seconds

    def with_q(self, q: float) -> "PStoreConfig":
        """Return a copy with a different target throughput ``Q``.

        Used by the capacity-cost sweeps of Figure 12, which vary ``Q`` to
        trade cost against headroom.
        """
        return dataclasses.replace(self, q=q)

    def with_interval(self, interval_seconds: float) -> "PStoreConfig":
        """Return a copy with a different planning interval."""
        return dataclasses.replace(self, interval_seconds=interval_seconds)

    def servers_for_load(self, load_tps: float) -> int:
        """Minimum whole servers so that per-server load stays below ``Q``."""
        import math

        if load_tps <= 0:
            return 1
        return max(1, math.ceil(load_tps / self.q))

    @classmethod
    def from_dict(cls, data: dict) -> "PStoreConfig":
        """Build a config from a plain mapping (e.g. parsed JSON).

        Unknown keys raise, so typos in config files fail loudly.
        """
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ConfigurationError(
                f"unknown config keys {sorted(unknown)}; valid keys are "
                f"{sorted(valid)}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "PStoreConfig":
        """Load a config from a JSON file.

        Example file::

            {"q": 285.0, "q_hat": 350.0, "d_seconds": 4646,
             "interval_seconds": 300, "prediction_inflation": 1.15}
        """
        return cls.from_dict(cls._read_file(path))

    @classmethod
    def from_sources(
        cls,
        file=None,
        data: "dict | None" = None,
        overrides: "dict | None" = None,
        base: "PStoreConfig | None" = None,
    ) -> "PStoreConfig":
        """Build a config by layering every supported source.

        This is *the* construction path for CLI commands, experiment
        defaults, and JSON scenario files alike.  Precedence, lowest to
        highest:

        1. the built-in defaults (or ``base`` when given);
        2. ``file`` — a JSON config file (see :meth:`from_file`);
        3. ``data`` — a plain mapping (e.g. an experiment's defaults);
        4. ``overrides`` — individual key overrides (e.g. CLI ``--set``).

        ``data`` and ``overrides`` accept dotted keys for the nested
        ``faults`` section (``"faults.seed"``).  Unknown keys raise
        :class:`ConfigurationError`, as everywhere else.
        """
        merged: dict = dict(base.to_dict()) if base is not None else {}
        for source in (
            cls._read_file(file) if file is not None else None,
            data,
            overrides,
        ):
            if not source:
                continue
            for key, value in source.items():
                cls._merge_key(merged, str(key), value)
        return cls.from_dict(merged)

    @staticmethod
    def _read_file(path) -> dict:
        import pathlib

        text = pathlib.Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {path} is not valid JSON: {exc}"
            )
        if not isinstance(data, dict):
            raise ConfigurationError("config file must contain a JSON object")
        return data

    @staticmethod
    def _merge_key(merged: dict, key: str, value) -> None:
        """Merge one possibly-dotted key into the accumulating mapping."""
        if "." in key:
            section, _, inner = key.partition(".")
            sub = merged.setdefault(section, {})
            if not isinstance(sub, dict):
                sub = dict(dataclasses.asdict(sub)) if dataclasses.is_dataclass(sub) else {}
                merged[section] = sub
            sub[inner] = value
        elif isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value

    def config_hash(self) -> str:
        """Hex digest identifying every *result-relevant* setting.

        The sweep result cache keys cells on this hash: two configs with
        the same hash produce bit-identical runs.  The ``faults`` section
        is included because injected faults change results.
        """
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()

    def to_dict(self) -> dict:
        """The config as a plain mapping (for serialisation/round trips)."""
        return dataclasses.asdict(self)


def default_config() -> PStoreConfig:
    """The configuration used throughout the paper's evaluation."""
    return PStoreConfig()


def parse_override_value(text: str):
    """Coerce a CLI override value: bool, int, float, then string."""
    if not isinstance(text, str):
        return text
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_set_overrides(pairs) -> dict:
    """Parse repeated CLI ``--set key=value`` arguments into a mapping.

    Keys may be dotted (``faults.seed=3``); values are coerced with
    :func:`parse_override_value`.  Malformed items raise
    :class:`ConfigurationError`.
    """
    overrides: dict = {}
    for item in pairs or ():
        key, sep, value = str(item).partition("=")
        if not sep or not key.strip():
            raise ConfigurationError(
                f"bad --set override {item!r} (expected key=value)"
            )
        overrides[key.strip()] = parse_override_value(value.strip())
    return overrides
