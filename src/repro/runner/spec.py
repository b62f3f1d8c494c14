"""Sweep cells: the unit of work of the parallel executor.

A :class:`RunSpec` names one independent cell of an experiment's
evaluation grid — (experiment, cell, strategy, seed, overrides).  Cells
are *hermetic*: everything a cell's result depends on must be derivable
from the spec plus the executor's base config, never from shared mutable
state.  That is what makes parallel execution bit-identical to serial
and what makes cached results trustworthy.

The cache key of a cell is a SHA-256 over the spec's canonical JSON, the
config's :meth:`~repro.config.PStoreConfig.config_hash`, a cache schema
version and :func:`code_fingerprint` — so editing a result-relevant
config knob dirties exactly the affected cells, and any edit to the
package's code, or a numpy of another series, dirties every cell.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Tuple

from ..config import canonical_json
from ..errors import ConfigurationError

#: Bump when the meaning of cached payloads changes (invalidates every
#: previously cached cell).
CACHE_SCHEMA_VERSION = 2


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the sorted ``(relative path, bytes)`` of every
    ``repro/**/*.py``, plus numpy's ``major.minor``: what a cached
    result's numbers depend on beyond its spec and config.  The whole
    package, not the cell's import closure — an unrelated edit only
    costs a cold run.  Computed once per process."""
    import numpy as np

    package = Path(__file__).resolve().parents[1]
    sha = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(package).as_posix()
        sha.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        sha.update(data)
    sha.update(".".join(np.__version__.split(".")[:2]).encode("utf-8"))
    return sha.hexdigest()


def jsonify(value):
    """Coerce ``value`` into plain JSON types (numpy scalars/arrays and
    tuples included), raising for anything non-serialisable."""
    import numpy as np

    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    raise ConfigurationError(
        f"value {value!r} of type {type(value).__name__} is not "
        "JSON-serialisable (sweep payloads must be plain data)"
    )


@dataclass(frozen=True)
class RunSpec:
    """One independent cell of an experiment sweep.

    Attributes
    ----------
    experiment:
        registry name (see :mod:`repro.experiments.registry`).
    cell:
        cell identifier within the experiment, e.g. ``"static-10"`` or
        ``"tau-60"``.
    strategy:
        :class:`~repro.elasticity.StrategySpec` string when the cell is
        strategy-shaped; empty otherwise.
    seed:
        workload/RNG seed.  Cells derive every RNG stream they use from
        this value (the PR-3 seed-stream discipline), never from process
        state, so results are independent of execution order.
    overrides:
        sorted ``(key, value)`` pairs of experiment options and config
        overrides, e.g. ``(("eval_days", 1),)``.
    """

    experiment: str
    cell: str
    strategy: str = ""
    seed: int = 0
    overrides: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.experiment or not self.cell:
            raise ConfigurationError(
                "RunSpec needs non-empty experiment and cell names"
            )
        pairs = self.overrides
        if isinstance(pairs, Mapping):
            pairs = tuple(pairs.items())
        normalized = tuple(
            sorted(
                ((str(k), jsonify(v)) for k, v in pairs),
                key=lambda kv: kv[0],
            )
        )
        object.__setattr__(self, "overrides", normalized)
        if self.strategy:
            # Validate eagerly so malformed grids fail at declaration
            # time, with the one typed StrategySpecError.
            from ..elasticity.base import StrategySpec

            StrategySpec.parse(self.strategy)

    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable cell id, e.g. ``fig09/p-store#21``."""
        return f"{self.experiment}/{self.cell}#{self.seed}"

    def options(self) -> dict:
        """The overrides as a plain dict."""
        return dict(self.overrides)

    def option(self, key: str, default=None):
        return dict(self.overrides).get(key, default)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "cell": self.cell,
            "strategy": self.strategy,
            "seed": self.seed,
            "overrides": [[k, v] for k, v in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        try:
            return cls(
                experiment=str(data["experiment"]),
                cell=str(data["cell"]),
                strategy=str(data.get("strategy", "")),
                seed=int(data.get("seed", 0)),
                overrides=tuple(
                    (k, v) for k, v in data.get("overrides", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad RunSpec mapping: {exc}") from None

    def canonical(self) -> str:
        """Canonical JSON of the spec (the hashed representation)."""
        return canonical_json(self.to_dict())

    def cache_key(self, config_hash: str) -> str:
        """Content address of this cell's result.

        Same spec + same result-relevant config + same code → same
        key, in any process on any machine; that is what the cache-key
        stability tests pin down.
        """
        material = canonical_json(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "spec": self.to_dict(),
                "config": config_hash,
                "code": code_fingerprint(),
            }
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()
