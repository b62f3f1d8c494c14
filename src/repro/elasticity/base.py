"""Provisioning-strategy interface shared by all simulators.

A strategy is consulted once per planning interval, *only while no
reconfiguration is in flight* (both P-Store's controller and the reactive
baseline wait for the current migration to finish before planning the
next, Sec. 6).  It sees the measured load history at planner-interval
granularity and the current cluster size and answers with a
:class:`~repro.decision.ScaleDecision`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

from ..decision import NO_ACTION, ScaleDecision  # noqa: F401 (re-exported)
from ..errors import SimulationError, StrategySpecError


#: Scalar parameter value of a strategy spec.
ParamValue = Union[int, float, str]

#: Parameter names accepted per strategy kind (``StrategySpec.parse``
#: rejects anything else with one typed error).
_SPEC_PARAMS = {
    "static": {"machines"},
    "simple": {"day", "night"},
    "reactive": {"patience"},
    "p-store": {"name", "emergency_rate"},
    "predictive": {"predictor", "name", "emergency_rate"},
}

#: Parameters that must be present after parsing.
_SPEC_REQUIRED = {
    "static": ("machines",),
    "simple": ("day", "night"),
    "reactive": (),
    "p-store": (),
    "predictive": (),
}


def _coerce_param(text: str) -> ParamValue:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class StrategySpec:
    """Declarative description of a provisioning strategy.

    The one spec grammar shared by the CLI, the experiment cell grids,
    and chaos/fault scenarios (replacing the CLI's old private string
    parser).  String forms::

        p-store                      # SPAR-driven predictive controller
        p-store:emergency_rate=8     # ... boosting infeasible-plan moves
        predictive:mssa              # same controller, any zoo predictor
        predictive                   # shorthand for predictive:spar
        reactive                     # E-Store-style reactive baseline
        reactive:patience=10         # ... scaling in after 10 intervals
        static:6                     # fixed 6-machine allocation
        simple:7/3                   # clock-driven day/night allocation

    After the ``:`` a kind-specific positional shorthand (``static:<N>``,
    ``simple:<day>/<night>``, ``predictive:<predictor>``) and/or
    comma-separated ``key=value`` pairs from :data:`_SPEC_PARAMS` are
    accepted.  ``predictive`` predictor slugs resolve through the
    registry in :mod:`repro.prediction.registry`; unknown slugs are
    rejected at parse time so sweep grids fail fast.  Malformed specs
    raise :class:`StrategySpecError` — the single typed error for every
    consumer.

    Instances are frozen and hashable; :meth:`canonical` returns a
    normalised string (sorted parameters) suitable for cache keys.
    """

    kind: str
    params: Tuple[Tuple[str, ParamValue], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _SPEC_PARAMS:
            raise StrategySpecError(
                f"unknown strategy kind {self.kind!r} (expected one of "
                f"{sorted(_SPEC_PARAMS)})"
            )
        normalized = tuple(sorted((str(k), v) for k, v in self.params))
        object.__setattr__(self, "params", normalized)
        allowed = _SPEC_PARAMS[self.kind]
        for key, value in normalized:
            if key not in allowed:
                raise StrategySpecError(
                    f"unknown parameter {key!r} for strategy "
                    f"{self.kind!r} (allowed: {sorted(allowed)})"
                )
            if not isinstance(value, (int, float, str)):
                raise StrategySpecError(
                    f"parameter {key}={value!r} must be an int, float, or "
                    "string"
                )
        missing = [
            k for k in _SPEC_REQUIRED[self.kind] if k not in dict(normalized)
        ]
        if missing:
            raise StrategySpecError(
                f"strategy {self.kind!r} is missing required parameter(s) "
                f"{missing}"
            )
        if self.kind == "predictive":
            from ..prediction.registry import registered_predictors

            slug = dict(normalized).get("predictor", "spar")
            if str(slug) not in registered_predictors():
                raise StrategySpecError(
                    f"unknown predictor {slug!r} in predictive strategy "
                    f"(registered: {registered_predictors()})"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse a spec string (see the class docstring for the grammar)."""
        if not isinstance(text, str) or not text.strip():
            raise StrategySpecError("strategy spec must be a non-empty string")
        kind, _, arg = text.strip().partition(":")
        if kind not in _SPEC_PARAMS:
            raise StrategySpecError(
                f"unknown strategy spec {text!r} (expected p-store, "
                "predictive:<predictor>, reactive, static:<N>, or "
                "simple:<day>/<night>)"
            )
        params: dict = {}
        positional: list = []
        if arg:
            for part in arg.split(","):
                part = part.strip()
                if not part:
                    raise StrategySpecError(
                        f"empty parameter in strategy spec {text!r}"
                    )
                if "=" in part:
                    key, _, raw = part.partition("=")
                    params[key.strip()] = _coerce_param(raw.strip())
                else:
                    positional.append(part)
        if positional:
            params.update(cls._positional_params(kind, positional, text))
        return cls(kind=kind, params=tuple(params.items()))

    @staticmethod
    def _positional_params(kind: str, positional: list, text: str) -> dict:
        if kind == "static":
            if len(positional) != 1:
                raise StrategySpecError(
                    f"bad strategy spec {text!r} (expected static:<N>)"
                )
            try:
                return {"machines": int(positional[0])}
            except ValueError:
                raise StrategySpecError(
                    f"bad machine count in strategy spec {text!r} "
                    "(expected static:<N>)"
                ) from None
        if kind == "simple":
            try:
                day, night = positional[0].split("/")
                extra = {"day": int(day), "night": int(night)}
            except ValueError:
                raise StrategySpecError(
                    f"bad strategy spec {text!r} "
                    "(expected simple:<day>/<night>)"
                ) from None
            if len(positional) != 1:
                raise StrategySpecError(
                    f"bad strategy spec {text!r} "
                    "(expected simple:<day>/<night>)"
                )
            return extra
        if kind == "predictive":
            if len(positional) != 1:
                raise StrategySpecError(
                    f"bad strategy spec {text!r} "
                    "(expected predictive:<predictor>)"
                )
            return {"predictor": str(positional[0])}
        raise StrategySpecError(
            f"strategy {kind!r} takes only key=value parameters, got "
            f"{positional} in {text!r}"
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "StrategySpec":
        """Build a spec from a mapping, e.g. ``{"kind": "static",
        "machines": 6}`` (scenario files, sweep grids)."""
        if not isinstance(data, Mapping):
            raise StrategySpecError("strategy spec must be a mapping")
        if "kind" not in data:
            raise StrategySpecError("strategy spec mapping needs a 'kind' key")
        params = {k: v for k, v in data.items() if k != "kind"}
        return cls(kind=str(data["kind"]), params=tuple(params.items()))

    # ------------------------------------------------------------------
    # Introspection / serialisation
    # ------------------------------------------------------------------

    def param(self, key: str, default: ParamValue = None):
        return dict(self.params).get(key, default)

    @property
    def needs_predictor(self) -> bool:
        """True for specs materialised around a fitted predictor."""
        return self.kind in ("p-store", "predictive")

    @property
    def predictor_name(self) -> Optional[str]:
        """Registry slug of the forecaster this spec asks for.

        ``p-store`` is pinned to SPAR (the paper's configuration);
        ``predictive`` defaults to SPAR too (``predictive`` ≡
        ``predictive:spar``) but accepts any registered slug.  ``None``
        for non-predictive kinds.
        """
        if self.kind == "p-store":
            return "spar"
        if self.kind == "predictive":
            return str(self.param("predictor", "spar"))
        return None

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.params)}

    def canonical(self) -> str:
        """Normalised string form (sorted parameters); parse-stable."""
        if not self.params:
            return self.kind
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{rendered}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical()

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def build(
        self,
        config,
        *,
        predictor=None,
        slots_per_day: Optional[int] = None,
        telemetry=None,
    ) -> "ProvisioningStrategy":
        """Materialise the strategy this spec describes.

        ``predictor`` (fitted) is required for ``p-store`` specs;
        ``slots_per_day`` is required for ``simple`` specs.  ``telemetry``
        is forwarded to strategies that accept it.
        """
        from .predictive import PStoreStrategy
        from .reactive import ReactiveStrategy
        from .simple import SimpleStrategy
        from .static import StaticStrategy

        params = dict(self.params)
        if self.kind == "static":
            return StaticStrategy(int(params["machines"]))
        if self.kind == "simple":
            if slots_per_day is None:
                raise StrategySpecError(
                    "simple strategy needs the slots_per_day build argument"
                )
            return SimpleStrategy(
                day_machines=int(params["day"]),
                night_machines=int(params["night"]),
                slots_per_day=int(slots_per_day),
            )
        if self.kind == "reactive":
            kwargs = {}
            if "patience" in params:
                kwargs["scale_in_patience"] = int(params["patience"])
            return ReactiveStrategy(config, **kwargs)
        # p-store / predictive:<name> — the same predictive controller;
        # the caller supplies the fitted predictor (built via
        # `predictor_name` and the registry for predictive specs).
        if predictor is None:
            raise StrategySpecError(
                f"{self.kind} strategy needs a fitted predictor (pass one "
                "to StrategySpec.build)"
            )
        kwargs = {}
        if "emergency_rate" in params:
            kwargs["emergency_rate_multiplier"] = float(params["emergency_rate"])
        default_name = "p-store"
        if self.kind == "predictive":
            default_name = f"p-store[{self.predictor_name}]"
        return PStoreStrategy(
            config,
            predictor,
            name=str(params.get("name", default_name)),
            telemetry=telemetry,
            **kwargs,
        )


class ProvisioningStrategy(abc.ABC):
    """Base class for allocation strategies (Figs. 9, 12, 13)."""

    #: Short name used in reports ("static-10", "reactive", "p-store").
    name: str = "strategy"

    def reset(self, initial_machines: int, known=None, injector=None) -> None:
        """Called once before a simulation run starts.  ``known`` is the
        whole load series the run will show :meth:`decide` prefixes of,
        when the simulator knows it up front (a capacity run: the seeded
        history plus the trace); ``None`` when it is measured as the run
        goes.  ``injector`` is the run's fault injector (None: no
        faults), whose forecast drift a predictive strategy applies."""
        if initial_machines < 1:
            raise SimulationError("initial_machines must be >= 1")

    @abc.abstractmethod
    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        """Choose an action for planner interval ``slot``.

        ``history_tps`` holds the measured aggregate load (txn/s) for
        every interval up to and including the current one.
        """

    def decide_run(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
        count: int,
    ) -> Tuple[int, ScaleDecision]:
        """Decide the intervals ``slot`` .. ``slot + count - 1`` at
        ``current_machines`` in order, stopping at the first decision
        that acts; ``history_tps`` is ``slot``'s, and the later
        intervals' histories extend it by the series :meth:`reset` was
        told is ``known``.  Returns the last interval decided as an
        offset from ``slot``, and its decision: the intervals before it
        did not act.  By default the block is one :meth:`decide`."""
        return 0, self.decide(slot, history_tps, current_machines)
