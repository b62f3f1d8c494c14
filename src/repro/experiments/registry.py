"""Registry of the paper's evaluation experiments.

One :class:`ExperimentDef` per evaluation artefact, loaded lazily so
``pstore experiment`` (the listing) and sweep-grid construction never
import numpy-heavy experiment modules they don't need.  Every module
defines:

* ``grid(**options)`` — the experiment's cells as
  :class:`~repro.runner.RunSpec` objects;
* ``run_cell(spec, config)`` — executes ONE cell hermetically and
  returns a JSON-serialisable payload (what the sweep executor caches);
* ``fold(payloads)`` — builds the artefact's typed result from one
  grid's ``{label: payload}``;

and, when declared here, ``summarize(result)`` (its text for the CLI)
and ``claims(result) -> list[dict]``: what the paper says next to what
was measured, one row per claim (``metric``, ``paper``, ``measured``,
``holds`` — True / False, or None for a purely informative row — and an
optional ``note``).  ``render`` appends them to the summary and ``pstore
paper`` regenerates EXPERIMENTS.md from that, so a claim is stated in
exactly one place.  ``ExperimentDef.run`` is the one way to a result:
the grid, through :func:`~repro.runner.run_sweep`, folded.

A grid may reference *another* experiment's cells (``tab02`` and
``fig10`` reuse ``fig09``'s grid, and have no ``run_cell`` of their
own), in which case the cells are executed — and cached — under the
owning experiment's name, so derived tables fold the very payloads of
the figure they aggregate.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, List

from ..errors import UnknownExperimentError


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment (attributes resolved lazily)."""

    name: str
    title: str
    module: str
    summarize: str = ""
    claims: str = ""
    #: Heavy experiments simulate days to months at default scale (the
    #: listing says so).
    heavy: bool = False
    #: Name of the module's ``tensor_cell(spec, config)`` builder, when
    #: the experiment's cells can run on the cross-cell tensor backend
    #: (returns a :class:`~repro.sim.tensor.TensorProgram`).
    tensor_cell: str = ""

    def _attr(self, attr: str):
        try:
            return getattr(importlib.import_module(self.module), attr)
        except AttributeError:
            raise UnknownExperimentError(
                f"experiment {self.name!r} has no {attr}"
            ) from None

    def make_grid(self, **options) -> list:
        """The experiment's cell grid (list of ``RunSpec``)."""
        return self._attr("grid")(**options)

    def cell_runner(self) -> Callable:
        """The ``run_cell(spec, config)`` callable for this experiment."""
        return self._attr("run_cell")

    def fold(self, payloads):
        """The typed result of one grid's ``{label: payload}``."""
        return self._attr("fold")(payloads)

    def run(self, **grid_options):
        """Run the grid through the sweep executor and fold its payloads."""
        from ..runner import run_sweep

        return self.fold(run_sweep(self.make_grid(**grid_options)).payloads)

    @property
    def has_tensor_cell(self) -> bool:
        """Whether cells can run on the cross-cell tensor backend."""
        return bool(self.tensor_cell)

    def tensor_cell_builder(self) -> "Callable | None":
        """The ``tensor_cell(spec, config)`` builder, or None."""
        if not self.tensor_cell:
            return None
        return self._attr(self.tensor_cell)

    def render(self, result) -> str:
        """The artefact's report: its summary, then its claims as a
        paper-vs-measured block."""
        parts = []
        if self.summarize:
            parts.append(self._attr(self.summarize)(result))
        if self.claims:
            from ..analysis.report import paper_vs_measured

            parts.append(paper_vs_measured(
                self._attr(self.claims)(result), title=self.title
            ))
        return "\n\n".join(parts) or str(result)


_REGISTRY: "dict[str, ExperimentDef]" = {}


def register(defn: ExperimentDef) -> ExperimentDef:
    _REGISTRY[defn.name] = defn
    return defn


def get_experiment(name: str) -> ExperimentDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; known experiments: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def list_experiments() -> List[ExperimentDef]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Declarations (kept central so discovery needs no heavy imports).
# ----------------------------------------------------------------------

_P = "repro.experiments"
_PAPER = {"summarize": "summarize", "claims": "claims"}

for _defn in (
    ExperimentDef(
        "fig01", "Fig. 1 — B2W diurnal load shape", f"{_P}.fig01", **_PAPER,
    ),
    ExperimentDef(
        "fig02", "Fig. 2 — ideal vs step allocation overhead", f"{_P}.fig02",
        **_PAPER,
    ),
    ExperimentDef(
        "fig03", "Fig. 3 — planner goal: capacity covers demand",
        f"{_P}.fig03", **_PAPER,
    ),
    ExperimentDef(
        "fig04", "Fig. 4 — effective capacity during moves", f"{_P}.fig04",
        **_PAPER,
    ),
    ExperimentDef(
        "fig05", "Fig. 5 — SPAR accuracy on B2W (MRE vs tau)", f"{_P}.fig05",
        **_PAPER,
    ),
    ExperimentDef(
        "fig06", "Fig. 6 — SPAR on Wikipedia page views", f"{_P}.fig06",
        **_PAPER,
    ),
    ExperimentDef(
        "fig07", "Fig. 7 — single-node saturation (Q, Q-hat)", f"{_P}.fig07",
        **_PAPER,
    ),
    ExperimentDef(
        "fig08", "Fig. 8 — migration chunk size vs latency", f"{_P}.fig08",
        **_PAPER,
    ),
    ExperimentDef(
        "fig09", "Fig. 9 — elasticity approaches on the benchmark",
        f"{_P}.fig09", **_PAPER, heavy=True, tensor_cell="tensor_cell",
    ),
    ExperimentDef(
        "fig10", "Fig. 10 — tail-latency CDFs (reuses fig09 cells)",
        f"{_P}.fig10", **_PAPER, heavy=True,
    ),
    ExperimentDef(
        "fig11", "Fig. 11 — unexpected spike, rate R vs R x 8",
        f"{_P}.fig11", **_PAPER, heavy=True, tensor_cell="tensor_cell",
    ),
    ExperimentDef(
        "fig12", "Fig. 12 — capacity-cost curves over the season",
        f"{_P}.fig12", **_PAPER, heavy=True,
    ),
    ExperimentDef(
        "fig13", "Fig. 13 — effective capacity around Black Friday",
        f"{_P}.fig13", **_PAPER, heavy=True,
    ),
    ExperimentDef(
        "tab01", "Table 1 — the 3 -> 14 migration schedule", f"{_P}.tab01",
        **_PAPER,
    ),
    ExperimentDef(
        "tab02", "Table 2 — SLA violations (reuses fig09 cells)",
        f"{_P}.tab02", **_PAPER, heavy=True,
    ),
    ExperimentDef(
        "sec5", "Sec. 5 — SPAR vs ARMA vs AR model comparison",
        f"{_P}.sec5_models", **_PAPER,
    ),
    ExperimentDef(
        "ablations", "Design ablations (eff-cap, schedule, debounce, "
        "inflation)", f"{_P}.ablations", claims="claims",
    ),
    ExperimentDef(
        "chaos", "Chaos recovery — SLA impact and MTTR under faults",
        f"{_P}.chaos", **_PAPER, heavy=True,
    ),
    ExperimentDef(
        "serve", "Serve smoke — online control plane on a drifting replay",
        f"{_P}.serve", summarize="summarize",
    ),
    ExperimentDef(
        "shootout", "Predictor zoo vs drift workloads (accuracy + SLA)",
        f"{_P}.shootout", summarize="summarize",
    ),
    ExperimentDef(
        "smoke", "Fast capacity-sim grid (sweep smoke/CI)", f"{_P}.smoke",
        summarize="summarize",
    ),
    ExperimentDef(
        "tensmoke", "Fast elastic-sim grid (tensor backend smoke/bench)",
        f"{_P}.tensmoke", summarize="summarize", tensor_cell="tensor_cell",
    ),
):
    register(_defn)
