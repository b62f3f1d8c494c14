"""Registry of the paper's evaluation experiments.

One :class:`ExperimentDef` per evaluation artefact, loaded lazily so
``pstore experiment --list`` and sweep-grid construction never import
numpy-heavy experiment modules they don't need.  Every entry names:

* ``runner`` — the module's ``run_*`` function (the serial, rich-result
  entry point);
* ``grid`` — a function returning the experiment's cell grid as
  :class:`~repro.runner.RunSpec` objects (every experiment declares its
  grid here instead of looping inline);
* ``run_cell`` — executes ONE grid cell hermetically and returns a
  JSON-serialisable payload (what the sweep executor caches);
* ``summarize`` — renders the runner's result for the CLI;
* ``claims`` — for a paper artefact, ``claims(result) -> list[dict]``:
  what the paper says next to what the runner measured, one row per
  claim (``metric``, ``paper``, ``measured``, ``holds`` — True / False,
  or None for a purely informative row — and an optional ``note``).
  ``render`` appends them to the summary, ``pstore paper`` regenerates
  EXPERIMENTS.md from that, so a claim is stated in exactly one place.

A grid may reference *another* experiment's cells (``tab02`` and
``fig10`` reuse ``fig09``'s grid), in which case the cells are executed
— and cached — under the owning experiment's name, so derived tables
share the simulation cache with the figure they aggregate.
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
    runner: str = ""
    grid: str = ""
    run_cell: str = ""
    summarize: str = ""
    claims: str = ""
    #: Heavy experiments take minutes at default scale; the CLI warns.
    heavy: bool = False
    #: Name of the module's ``tensor_cell(spec, config)`` builder, when
    #: the experiment's cells can run on the cross-cell tensor backend
    #: (returns a :class:`~repro.sim.tensor.TensorProgram`).
    tensor_cell: str = ""

    def _attr(self, attr: str):
        return getattr(importlib.import_module(self.module), attr)

    @property
    def has_grid(self) -> bool:
        return bool(self.grid)

    def run(self, **kwargs):
        """Execute the serial runner, returning its rich result object."""
        if not self.runner:
            raise UnknownExperimentError(
                f"experiment {self.name!r} has no serial runner"
            )
        return self._attr(self.runner)(**kwargs)

    def make_grid(self, **options) -> list:
        """The experiment's cell grid (list of ``RunSpec``)."""
        if not self.grid:
            raise UnknownExperimentError(
                f"experiment {self.name!r} declares no cell grid"
            )
        return self._attr(self.grid)(**options)

    def cell_runner(self) -> Callable:
        """The ``run_cell(spec, config)`` callable for this experiment."""
        if not self.run_cell:
            raise UnknownExperimentError(
                f"experiment {self.name!r} has no cell runner"
            )
        return self._attr(self.run_cell)

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
        """The artefact's report: the runner's summary, then its claims
        as a paper-vs-measured block."""
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

for _defn in (
    ExperimentDef(
        "fig01", "Fig. 1 — B2W diurnal load shape", f"{_P}.fig01",
        runner="run_figure1", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig02", "Fig. 2 — ideal vs step allocation overhead", f"{_P}.fig02",
        runner="run_figure2", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig03", "Fig. 3 — planner goal: capacity covers demand",
        f"{_P}.fig03", runner="run_figure3", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig04", "Fig. 4 — effective capacity during moves", f"{_P}.fig04",
        runner="run_figure4", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig05", "Fig. 5 — SPAR accuracy on B2W (MRE vs tau)", f"{_P}.fig05",
        runner="run_figure5", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig06", "Fig. 6 — SPAR on Wikipedia page views", f"{_P}.fig06",
        runner="run_figure6", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig07", "Fig. 7 — single-node saturation (Q, Q-hat)", f"{_P}.fig07",
        runner="run_figure7", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig08", "Fig. 8 — migration chunk size vs latency", f"{_P}.fig08",
        runner="run_figure8", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "fig09", "Fig. 9 — elasticity approaches on the benchmark",
        f"{_P}.fig09", runner="run_figure9", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
        heavy=True, tensor_cell="tensor_cell",
    ),
    ExperimentDef(
        "fig10", "Fig. 10 — tail-latency CDFs (reuses fig09 cells)",
        f"{_P}.fig10", runner="run_figure10", grid="grid",
        summarize="summarize", claims="claims", heavy=True,
    ),
    ExperimentDef(
        "fig11", "Fig. 11 — unexpected spike, rate R vs R x 8",
        f"{_P}.fig11", runner="run_figure11", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
        heavy=True, tensor_cell="tensor_cell",
    ),
    ExperimentDef(
        "fig12", "Fig. 12 — capacity-cost curves over the season",
        f"{_P}.fig12", runner="run_figure12", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
        heavy=True,
    ),
    ExperimentDef(
        "fig13", "Fig. 13 — effective capacity around Black Friday",
        f"{_P}.fig13", runner="run_figure13", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
        heavy=True,
    ),
    ExperimentDef(
        "tab01", "Table 1 — the 3 -> 14 migration schedule", f"{_P}.tab01",
        runner="run_table1", grid="grid", run_cell="run_cell",
        summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "tab02", "Table 2 — SLA violations (reuses fig09 cells)",
        f"{_P}.tab02", runner="run_table2", grid="grid",
        summarize="summarize", claims="claims", heavy=True,
    ),
    ExperimentDef(
        "sec5", "Sec. 5 — SPAR vs ARMA vs AR model comparison",
        f"{_P}.sec5_models", runner="run_model_comparison", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
    ),
    ExperimentDef(
        "ablations", "Design ablations (eff-cap, schedule, debounce, "
        "inflation)", f"{_P}.ablations", runner="run_ablations",
        grid="grid", run_cell="run_cell", claims="claims",
    ),
    ExperimentDef(
        "chaos", "Chaos recovery — SLA impact and MTTR under faults",
        f"{_P}.chaos", runner="run_chaos", grid="grid",
        run_cell="run_cell", summarize="summarize", claims="claims",
        heavy=True,
    ),
    ExperimentDef(
        "serve", "Serve smoke — online control plane on a drifting replay",
        f"{_P}.serve", runner="run_serve_smoke", grid="grid",
        run_cell="run_cell", summarize="summarize",
    ),
    ExperimentDef(
        "shootout", "Predictor zoo vs drift workloads (accuracy + SLA)",
        f"{_P}.shootout", runner="run_shootout", grid="grid",
        run_cell="run_cell", summarize="summarize",
    ),
    ExperimentDef(
        "smoke", "Fast capacity-sim grid (sweep smoke/CI)", f"{_P}.smoke",
        runner="run_smoke", grid="grid", run_cell="run_cell",
        summarize="summarize",
    ),
    ExperimentDef(
        "tensmoke", "Fast elastic-sim grid (tensor backend smoke/bench)",
        f"{_P}.tensmoke", runner="run_tensmoke", grid="grid",
        run_cell="run_cell", summarize="summarize",
        tensor_cell="tensor_cell",
    ),
):
    register(_defn)
