"""One module per evaluation artefact of the paper.

A module is the one definition of its artefact.  ``grid()`` returns the
experiment's independent cells as :class:`~repro.runner.RunSpec`
objects and ``run_cell(spec, config)`` executes one of them
hermetically; the ``run_*`` function is the serial runner — a fold over
that same grid (at the paper's scale by default) into a typed result
object; ``summarize(result)`` renders it and ``claims(result)`` states
what the paper reports next to what was measured, row by row, with
whether each claim holds.  The registry in
:mod:`repro.experiments.registry` enumerates all of them for ``pstore
experiment``, ``pstore sweep`` and ``pstore paper`` (which regenerates
the blocks of EXPERIMENTS.md from ``render``) without importing the
heavy modules up front.
"""

from .ablations import (
    run_ablations,
    run_debounce_ablation,
    run_effcap_ablation,
    run_inflation_ablation,
    run_schedule_ablation,
)
from .chaos import ChaosResult, ChaosRun, run_chaos
from .common import BenchmarkSetup, benchmark_setup, interval_rates
from .fig01 import Figure1Result, run_figure1
from .fig02 import Figure2Result, run_figure2
from .fig03 import Figure3Result, run_figure3
from .fig04 import FIGURE4_CASES, Figure4Result, run_figure4
from .fig05 import FIGURE5_TAUS, Figure5Result, run_figure5
from .fig06 import FIGURE6_TAUS, Figure6Result, run_figure6
from .fig07 import Figure7Result, run_figure7
from .fig08 import FIGURE8_CHUNKS, Figure8Result, run_figure8
from .fig09 import Figure9Result, run_figure9
from .fig10 import Figure10Result, run_figure10
from .fig11 import Figure11Result, run_figure11
from .fig12 import Figure12Result, run_figure12, season_setup
from .fig13 import Figure13Result, run_figure13
from .registry import (
    ExperimentDef,
    get_experiment,
    list_experiments,
)
from .sec5_models import ModelComparisonResult, run_model_comparison
from .smoke import SmokeResult, run_smoke
from .tab01 import Table1Result, run_table1
from .tab02 import PAPER_TABLE2, Table2Result, run_table2

__all__ = [
    "BenchmarkSetup",
    "ChaosResult",
    "ChaosRun",
    "ExperimentDef",
    "FIGURE4_CASES",
    "FIGURE5_TAUS",
    "FIGURE6_TAUS",
    "FIGURE8_CHUNKS",
    "Figure1Result",
    "Figure2Result",
    "Figure3Result",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "Figure8Result",
    "Figure9Result",
    "Figure10Result",
    "Figure11Result",
    "Figure12Result",
    "Figure13Result",
    "ModelComparisonResult",
    "PAPER_TABLE2",
    "SmokeResult",
    "Table1Result",
    "Table2Result",
    "benchmark_setup",
    "get_experiment",
    "interval_rates",
    "list_experiments",
    "run_ablations",
    "run_chaos",
    "run_debounce_ablation",
    "run_effcap_ablation",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_figure13",
    "run_inflation_ablation",
    "run_model_comparison",
    "run_schedule_ablation",
    "run_smoke",
    "run_table1",
    "run_table2",
    "season_setup",
]
