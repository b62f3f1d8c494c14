"""One module per evaluation artefact of the paper.

A module is the one definition of its artefact.  ``grid()`` returns the
experiment's independent cells as :class:`~repro.runner.RunSpec`
objects, ``run_cell(spec, config)`` executes one of them hermetically
into a JSON payload, and ``fold(payloads)`` builds the typed result
from one grid's payloads; ``summarize(result)`` renders it and
``claims(result)`` states what the paper reports next to what was
measured, row by row, with whether each claim holds.  The registry in
:mod:`repro.experiments.registry` enumerates all of them for ``pstore
experiment`` (the listing), ``pstore sweep`` and ``pstore paper``
(which runs every artefact's cells in one sweep and regenerates the
blocks of EXPERIMENTS.md from ``render``) without importing the heavy
modules up front; ``get_experiment(name).run(**grid_options)`` is the
one way to a result from Python.
"""

from .ablations import (
    run_debounce_ablation,
    run_effcap_ablation,
    run_inflation_ablation,
    run_schedule_ablation,
)
from .chaos import ChaosResult, ChaosRun, run_chaos
from .common import BenchmarkSetup, benchmark_setup, interval_rates
from .fig01 import Figure1Result
from .fig02 import Figure2Result
from .fig03 import Figure3Result
from .fig04 import FIGURE4_CASES, Figure4Result
from .fig05 import FIGURE5_TAUS, Figure5Result
from .fig06 import FIGURE6_TAUS, Figure6Result
from .fig07 import Figure7Result
from .fig08 import FIGURE8_CHUNKS, Figure8Result
from .fig09 import Figure9Result
from .fig10 import Figure10Result
from .fig11 import Figure11Result
from .fig12 import Figure12Result, season_setup
from .fig13 import Figure13Result
from .registry import (
    ExperimentDef,
    get_experiment,
    list_experiments,
)
from .sec5_models import ModelComparisonResult
from .smoke import SmokeResult
from .tab01 import Table1Result
from .tab02 import PAPER_TABLE2, Table2Result

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
    "run_chaos",
    "run_debounce_ablation",
    "run_effcap_ablation",
    "run_inflation_ablation",
    "run_schedule_ablation",
    "season_setup",
]
