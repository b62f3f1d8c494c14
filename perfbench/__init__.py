"""perfbench — the repository benchmark.

Six workloads, seven end-to-end metrics and ~90 per-layer metrics over
the ``repro`` package, measured from outside: nothing under ``src/`` is
touched, layers are timed by wrapping their public entry points during a
separate traced run (see :mod:`perfbench.tracing`).  Everything runs in
one process and one thread; no child process is ever created.

Run ``python -m perfbench`` from the repository root; ``README.md`` in
this directory explains the metrics, the workloads and how to compare
two sets of runs.  ``BENCHMARK.json`` at the repository root is the
contract: the names printed here are exactly the names listed there.
"""

from __future__ import annotations

import os
import pathlib
import sys

#: The repository root (the directory that holds ``BENCHMARK.json``).
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Scratch space of the benchmark (git-ignored).  Each process works in
#: its own ``tmp/<pid>`` and removes it before it exits, so two runs in
#: one checkout cannot delete each other's checkpoints.
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
TMP_DIR = OUT_DIR / "tmp" / str(os.getpid())

# One thread means one thread: BLAS/OpenMP worker pools add scheduler
# noise on a two-core sandbox and are not what is being measured.  Only
# effective when set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def add_src_to_path() -> None:
    """Make ``repro`` importable from a plain checkout (no install).

    Raises :class:`FileNotFoundError` when the checkout has no
    ``src/repro`` — the benchmark cannot measure a program that is not
    there, and must not print a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"{src / 'repro'} not found: perfbench measures the repro "
            "package of the checkout it lives in"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
