"""Correctness harness: tiered runtime invariants.

:mod:`repro.check.invariants` holds the assertions that hot code
(engine, migrator, simulators) evaluates at rare boundaries, gated by
a process-wide tier (``off`` / ``cheap`` / ``expensive``).  The
differentials that compare engines and paths, and the simulated-time
source lint, are tests under ``tests/``; see docs/CORRECTNESS.md.
"""

from __future__ import annotations

from . import invariants
from .invariants import (
    CHEAP,
    EXPENSIVE,
    OFF,
    check_level,
    check_scope,
    enabled,
    set_check_level,
)

__all__ = [
    "CHEAP",
    "EXPENSIVE",
    "OFF",
    "check_level",
    "check_scope",
    "enabled",
    "invariants",
    "set_check_level",
]
