"""Trace serialisation: CSV read/write for load traces.

Real deployments feed P-Store measured load histories; these helpers
let users round-trip traces through a simple, diff-friendly CSV format:

.. code-block:: text

    # name: b2w-shopping-cart
    # slot_seconds: 60
    slot,value
    0,18234
    1,18790
    ...

Only ``value`` matters for reconstruction; the ``slot`` column makes the
files human-auditable and guards against accidental reordering.
"""

from __future__ import annotations

import csv
import pathlib
from typing import List, TextIO, Union

import numpy as np

from ..errors import SimulationError
from .trace import LoadTrace

PathOrFile = Union[str, pathlib.Path, TextIO]


def _open_for(target: PathOrFile, mode: str):
    if isinstance(target, (str, pathlib.Path)):
        return open(target, mode, newline=""), True
    return target, False


def write_trace_csv(trace: LoadTrace, target: PathOrFile) -> None:
    """Write a trace to CSV (with name/slot metadata in header comments)."""
    handle, owned = _open_for(target, "w")
    try:
        handle.write(f"# name: {trace.name}\n")
        handle.write(f"# slot_seconds: {trace.slot_seconds:g}\n")
        writer = csv.writer(handle)
        writer.writerow(["slot", "value"])
        for slot, value in enumerate(trace.values):
            writer.writerow([slot, f"{value:.6g}"])
    finally:
        if owned:
            handle.close()


def read_trace_csv(source: PathOrFile) -> LoadTrace:
    """Read a trace written by :func:`write_trace_csv`.

    Tolerates plain CSVs too: missing metadata defaults to 60-second
    slots and the name "trace"; a missing ``slot`` column is accepted as
    a single ``value`` column.
    """
    handle, owned = _open_for(source, "r")
    try:
        name = "trace"
        slot_seconds = 60.0
        rows: List[List[str]] = []
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                meta = line.lstrip("#").strip()
                if meta.startswith("name:"):
                    name = meta.split(":", 1)[1].strip()
                elif meta.startswith("slot_seconds:"):
                    try:
                        slot_seconds = float(meta.split(":", 1)[1])
                    except ValueError as exc:
                        raise SimulationError(
                            f"bad slot_seconds metadata: {meta!r}"
                        ) from exc
                continue
            rows.append(next(csv.reader([line])))
    finally:
        if owned:
            handle.close()

    if not rows:
        raise SimulationError("trace CSV contains no data rows")
    header = [cell.strip().lower() for cell in rows[0]]
    data_rows = rows[1:] if "value" in header else rows
    value_idx = header.index("value") if "value" in header else len(rows[0]) - 1
    expected_slot = 0
    slot_idx = header.index("slot") if "slot" in header else None

    values: List[float] = []
    for row in data_rows:
        if slot_idx is not None:
            try:
                slot = int(row[slot_idx])
            except (ValueError, IndexError) as exc:
                raise SimulationError(f"bad slot cell in row {row!r}") from exc
            if slot != expected_slot:
                raise SimulationError(
                    f"trace rows out of order: expected slot {expected_slot}, "
                    f"got {slot}"
                )
            expected_slot += 1
        try:
            values.append(float(row[value_idx]))
        except (ValueError, IndexError) as exc:
            raise SimulationError(f"bad value cell in row {row!r}") from exc
    return LoadTrace(np.asarray(values), slot_seconds, name=name)


def read_trace_csv_cached(path) -> LoadTrace:
    """:func:`read_trace_csv` through the per-process trace memo.

    Keyed on ``(absolute path, mtime_ns, size)``, so an edited file is
    always re-parsed while repeat loads — one per sweep cell, typically —
    share the immutable parsed trace.  Accepts paths only (file objects
    cannot be keyed); reuse counts surface via
    :func:`repro.workload.memo.stats`.
    """
    from . import memo

    key = ("csv",) + memo.file_key(path)
    return memo.memoized(key, lambda: read_trace_csv(path))
