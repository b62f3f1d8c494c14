"""Crash-safe checkpointing for the serve control plane.

A checkpoint directory holds two files:

``chronicle.jsonl``
    the flight recorder's records, appended *incrementally* — each save
    writes only the records added since the previous save, so the cost
    per interval stays O(new records), not O(run length);
``checkpoint.json``
    everything else — the control plane's :mod:`repro.persist` document
    (accuracy windows, predictor, monitor, depository, controller and
    its in-flight move, each ``{"v": n, ...fields}``) — written
    atomically via
    write-to-temp + ``os.replace``, and carrying ``chronicle_rows``:
    how many chronicle rows were durable when the snapshot was taken.

The ordering gives crash safety without fsync gymnastics: the chronicle
append happens *before* the snapshot replace.  A crash between the two
leaves ``chronicle.jsonl`` with rows the snapshot doesn't acknowledge;
:meth:`CheckpointStore.load` trims the file back to exactly
``chronicle_rows``, so the restored plane re-issues those records itself
and never double-counts or forks IDs.  A crash *during* the snapshot
replace is harmless because ``os.replace`` is atomic — the previous
checkpoint survives intact.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import List, Tuple

from ..errors import SimulationError
from ..persist import SCHEMA as CHECKPOINT_SCHEMA, current

CHECKPOINT_FILE = "checkpoint.json"
CHRONICLE_FILE = "chronicle.jsonl"


class CheckpointStore:
    """Owns one checkpoint directory; one instance per plane."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_path = self.directory / CHECKPOINT_FILE
        self.chronicle_path = self.directory / CHRONICLE_FILE
        #: Chronicle rows already durable on disk (and acknowledged by
        #: the last snapshot, once one has been written).
        self._appended = 0
        self.saves = 0

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------

    def save(self, state: dict, chronicle_records: List[dict]) -> None:
        """Persist one checkpoint: chronicle delta first, snapshot second.

        ``chronicle_records`` is the recorder's full in-memory list; only
        the tail past what was already appended is written.
        """
        total = len(chronicle_records)
        if total < self._appended:
            raise SimulationError(
                f"chronicle shrank from {self._appended} to {total} records "
                "(the recorder is append-only; this is a caller bug)"
            )
        if total > self._appended:
            with self.chronicle_path.open("a", encoding="utf-8") as handle:
                for rec in chronicle_records[self._appended:total]:
                    handle.write(json.dumps(rec, sort_keys=True) + "\n")
            self._appended = total
        doc = dict(state)
        doc["schema"] = CHECKPOINT_SCHEMA
        doc["chronicle_rows"] = total
        tmp = self.checkpoint_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.checkpoint_path)
        self.saves += 1

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> Tuple[dict, List[dict]]:
        """Read the snapshot and its acknowledged chronicle rows.

        Trims any unacknowledged chronicle tail (rows appended after the
        last durable snapshot by a run that then crashed), and arms the
        incremental-append cursor so subsequent saves continue cleanly.
        """
        if not self.checkpoint_path.exists():
            raise SimulationError(
                f"no checkpoint at {self.checkpoint_path} to resume from"
            )
        try:
            doc = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"corrupt checkpoint {self.checkpoint_path}: {exc}"
            ) from None
        try:
            doc = current(doc)          # the schema gate; upgrades v1
            rows = int(doc.get("chronicle_rows", 0))
        except (SimulationError, TypeError, ValueError) as exc:
            raise SimulationError(
                f"checkpoint {self.checkpoint_path}: {exc}"
            ) from None
        records = self._read_chronicle(rows)
        self._appended = len(records)
        return doc, records

    def _read_chronicle(self, rows: int) -> List[dict]:
        if rows == 0:
            # Nothing acknowledged; drop any orphan tail outright.
            if self.chronicle_path.exists():
                self.chronicle_path.unlink()
            return []
        if not self.chronicle_path.exists():
            raise SimulationError(
                f"checkpoint acknowledges {rows} chronicle rows but "
                f"{self.chronicle_path} is missing"
            )
        lines = self.chronicle_path.read_text(encoding="utf-8").splitlines()
        usable: List[dict] = []
        for line in lines:
            if len(usable) == rows:
                break
            if not line.strip():
                continue
            try:
                usable.append(json.loads(line))
            except json.JSONDecodeError:
                # A torn final write can leave one partial line; it is by
                # construction past the acknowledged prefix *unless* the
                # acknowledged count is unreachable, which the length
                # check below turns into a hard error.
                break
        if len(usable) < rows:
            raise SimulationError(
                f"checkpoint acknowledges {rows} chronicle rows but only "
                f"{len(usable)} are readable in {self.chronicle_path}"
            )
        if len(lines) > rows:
            # Trim the unacknowledged tail so the resumed run's re-issued
            # records don't duplicate it.  Atomic for the same reason the
            # snapshot is.
            tmp = self.chronicle_path.with_suffix(".jsonl.tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for rec in usable:
                    handle.write(json.dumps(rec, sort_keys=True) + "\n")
            os.replace(tmp, self.chronicle_path)
        return usable
