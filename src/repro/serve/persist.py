"""Crash-safe checkpointing for the serve control plane.

A checkpoint directory holds three files:

``chronicle.jsonl``
    the flight recorder's records, appended *incrementally* — each save
    writes only the records added since the previous save;
``checkpoint.json``
    the *base*: a whole :mod:`repro.persist` document (accuracy windows,
    predictor, monitor, depository, controller and its in-flight move,
    each ``{"v": n, ...fields}``) as of save number ``seq``, written
    atomically via write-to-temp + ``os.replace``;
``checkpoint.delta.jsonl``
    the *journal*: one line per save since the base, ``{"seq": n,
    "chronicle_rows": r, "ops": [...]}``, whose ops are what changed
    since the save before: the scalars and small fields that differ
    (:func:`repro.persist.delta`) plus, per series, the items appended
    and the count dropped (``{"slide": [drop, *items]}``), which a
    :class:`repro.persist.Ledger` reads off the series' counters.  A
    save is the scalars plus the series' new items: it costs what
    changed in the interval, not what the plane holds.

The checkpoint *document* is the base with the journal's rows applied in
order; its ``chronicle_rows`` says how many chronicle rows were durable
when it was taken.  :func:`read_checkpoint` returns it without touching
the directory.  The base is rewritten, and the journal emptied, when one
more row would make the journal more than half the base.  A resume
parses journal bytes at the rate it parses the base (about 10 us/kB), so
it reads at most one and a half documents.  A pass of the repository
benchmark's ``serve_intervals`` workload saves 712 times and writes 54
bases, the first of them included.  The first save of every process
writes a base: it has nothing to take a difference from.

Crash safety is in the order of the writes, not in fsync gymnastics: the
chronicle append, then the journal append (or the base replace, then the
journal truncate).  The store keeps both logs open for appending and
flushes each write before it makes the next, so the bytes reach the OS
in that order too.  A row counts once its line is complete and its
``seq`` follows the row before it.  :meth:`CheckpointStore.load` applies
the rows that are newer than the base, ignores a last line the crash
tore and rows the base already holds (a crash between the replace and
the truncate), and trims both logs back to what the document
acknowledges, so the restored plane re-issues the lost records itself
and never double-counts or forks IDs.  A crash *during* the base replace
is harmless because ``os.replace`` is atomic — the previous base and its
journal survive intact.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import BinaryIO, Dict, List, Tuple

from ..errors import SimulationError
from ..persist import (
    SCHEMA as CHECKPOINT_SCHEMA, Ledger, Persisted, current, patch, to_json,
)

CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "checkpoint.delta.jsonl"
CHRONICLE_FILE = "chronicle.jsonl"


def read_checkpoint(directory) -> dict:
    """The checkpoint document of ``directory`` — the base with every
    complete journal row applied, what a resume would restore — read
    without trimming or rewriting anything there."""
    directory = pathlib.Path(directory)
    return _read(directory / CHECKPOINT_FILE, directory / JOURNAL_FILE)[0]


def _read(checkpoint_path, journal_path) -> Tuple[dict, List[bytes], bool]:
    """``(document, journal lines it took, whether the journal holds
    anything else)``."""
    if not checkpoint_path.exists():
        raise SimulationError(
            f"no checkpoint at {checkpoint_path} to resume from"
        )
    try:
        doc = json.loads(checkpoint_path.read_text(encoding="utf-8"))
    except ValueError as exc:           # not JSON, or not UTF-8
        raise SimulationError(
            f"corrupt checkpoint {checkpoint_path}: {exc}"
        ) from None
    try:
        doc = current(doc)              # the schema gate; upgrades v1
        doc["chronicle_rows"] = int(doc.get("chronicle_rows", 0))
        doc["seq"] = int(doc.get("seq", 0))
    except (SimulationError, TypeError, ValueError) as exc:
        raise SimulationError(
            f"checkpoint {checkpoint_path}: {exc}"
        ) from None
    taken: List[bytes] = []
    lines = []
    if journal_path.exists():
        lines = journal_path.read_bytes().splitlines(keepends=True)
    passed_over = bool(lines) and not lines[-1].endswith(b"\n")
    if passed_over:
        lines.pop()                     # the write a crash tore
    for number, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
            seq, rows, ops = row["seq"], row["chronicle_rows"], row["ops"]
            if type(seq) is not int or type(rows) is not int or rows < 0:
                raise ValueError("seq and chronicle_rows must be counts")
            if seq <= doc["seq"] and not taken:
                passed_over = True      # the base already holds it
                continue
            if seq != doc["seq"] + 1:
                raise ValueError(
                    f"seq {seq} where {doc['seq'] + 1} should follow"
                )
            doc = patch(doc, ops)
            if type(doc) is not dict:
                raise ValueError("the document is no longer an object")
        except (KeyError, TypeError, ValueError) as exc:
            what = f"no {exc} in it" if type(exc) is KeyError else exc
            raise SimulationError(
                f"corrupt checkpoint journal {journal_path} row {number}: "
                f"{what}"
            ) from None
        doc.update(schema=CHECKPOINT_SCHEMA, seq=seq, chronicle_rows=rows)
        taken.append(line)
    return doc, taken, passed_over


class CheckpointStore:
    """Owns one checkpoint directory; one instance per plane."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_path = self.directory / CHECKPOINT_FILE
        self.journal_path = self.directory / JOURNAL_FILE
        self.chronicle_path = self.directory / CHRONICLE_FILE
        #: Chronicle rows already durable on disk (and acknowledged by
        #: the last save, once there has been one).
        self._appended = 0
        #: Number of the last save in the directory, and what it held:
        #: what the next one is compared with (unprimed: write a base).
        self._seq = 0
        self._ledger = Ledger()
        self._base_bytes = 0
        self._journal_bytes = 0
        #: Nothing here was loaded or written by this store yet: logs in
        #: the directory belong to an earlier run.
        self._fresh = True
        #: The chronicle's and the journal's append handles, opened on
        #: first use and kept open until :meth:`close` or :meth:`load`.
        self._handles: Dict[pathlib.Path, BinaryIO] = {}
        self.saves = 0
        #: Bytes put into the base and the journal by this store.
        self.bytes_written = 0
        #: Rows in the journal now.
        self.journal_rows = 0
        #: Times the base was rewritten because the journal had grown to
        #: half of it.
        self.compactions = 0

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------

    def save(
        self, component: Persisted, chronicle_records: List[dict]
    ) -> None:
        """Persist one checkpoint of ``component``: chronicle rows first,
        then what changed in it since the previous save (or all of it).

        ``chronicle_records`` is the recorder's full in-memory list; only
        the tail past what was already appended is written.  The row is
        the :class:`repro.persist.Ledger`'s ops: the small fields that
        changed and the series' new items.
        """
        total = len(chronicle_records)
        if total < self._appended:
            raise SimulationError(
                f"chronicle shrank from {self._appended} to {total} records "
                "(the recorder is append-only; this is a caller bug)"
            )
        if self._fresh:
            for log in (self.chronicle_path, self.journal_path):
                log.unlink(missing_ok=True)
            self._fresh = False
        if total > self._appended:
            self._append(self.chronicle_path, "".join(
                to_json(rec) + "\n"
                for rec in chronicle_records[self._appended:total]
            ).encode("utf-8"))
            self._appended = total
        seq = self._seq + 1
        row = None
        if self._ledger.primed:
            row = to_json({
                "seq": seq, "chronicle_rows": total,
                "ops": self._ledger.ops(component),
            }).encode("utf-8") + b"\n"
            if 2 * (self._journal_bytes + len(row)) > self._base_bytes:
                self.compactions += 1
                row = None
        if row is None:
            self._write_base(self._ledger.base(
                component, schema=CHECKPOINT_SCHEMA, chronicle_rows=total,
                seq=seq,
            ).encode("utf-8"))
        else:
            self._append(self.journal_path, row)
            self._journal_bytes += len(row)
            self.journal_rows += 1
            self.bytes_written += len(row)
        self._seq = seq
        self.saves += 1

    def _write_base(self, payload: bytes) -> None:
        self._replace(self.checkpoint_path, payload)
        # A crash here leaves rows at or below the base's seq: load
        # skips them.
        self._log(self.journal_path).truncate(0)
        self._base_bytes = len(payload)
        self._journal_bytes = self.journal_rows = 0
        self.bytes_written += len(payload)

    def _log(self, path: pathlib.Path) -> BinaryIO:
        handle = self._handles.get(path)
        if handle is None:
            handle = self._handles[path] = path.open("ab")
        return handle

    def _append(self, path: pathlib.Path, payload: bytes) -> None:
        """Append to a log and hand the bytes to the OS before the next
        write: the chronicle's rows must be in its file before the
        journal row that acknowledges them is in its own."""
        handle = self._log(path)
        handle.write(payload)
        handle.flush()

    def close(self) -> None:
        """Close the log handles; a later save opens them again."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> Tuple[dict, List[dict]]:
        """Read the checkpoint document and its acknowledged chronicle
        rows.

        Trims what no complete save acknowledges — chronicle rows past
        the document's count, a torn or already-folded journal row —
        and arms the cursors so that saving continues the sequence.  The
        next save rewrites the base: the ledger holds nothing of the
        loaded document (a v1 one least of all).
        """
        self.close()                    # the trims below replace files
        doc, taken, passed_over = _read(self.checkpoint_path, self.journal_path)
        records = self._read_chronicle(doc["chronicle_rows"])
        if passed_over:
            self._replace(self.journal_path, b"".join(taken))
        self._appended = len(records)
        self._seq = doc["seq"]
        self._ledger.forget()
        self.journal_rows = len(taken)
        self._fresh = False
        return doc, records

    @staticmethod
    def _replace(path: pathlib.Path, payload: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)

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
            # base is.
            self._replace(self.chronicle_path, "".join(
                to_json(rec) + "\n" for rec in usable
            ).encode("utf-8"))
        return usable
