"""The whole-document checkpoint save, kept as the oracle of the real one.

Until the ledger (``repro.persist.Ledger``), a save encoded the plane's
whole document with ``state_dict()`` and journalled ``delta(previous,
now)``: a row of the fields that changed, a base when the journal would
grow past half of it.  :class:`OracleStore` is that computation, held in
memory.  Its folded document and its bases are what the store's must
equal; its rows are what the store's are, byte for byte, wherever
``delta``'s alignment of a slid list is not fooled by a run of equal
values (there the two write different ops that fold to the same list).

:class:`Document` turns an encoded document back into a component, so a
test can save a hand-written state through the real store.
"""

import json

from repro.persist import SCHEMA, Persisted, decode, delta, patch


def base_bytes(state: dict, seq: int, chronicle_rows: int) -> bytes:
    """The ``checkpoint.json`` a base of ``state`` at save ``seq`` is."""
    doc = dict(state, schema=SCHEMA, chronicle_rows=chronicle_rows, seq=seq)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def row_bytes(seq: int, chronicle_rows: int, ops: list) -> bytes:
    """One journal line."""
    return json.dumps(
        {"seq": seq, "chronicle_rows": chronicle_rows, "ops": ops},
        sort_keys=True,
    ).encode("utf-8") + b"\n"


class OracleStore:
    """Every save encodes the component whole and diffs it against the
    previous save's document."""

    def __init__(self) -> None:
        self.seq = 0
        self.last = None
        self.base = b""
        self.rows = []

    def save(self, component: Persisted, chronicle_rows: int) -> None:
        state = component.state_dict()
        self.seq += 1
        row = None
        if self.last is not None:
            row = row_bytes(self.seq, chronicle_rows, delta(self.last, state))
            journal = sum(map(len, self.rows)) + len(row)
            if 2 * journal > len(self.base):
                row = None
        if row is None:
            self.base = base_bytes(state, self.seq, chronicle_rows)
            self.rows = []
        else:
            self.rows.append(row)
        self.last = state

    def forget(self) -> None:
        """What a load does to the store: the next save is a base."""
        self.last = None

    def document(self) -> dict:
        """The base with the rows applied, as ``read_checkpoint`` folds."""
        doc = json.loads(self.base)
        for line in self.rows:
            row = json.loads(line)
            doc = patch(doc, row["ops"])
            doc.update(seq=row["seq"], chronicle_rows=row["chronicle_rows"])
        return doc


class Document(Persisted):
    """The component whose ``state_dict()`` is ``doc``: each key but
    ``v`` a watched attribute holding what its value decodes to, a
    nested component's value a :class:`Document` of its own."""

    def __init__(self, doc: dict) -> None:
        self.PERSIST_VERSION = doc.get("v", 1)
        self.PERSIST = tuple(key for key in doc if key != "v")
        for key in self.PERSIST:
            value = doc[key]
            if type(value) is dict:
                value = Document(value) if "v" in value else decode(value)
            setattr(self, key, value)
