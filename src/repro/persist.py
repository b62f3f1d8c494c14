"""One way to persist state: a declared watchlist per component, one codec.

What a checkpoint looks like, and which versions of it load, is decided
here and nowhere else.  A component derives from :class:`Persisted` and
names the attributes to keep in ``PERSIST``; the two methods below are
the only ``state_dict`` / ``restore_state`` in the package.  Derived
state is not stored: a component keeps its inputs and recomputes the
rest in ``_rebuild`` (the depository's heap from its clocks, fitted
coefficients by a deterministic refit, a move's fluid fractions by
replaying its half-steps).

The document is ``pstore.serve-checkpoint/v2``: a component is ``{"v":
n, field: value, ...}``, components nest (the plane's document holds the
controller's, which holds the move's), and a field's key is its
attribute name less the leading underscore.  :func:`delta` and
:func:`patch` say what changed between two such documents and apply it,
so the store can journal an interval instead of rewriting the whole; they
walk the shapes the codec produces and know no component.  A leaf module
like ``decision.py``: it imports only ``errors.py``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Tuple

from .errors import PStoreError, SimulationError

#: Schema tag of the documents this code writes.
SCHEMA = "pstore.serve-checkpoint/v2"

_SCALARS = frozenset((type(None), bool, int, float, str))


def encode(value):
    """The JSON form of one watched attribute.

    Scalars are themselves; list, tuple, ``deque`` and arrays become a
    list; a dict becomes ``{"keys": [...], "values": [...]}`` so that
    insertion order and non-string keys survive the store's
    ``sort_keys=True``.  Flat containers, and rows of scalars, are
    copied and checked by C-level calls, not walked in Python (at 1 024
    nodes the clocks are 16 kB of the document and one predictor's fit
    series 79 kB).  Nothing returned is shared with the live object:
    the store keeps the document to take the next one's difference from.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict:
        return {
            "keys": encode(list(value)),
            "values": encode(list(value.values())),
        }
    if isinstance(value, Persisted):
        return value.state_dict()
    if hasattr(value, "tolist"):            # numpy arrays and scalars
        return value.tolist()
    if kind not in (list, tuple, deque):
        raise SimulationError(f"cannot persist a {kind.__name__}")
    items = list(value)
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        return items
    if kinds == {tuple} and _SCALARS.issuperset(
        map(type, chain.from_iterable(items))
    ):
        return items        # rows of scalars: immutable, and JSON arrays
    return [encode(item) for item in items]


def decode(value):
    """Inverse of :func:`encode` as far as JSON can say: sequences come
    back as lists (a component that wants a ``deque`` or tuples makes
    them in ``_rebuild``), dict keys that were tuples as tuples."""
    if type(value) is list:
        if _SCALARS.issuperset(map(type, value)):
            return value
        return [decode(item) for item in value]
    if type(value) is dict:
        keys, values = value["keys"], decode(value["values"])
        if type(keys) is not list or len(keys) != len(values):
            raise ValueError("keys and values do not pair up")
        return dict(zip(
            (tuple(k) if type(k) is list else k for k in keys), values
        ))
    return value


_CONTAINERS = frozenset((list, tuple, dict))
_CODEC_KEYS = frozenset(("keys", "values"))


def delta(old, new) -> list:
    """The ops that turn the encoded document ``old`` into ``new``: the
    fields that changed, and no more.

    An op is ``{"path": [...], "set": value}`` or ``{"path": [...],
    "slide": [k, item, ...]}`` — the list there lost ``k`` leading items
    and gained the items after ``k`` at the end, which is how every
    sliding window and growing series moves between two intervals (one
    item an interval; a refit's window, several).  Components are entered
    by key; an encoded dict by the index of each value that is itself a
    container, as long as its keys are the same ones; what changed in
    any other way is set whole.  Containers are compared with ``==``,
    which C code runs over the codec's flat lists, so a value that
    changed only from ``1`` to ``1.0`` inside a list is not a change.
    """
    ops: list = []
    _delta(old, new, [], ops)
    return ops


def _delta(old, new, path: list, ops: list) -> None:
    kind = type(new)
    if kind is dict and type(old) is dict and old.keys() == new.keys():
        if old.keys() != _CODEC_KEYS:
            for key, value in new.items():
                _delta(old[key], value, path + [key], ops)
            return
        was, now = old["values"], new["values"]
        if (
            old["keys"] == new["keys"] and type(was) is list
            and type(now) is list and len(was) == len(now)
        ):
            if _CONTAINERS.isdisjoint(map(type, now)):
                _delta(was, now, path + ["values"], ops)
            else:
                for index, pair in enumerate(zip(was, now)):
                    _delta(*pair, path + ["values", index], ops)
            return
    elif old == new and type(old) is kind:
        return
    elif kind is list and type(old) is list and new:
        drop = len(old) - len(new) + 1
        if drop >= 0 and old[drop:] == new[:-1]:
            ops.append({"path": path, "slide": [drop, new[-1]]})
            return
        # Several items: the kept tail starts where new[0] first is.
        try:
            drop = old.index(new[0])
        except ValueError:
            drop = len(old)
        kept = len(old) - drop
        if 0 < kept < len(new) and old[drop:] == new[:kept]:
            ops.append({"path": path, "slide": [drop, *new[kept:]]})
            return
    ops.append({"path": path, "set": new})


def patch(doc, ops):
    """``doc`` with :func:`delta` ops applied in place (returned, since a
    ``set`` at the empty path replaces it).  The ops come from a file:
    a path that does not lead anywhere, a slide that is not a count and
    at least one item, or one longer than its list, is a ``ValueError``
    that says which."""
    root = {"": doc}
    for op in ops:
        path = op["path"]
        node, key = root, ""
        for step in path:
            node, key = _follow(node, key, path), step
        target = _follow(node, key, path)
        if "slide" in op:
            slide = op["slide"]
            if type(slide) is not list or len(slide) < 2:
                raise ValueError(
                    f"slide {slide!r} at {path}: not a count to drop and "
                    "the items to append"
                )
            drop = slide[0]
            if (
                type(target) is not list or type(drop) is not int
                or not 0 <= drop <= len(target)
            ):
                raise ValueError(
                    f"slide of {drop!r} at {path}: no list that long there"
                )
            del target[:drop]
            target += slide[1:]
        else:
            node[key] = op["set"]
    return root[""]


def _follow(node, key, path):
    if type(node) is dict and type(key) is str and key in node:
        return node[key]
    if type(node) is list and type(key) is int and 0 <= key < len(node):
        return node[key]
    raise ValueError(
        f"path {path} leads nowhere: {type(node).__name__} has no {key!r}"
    )


class Persisted:
    """Base of every component a checkpoint holds."""

    #: The watchlist: attributes saved and restored.  A value that is
    #: itself a :class:`Persisted` is restored in place; a dotted path
    #: reaches such a component (or a match) inside a collaborator.
    PERSIST: Tuple[str, ...] = ()
    #: Attributes saved with the state and, on restore, required to
    #: equal the live value: a checkpoint taken under another interval
    #: or predictor type is rejected, not adopted.
    PERSIST_MATCH: Tuple[str, ...] = ()
    #: Bumped when a field changes meaning; a document newer than the
    #: code is rejected.
    PERSIST_VERSION = 1
    #: What a failed match raises.
    PERSIST_ERROR = SimulationError

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the watched attributes."""
        doc = {"v": self.PERSIST_VERSION}
        for attr in (*self.PERSIST_MATCH, *self.PERSIST):
            key, get = _field(attr)
            doc[key] = encode(get(self))
        return doc

    def restore_state(self, doc: dict) -> None:
        """Adopt :meth:`state_dict` output into a freshly built object.

        A field must be present and have the JSON shape the live
        attribute has (``None`` here takes anything); errors name it.
        """
        version = doc.get("v") if type(doc) is dict else None
        if type(version) is not int or not 0 < version <= self.PERSIST_VERSION:
            raise SimulationError(
                f"v: version {version!r} is not one this code loads "
                f"(it writes {self.PERSIST_VERSION})"
            )
        for attr in (*self.PERSIST_MATCH, *self.PERSIST):
            key, get = _field(attr)
            live = get(self)
            if key not in doc:
                raise SimulationError(f"{key}: missing")
            raw = doc[key]
            nested = isinstance(live, Persisted)
            if attr in self.PERSIST_MATCH:
                if raw != live:
                    raise self.PERSIST_ERROR(
                        f"{key}: checkpointed {raw!r} does not match "
                        f"this run's {live!r}"
                    )
            elif type(raw) is dict and (nested or "v" in raw):
                try:
                    if live is None:
                        live = self._revive(attr)
                        setattr(self, attr, live)
                    live.restore_state(raw)
                except PStoreError as exc:
                    exc.args = (f"{key}.{exc.args[0]}", *exc.args[1:])
                    raise
            elif raw is None and (nested or live is None):
                setattr(self, attr, None)
            else:
                setattr(self, attr, _conform(key, raw, encode(live)))
        self._rebuild()

    def _revive(self, attr: str) -> "Persisted":
        """The blank component to restore ``attr`` into when it is
        ``None`` here and the checkpoint has state for it."""
        raise SimulationError("nothing here to restore the state into")

    def _rebuild(self) -> None:
        """Recompute derived state once the watched state is in."""


@lru_cache(maxsize=None)            # keyed by declared names: bounded
def _field(attr: str):
    """A watched attribute's document key and its getter."""
    return attr.rpartition(".")[2].lstrip("_"), attrgetter(attr)


def _conform(key: str, raw, like):
    """``decode(raw)``, which must be shaped like ``like`` (None: any)."""
    if type(like) is float and type(raw) is int:
        return float(raw)
    if like is not None and type(raw) is not type(like):
        raise SimulationError(
            f"{key}: expected {type(like).__name__}, got {raw!r}"
        )
    try:
        return decode(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"{key}: malformed ({exc})") from None


def current(doc) -> dict:
    """The schema gate: ``doc`` as a v2 document, upgraded if it is a v1
    one, else :class:`SimulationError`."""
    schema = doc.get("schema") if type(doc) is dict else None
    if schema == SCHEMA:
        return doc
    if schema != "pstore.serve-checkpoint/v1":
        raise SimulationError(
            f"schema {schema!r} is not {SCHEMA!r} or its v1 predecessor"
        )
    try:
        return upgrade_v1(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(f"malformed v1 document ({exc!r})") from None


def upgrade_v1(doc: dict) -> dict:
    """The document PR 13-15 wrote, as a v2 one; the only place the v1
    layout is known.  Keys v2 kept are carried over as they are (fields
    it dropped ride along unread); the rest is renaming, regrouping
    under the component that now watches the field, and turning row
    lists and JSON objects back into the dicts the codec encodes."""
    dep, acc, ctl = doc["depository"], doc["accuracy"], doc["controller"]
    clocks = dep["clocks"]
    if not isinstance(clocks, dict):
        # [nodes, clocks]; before PR 14 it was a mapping already, of
        # which alphabetical order is all the order that survived.
        clocks = dict(zip(*clocks))
    accuracy = {"v": 1}                     # telemetry was off: no state
    if acc:
        accuracy.update(
            window=acc["window"], q=acc["q"], dropped=acc["dropped"],
            pending=encode(
                {row["target"]: row["entries"] for row in acc["pending"]}
            ),
            **{
                new: encode({
                    (row["predictor"], row["tau"]): row[old]
                    for row in acc["windows"]
                })
                for new, old in (
                    ("windows", "pairs"), ("pairs_total", "pairs_total"),
                    ("over_cost", "over"), ("under_cost", "under"),
                )
            },
        )
    move, strategy = ctl["migration"], ctl["strategy"]
    return {
        "schema": SCHEMA,
        "chronicle_rows": doc.get("chronicle_rows", 0),
        "v": 1,
        "interval_seconds": doc["interval_seconds"],
        "processed": doc["processed"],
        "accuracy": accuracy,
        "predictor": {**doc["predictor"], "v": 1},
        "monitor": {**doc["monitor"], "v": 1},
        "depository": {
            **dep, "v": 1, "interval": dep["interval_seconds"],
            "buffer": encode(dict(dep["buffer"])),
            "clocks": encode(clocks),
            "evicted": encode(dep["evicted"]),
            "evicted_clocks": encode(dep.get("evicted_clocks", {})),
            "late_by_node": encode(dep["late_by_node"]),
        },
        "controller": {
            **ctl, "v": 1,
            "reactive": {"v": 1, "below_streak": ctl["reactive_below_streak"]},
            "strategy": strategy and {
                "v": 1, "controller": {**strategy, "v": 1},
            },
            "move": move and {
                "v": 1, "before": move["before"], "after": move["target"],
                "rate_kbps": move["rate_kbps"], "started_at": move["started"],
                "half_steps": move["half_steps"],
                "record_id": move["move_rec_id"],
            },
        },
    }
