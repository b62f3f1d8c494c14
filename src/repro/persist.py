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
walk the shapes the codec produces and know no component.

A save is the scalars plus the series' new items.  A long series — an
accuracy window, a predictor's history, the monitor's rates — is held
in a :class:`Series`, which counts the items appended to it; a
:class:`Ledger` keeps, between two saves, each small field encoded and
each series as its length and counters then, so the ops of the next
save are the small fields :func:`delta` finds changed and, per series,
one ``slide`` of the count dropped and the items appended, read off the
counters.  A base is put together from the same marks, each series from
the JSON text of its items, made once when the item arrived.  A leaf
module like ``decision.py``: it imports only ``errors.py``.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Tuple

from .errors import PStoreError, SimulationError

#: Schema tag of the documents this code writes.
SCHEMA = "pstore.serve-checkpoint/v2"

_SCALARS = frozenset((type(None), bool, int, float, str))

#: ``json.dumps(value, sort_keys=True)``, the text every checkpoint file
#: holds, without building an encoder per call.
to_json = json.JSONEncoder(sort_keys=True).encode


class Series(list):
    """A list that grows at the back and is trimmed at the front, and
    counts what it appended, so a save journals its new items instead of
    encoding and comparing all of them (see :class:`Ledger`).

    ``append``, ``extend`` and ``+=`` count.  Deleting from the front
    (``del s[:k]``, ``del s[0]``, ``pop(0)``) needs no count: the ledger
    derives the items dropped from the length.  ``maxlen``, as on a
    ``deque``, drops the oldest items past it on every append.  Any
    other mutation — item or slice assignment, ``insert``, ``remove``,
    ``pop`` from elsewhere, ``clear``, ``sort``, ``reverse``, ``*=``, a
    second ``__init__`` — is made and counted as a rewrite, and the next
    save sets the series whole.  Items must be immutable (scalars, or
    tuples of them): a change inside one is not seen.  ``list``'s own
    methods called on a series (``list.append(s, x)``, ``heapq``) go
    around the counts; one that leaves it longer than its counts allow
    is set whole, any other is not seen.
    """

    __slots__ = ("maxlen", "appended", "rewrites")

    def __init__(self, items=(), maxlen=None) -> None:
        super().__init__(items)
        self.maxlen = maxlen
        self.appended = 0
        self.rewrites = getattr(self, "rewrites", -1) + 1
        self._cap()

    def _cap(self) -> None:
        if self.maxlen is not None and len(self) > self.maxlen:
            list.__delitem__(self, slice(0, len(self) - self.maxlen))

    def append(self, item) -> None:
        list.append(self, item)
        self.appended += 1
        if self.maxlen is not None and len(self) > self.maxlen:
            list.__delitem__(self, 0)

    def extend(self, items) -> None:
        size = len(self)
        list.extend(self, items)
        self.appended += len(self) - size
        self._cap()

    def __iadd__(self, items) -> "Series":
        self.extend(items)
        return self

    def __delitem__(self, index) -> None:
        if not _at_front(index, len(self)):
            self.rewrites += 1
        list.__delitem__(self, index)

    def pop(self, index=-1):
        if not _at_front(index, len(self)):
            self.rewrites += 1
        return list.pop(self, index)


def _at_front(index, size: int) -> bool:
    """Whether deleting ``index`` from a list of ``size`` items drops a
    prefix of it."""
    if type(index) is slice:
        start, _, step = index.indices(size)
        return start == 0 and step == 1
    index = operator.index(index)
    return index == 0 or index == -size


def _rewriting(name: str):
    method = getattr(list, name)

    def rewrite(self, *args, **kwargs):
        self.rewrites += 1
        result = method(self, *args, **kwargs)
        self._cap()
        return result

    rewrite.__name__ = rewrite.__qualname__ = name
    rewrite.__doc__ = f"``list.{name}``, counted as a rewrite."
    return rewrite


#: The list mutators a :class:`Series` cannot count.
REWRITES = (
    "__setitem__", "__imul__", "insert", "remove", "clear", "sort", "reverse",
)
for _name in REWRITES:
    setattr(Series, _name, _rewriting(_name))


_SEQUENCES = frozenset((list, tuple, deque, Series))


def encode(value):
    """The JSON form of one watched attribute.

    Scalars are themselves; list, tuple, ``deque``, :class:`Series`
    and arrays become a list; a dict becomes ``{"keys": [...],
    "values": [...]}`` so that insertion order and non-string keys
    survive the store's ``sort_keys=True``.  Flat containers, and rows
    of scalars, are copied and checked by C-level calls, not walked in
    Python (at 1 024 nodes the clocks are 16 kB of the document and one
    predictor's fit series 79 kB).  Nothing returned is shared with the
    live object: the ledger keeps what it encoded to compare the next
    save with.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict:
        return {
            "keys": encode(list(value)),
            "values": encode(list(value.values())),
        }
    if kind in _SEQUENCES:
        items = list(value)
        kinds = set(map(type, items))
        if kinds <= _SCALARS:
            return items
        if kinds == {tuple} and _SCALARS.issuperset(
            map(type, chain.from_iterable(items))
        ):
            return items    # rows of scalars: immutable, and JSON arrays
        return [encode(item) for item in items]
    if isinstance(value, Persisted):
        return value.state_dict()
    if hasattr(value, "tolist"):            # numpy arrays and scalars
        return value.tolist()
    raise SimulationError(f"cannot persist a {kind.__name__}")


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
    #: reaches a field inside a collaborator, and is set on it.
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
            path, _, name = attr.rpartition(".")
            owner = operator.attrgetter(path)(self) if path else self
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
                        setattr(owner, name, live)
                    live.restore_state(raw)
                except PStoreError as exc:
                    exc.args = (f"{key}.{exc.args[0]}", *exc.args[1:])
                    raise
            elif raw is None and (nested or live is None):
                setattr(owner, name, None)
            else:
                setattr(owner, name, _conform(key, raw, encode(live)))
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
    return attr.rpartition(".")[2].lstrip("_"), operator.attrgetter(attr)


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


class Ledger:
    """What the last save of a component held, field by field: the one
    way a store learns what to write.

    A small field is kept encoded, as :func:`delta` compares it.  A
    :class:`Series`, or a dict of them, is kept as a mark: the object,
    its length and its counters then, and the JSON text of each item it
    holds.  A series that is still the same object, not rewritten
    since, is journalled from its counters as ``{"slide": [drop,
    *new_items]}`` — the op :func:`delta` writes when its alignment
    finds the new items — without encoding or comparing the items it
    kept; any other series is set whole.  A base is put together from
    the marks, each series from the JSON texts of its items, made once
    when the item arrived.  The document the ops fold into, and the one
    a base holds, is :meth:`Persisted.state_dict`.
    """

    def __init__(self) -> None:
        self._marks = None

    @property
    def primed(self) -> bool:
        """Whether there is a last save to take ops from."""
        return self._marks is not None

    def forget(self) -> None:
        """Drop the last save: the next one must be a :meth:`base`."""
        self._marks = None

    def ops(self, component: "Persisted") -> list:
        """The ops that turn the last save into ``component`` now."""
        if self._marks is None:
            raise SimulationError("no save yet to take a difference from")
        ops: list = []
        self._marks = _journal(component, self._marks, [], ops)
        return ops

    def base(self, component: "Persisted", **meta) -> str:
        """``json.dumps({**component.state_dict(), **meta},
        sort_keys=True)``; the next ops start from it."""
        if self._marks is None:
            self._marks = _marked(component)
        else:
            self.ops(component)
        texts = _texts(self._marks)
        texts.update((key, _text(value)) for key, value in meta.items())
        return _object(texts)


class _Fields(dict):
    """A component's marks by document key, the kind of component they
    were taken of, and its fields' keys and getters."""

    __slots__ = ("kind", "fields")


class _SeriesMark:
    """A series as a save left it, and the text of each of its items."""

    __slots__ = ("series", "length", "appended", "rewrites", "texts")

    def __init__(self, series: Series) -> None:
        self.series = series
        self.length = len(series)
        self.appended = series.appended
        self.rewrites = series.rewrites
        self.texts = list(map(_text, series))


class _MapMark:
    """A dict of series as a save left it: its keys, each value's mark."""

    __slots__ = ("keys", "marks")

    def __init__(self, keys: list, marks: list) -> None:
        self.keys = keys
        self.marks = marks


_MARKS = (_Fields, _SeriesMark, _MapMark)


def _kind(component: "Persisted") -> tuple:
    return (
        component.PERSIST_VERSION, component.PERSIST_MATCH, component.PERSIST,
    )


@lru_cache(maxsize=None)            # keyed by declared names: bounded
def _fields(match: tuple, persist: tuple) -> tuple:
    """``(key, getter)`` of each watched field, in document order."""
    return tuple(map(_field, (*match, *persist)))


def _series_map(value) -> bool:
    return bool(value) and all(
        type(item) is Series for item in value.values()
    )


def _marked(component: "Persisted") -> _Fields:
    """The marks of ``component`` as it is."""
    marks = _Fields()
    marks.kind = kind = _kind(component)
    marks.fields = _fields(*kind[1:])
    for key, get in marks.fields:
        value = get(component)
        if isinstance(value, Persisted):
            marks[key] = _marked(value)
        elif type(value) is Series:
            marks[key] = _SeriesMark(value)
        elif type(value) is dict and _series_map(value):
            marks[key] = _MapMark(
                list(value), [_SeriesMark(item) for item in value.values()]
            )
        else:
            marks[key] = encode(value)
    return marks


def _journal(value, mark, path: list, ops: list):
    """Append the ops that bring ``mark`` up to ``value``; its new mark."""
    kind = type(value)
    if kind in _SCALARS:
        if kind is not type(mark) or value != mark:
            ops.append({"path": path, "set": value})
        return value
    if kind is Series:
        return _series(value, mark, path, ops)
    if isinstance(value, Persisted):
        if type(mark) is not _Fields or mark.kind != _kind(value):
            mark = _marked(value)
            ops.append({"path": path, "set": value.state_dict()})
            return mark
        for key, get in mark.fields:
            now = get(value)
            was = mark[key]
            kind = type(now)
            if kind is type(was) and kind in _SCALARS:
                if now != was:
                    ops.append({"path": path + [key], "set": now})
                    mark[key] = now
            else:
                mark[key] = _journal(now, was, path + [key], ops)
        return mark
    if kind is dict and _series_map(value):
        keys = list(value)
        if type(mark) is _MapMark and mark.keys == keys:
            path = path + ["values"]
            mark.marks = [
                _series(item, was, path + [index], ops)
                for index, (item, was) in enumerate(
                    zip(value.values(), mark.marks)
                )
            ]
            return mark
        _set(encode(value), mark, path, ops)
        return _MapMark(keys, [_SeriesMark(item) for item in value.values()])
    if kind is dict and _unchanged(value, mark):
        return mark
    encoded = encode(value)
    _set(encoded, mark, path, ops)
    return encoded


def _unchanged(value: dict, mark) -> bool:
    """Whether the dict ``value`` still equals ``mark``, its encoding at
    the last save — compared as :func:`delta` would, without encoding it
    again.  Keys and values the codec keeps as they are compare equal to
    their encoding; values it rewrites (a nested dict, a component)
    compare unequal, and the caller encodes."""
    if type(mark) is not dict or mark.keys() != _CODEC_KEYS:
        return False
    try:
        return (
            mark["keys"] == list(value)
            and mark["values"] == list(value.values())
        )
    except (TypeError, ValueError):     # an array's ambiguous truth
        return False


def _set(encoded, mark, path: list, ops: list) -> None:
    """The ops for a field journalled whole: :func:`delta`'s, if the last
    save left it encoded, else one ``set``."""
    if type(mark) in _MARKS:
        ops.append({"path": path, "set": encoded})
    else:
        _delta(mark, encoded, path, ops)


def _series(series: Series, mark, path: list, ops: list) -> _SeriesMark:
    """The op for one series, from its counters if it is the one the
    last save marked and was not rewritten since."""
    if (
        type(mark) is not _SeriesMark or mark.series is not series
        or mark.rewrites != series.rewrites
    ):
        _set(encode(series), mark, path, ops)
        return _SeriesMark(series)
    size = len(series)
    new = min(series.appended - mark.appended, size)
    kept = size - new
    drop = mark.length - kept
    if drop < 0:        # it grew past its counts: list.append(series, x)
        ops.append({"path": path, "set": encode(series)})
        return _SeriesMark(series)
    # As delta writes it: one new item slides even past a list it
    # empties; several slide onto what is left of the old list; a list
    # that only lost items, or lost them all to several, is set.
    items = series[kept:]
    if new == 1 or (new and kept):
        ops.append({"path": path, "slide": [drop, *encode(items)]})
    elif new or drop:
        ops.append({"path": path, "set": encode(series)})
    else:
        return mark
    del mark.texts[:drop]
    mark.texts += map(_text, items)
    mark.length, mark.appended = size, series.appended
    return mark


# -- a base, as text ---------------------------------------------------

def _text(value) -> str:
    """``json.dumps(value, sort_keys=True)``, short-cut for the items
    series hold: finite floats and tuples of them."""
    kind = type(value)
    if kind is float and value - value == 0.0:
        return float.__repr__(value)
    if kind is tuple:
        return "[" + ", ".join(map(_text, value)) + "]"
    return to_json(value)


def _texts(marks: _Fields) -> dict:
    """A component's fields as JSON text, by document key."""
    texts = {"v": _text(marks.kind[0])}
    for key, mark in marks.items():
        kind = type(mark)
        if kind is _Fields:
            texts[key] = _object(_texts(mark))
        elif kind is _SeriesMark:
            texts[key] = _list(mark)
        elif kind is _MapMark:
            texts[key] = _object({
                "keys": _text(encode(mark.keys)),
                "values": "[" + ", ".join(map(_list, mark.marks)) + "]",
            })
        else:
            texts[key] = _text(mark)
    return texts


def _list(mark: _SeriesMark) -> str:
    return "[" + ", ".join(mark.texts) + "]"


def _object(texts: dict) -> str:
    """The JSON object of ``texts``'s values, keys sorted."""
    return "{" + ", ".join(
        f"{encode_basestring_ascii(key)}: {texts[key]}"
        for key in sorted(texts)
    ) + "}"


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
