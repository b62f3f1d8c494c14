"""A save is the scalars plus the series' new items (``repro.persist``'s
``Series`` and ``Ledger``, behind ``CheckpointStore.save``).

The store no longer encodes the whole document and diffs it against the
last one; ``tests/checkpoint_oracle.py`` still does, and is the
reference here.  After every save, whatever the series went through,
the folded directory is the live ``state_dict()`` and the oracle's
document, and a base is the oracle's base to the byte.  A mutation the
series cannot count is a whole ``set``, never a silent slide.
"""

import heapq
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hstore.monitor import LoadMonitor
from repro.persist import REWRITES, SCHEMA, Persisted, Series
from repro.prediction import SeasonalNaivePredictor
from repro.prediction.online import OnlinePredictor
from repro.serve.persist import JOURNAL_FILE, CheckpointStore, read_checkpoint
from repro.telemetry import NULL_TELEMETRY, AccuracyTracker

from .checkpoint_oracle import OracleStore, base_bytes


def through_json(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def _rows(directory):
    path = directory / JOURNAL_FILE
    return [json.loads(line) for line in path.read_text().splitlines()]


def _expected(component, seq, chronicle_rows=0):
    """What ``read_checkpoint`` must return after save ``seq``."""
    return through_json(dict(
        component.state_dict(), schema=SCHEMA, seq=seq,
        chronicle_rows=chronicle_rows,
    ))


class Holder(Persisted):
    """``items`` beside a field large enough that a row stays a row."""

    PERSIST = ("n", "padding", "items")

    def __init__(self, items) -> None:
        self.n = 0
        self.padding = [0.5] * 400
        self.items = items


# ----------------------------------------------------------------------
# The counted series
# ----------------------------------------------------------------------


class TestSeries:
    def test_appends_count_and_front_trims_need_no_count(self):
        s = Series([1.0, 2.0])
        s.append(3.0)
        s.extend([4.0, 5.0])
        s += (6.0,)
        del s[:2]
        del s[0]
        s.pop(0)
        assert s == [5.0, 6.0]
        assert (s.appended, s.rewrites) == (4, 0)

    def test_maxlen_drops_the_oldest_as_a_deque_does(self):
        s = Series(range(5), maxlen=3)
        assert s == [2, 3, 4]
        s.append(5)
        s.extend([6, 7])
        assert s == [5, 6, 7] and s.appended == 3 and s.rewrites == 0

    def test_every_list_mutator_is_counted_or_a_rewrite(self):
        """A mutator ``list`` has and ``Series`` does not override would
        change the items behind the counters' back."""
        readers = {"copy", "count", "index"}
        public = {name for name in vars(list) if not name.startswith("_")}
        counted = {"append", "extend", "pop", "__iadd__", "__delitem__"}
        overridden = set(vars(Series))
        assert public - readers <= counted | set(REWRITES)
        for name in counted | set(REWRITES) | {"__init__"}:
            assert name in overridden, name


def _extend_a_slice(s, item):
    s[1:] += [item]


def _append_through_a_slice(s, item):
    s[len(s):] = [item]


def _reinit(s, item):
    s.__init__([item])


def _imul(s, item):
    s *= 2


#: Every way to change a list a series does not count, putting ``item``
#: in where the way puts something in; the last two go around the
#: series' methods and are caught because they leave it too long.
UNCOUNTED = {
    "item assignment": lambda s, item: s.__setitem__(1, item),
    "last item assignment": lambda s, item: s.__setitem__(-1, item),
    "slice assignment":
        lambda s, item: s.__setitem__(slice(1, 2), [item, item]),
    "in-place extend of a slice": _extend_a_slice,
    "append through a slice": _append_through_a_slice,
    "insert": lambda s, item: s.insert(0, item),
    "insert at the end": lambda s, item: s.insert(len(s), item),
    "remove": lambda s, item: s.remove(s[1]),
    "pop from the back": lambda s, item: s.pop(),
    "pop from the middle": lambda s, item: s.pop(1),
    "del an item": lambda s, item: s.__delitem__(1),
    "del the last item": lambda s, item: s.__delitem__(-1),
    "del a tail": lambda s, item: s.__delitem__(slice(2, None)),
    "del every other": lambda s, item: s.__delitem__(slice(None, None, 2)),
    "clear": lambda s, item: s.clear(),
    "sort": lambda s, item: s.sort(),
    "reverse": lambda s, item: s.reverse(),
    "*=": _imul,
    "a second __init__": _reinit,
    "list.append around the counts": lambda s, item: list.append(s, item),
    "heapq.heappush": lambda s, item: heapq.heappush(s, item),
}


class TestMutationGuards:
    @pytest.mark.parametrize("mutate", list(UNCOUNTED), ids=list(UNCOUNTED))
    def test_an_uncounted_mutation_sets_the_series_whole(
        self, mutate, tmp_path
    ):
        holder = Holder(Series([3.0, 1.0, 2.0, 4.0]))
        store = CheckpointStore(tmp_path)
        store.save(holder, [])
        UNCOUNTED[mutate](holder.items, 5.0)
        holder.items.append(6.0)        # a count that must not be trusted
        store.save(holder, [])
        (row,) = _rows(tmp_path)
        assert row["ops"] == [{"path": ["items"], "set": list(holder.items)}]
        assert read_checkpoint(tmp_path) == _expected(holder, 2)

    @pytest.mark.parametrize("mutate", list(UNCOUNTED), ids=list(UNCOUNTED))
    def test_a_rewrite_inside_a_window_sets_that_window(
        self, mutate, tmp_path
    ):
        tracker = AccuracyTracker(window=4)
        for slot in range(3):
            tracker.record_forecast(slot, [1.0 + slot, 2.0])
            tracker.observe(slot + 1, 1.5)
        holder = Holder(tracker)
        store = CheckpointStore(tmp_path)
        store.save(holder, [])
        window = tracker._windows[("predictor", 1)]
        UNCOUNTED[mutate](window, (9.0, None, 9.0))
        store.save(holder, [])
        (row,) = _rows(tmp_path)
        assert row["ops"] == [{
            "path": ["items", "windows", "values", 0],
            "set": list(map(list, window)),
        }]
        assert read_checkpoint(tmp_path) == _expected(holder, 2)

    def test_counted_changes_slide(self, tmp_path):
        holder = Holder(Series([3.0, 1.0, 2.0, 4.0], maxlen=5))
        store = CheckpointStore(tmp_path)
        store.save(holder, [])
        for change in (
            lambda s: s.append(5.0),                    # to maxlen
            lambda s: s.append(6.0),                    # evicts one
            lambda s: (s.pop(0), s.extend([7.0, 8.0])),
            lambda s: (s.__delitem__(slice(0, 2)), s.append(9.0)),
        ):
            change(holder.items)
            store.save(holder, [])
        assert [row["ops"] for row in _rows(tmp_path)] == [
            [{"path": ["items"], "slide": [0, 5.0]}],
            [{"path": ["items"], "slide": [1, 6.0]}],
            [{"path": ["items"], "slide": [2, 7.0, 8.0]}],
            [{"path": ["items"], "slide": [2, 9.0]}],
        ]
        assert read_checkpoint(tmp_path) == _expected(holder, 5)

    def test_a_replaced_series_is_set_and_a_quiet_one_writes_nothing(
        self, tmp_path
    ):
        holder = Holder(Series([1.0, 2.0]))
        store = CheckpointStore(tmp_path)
        store.save(holder, [])
        holder.n = 1
        store.save(holder, [])
        holder.items = Series([7.0, 8.0])       # the same counts
        store.save(holder, [])
        holder.items = Series([1.0, 2.0, 3.0])
        store.save(holder, [])
        holder.items = [1.0, 2.0, 3.0, 4.0]     # not a series at all
        store.save(holder, [])
        assert [row["ops"] for row in _rows(tmp_path)] == [
            [{"path": ["n"], "set": 1}],
            [{"path": ["items"], "set": [7.0, 8.0]}],
            [{"path": ["items"], "set": [1.0, 2.0, 3.0]}],
            [{"path": ["items"], "set": [1.0, 2.0, 3.0, 4.0]}],
        ]


# ----------------------------------------------------------------------
# Against the oracle: the four series' holders, any history
# ----------------------------------------------------------------------


class Holders(Persisted):
    """The components that hold the plane's series, small enough that a
    few dozen steps slide every window, trim the history and compact."""

    PERSIST = ("steps", "padding", "tracker", "online", "monitor")

    def __init__(self) -> None:
        self.steps = 0
        self.padding = [0.5] * 300      # a base takes several rows
        self.tracker = AccuracyTracker(window=3)
        self.online = OnlinePredictor(
            SeasonalNaivePredictor(2), refit_every=3, max_history=6,
        )
        self.monitor = LoadMonitor(1.0, telemetry=NULL_TELEMETRY)


#: Values drawn from a pool of three: runs of equal items are common.
VALUES = st.sampled_from([0.0, 1.0, 2.5])
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), VALUES),
        st.tuples(st.just("fit"), st.lists(VALUES, min_size=4, max_size=8)),
        st.tuples(st.just("refit")),
        st.tuples(
            st.just("pair"), st.sampled_from(["a", "b"]),
            st.lists(VALUES, min_size=1, max_size=3), VALUES,
        ),
        st.tuples(st.just("rate"), VALUES, st.integers(0, 3)),
        st.tuples(st.just("save")),
        st.tuples(st.just("reload")),
    ),
    max_size=60,
)


def _run(steps, directory):
    """Play ``steps`` with a save after each; check every save against
    the oracle.  Returns the ops of every row written, and how many
    times a base was rewritten because the journal had grown."""
    holders, oracle = Holders(), OracleStore()
    store = CheckpointStore(directory)
    written, compactions = [], 0
    for step in steps:
        kind, fits = step[0], holders.online.fit_count
        if kind == "observe":
            holders.online.observe(step[1])
        elif kind == "fit":
            holders.online.fit(step[1])
        elif kind == "refit":
            holders.online.refit_now()
        elif kind == "pair":
            _, name, predicted, actual = step
            slot = holders.steps
            holders.tracker.record_forecast(slot, predicted, predictor=name)
            holders.tracker.observe(slot + 1, actual)
        elif kind == "rate":
            _, count, gap = step
            monitor = holders.monitor
            monitor.record(monitor._interval_start + gap + 0.5, count)
        elif kind == "reload":
            compactions += store.compactions
            store = CheckpointStore(directory)
            if store.checkpoint_path.exists():
                doc, _ = store.load()
                holders = Holders()
                holders.restore_state(doc)
                oracle.forget()
            continue
        if holders.online.fit_count != fits:
            # A refit's window is the history it fitted on, whether it
            # slid there or was replaced.
            assert holders.online._fit_window == holders.online._history
        holders.steps += 1
        store.save(holders, [])
        oracle.save(holders, 0)
        seq = oracle.seq
        expected = _expected(holders, seq)
        assert read_checkpoint(directory) == expected, step
        assert oracle.document() == expected
        if store.journal_rows == 0:
            assert store.checkpoint_path.read_bytes() == base_bytes(
                holders.state_dict(), seq, 0
            )
        else:
            written.append(_rows(directory)[-1]["ops"])
    return written, compactions + store.compactions


@settings(max_examples=300, deadline=None)
@given(steps=STEPS)
def test_every_save_folds_to_the_state_and_every_base_is_the_oracles(steps):
    with tempfile.TemporaryDirectory() as directory:
        _run(steps, pathlib.Path(directory))


def test_the_property_reaches_every_case(tmp_path):
    """One fixed history through every case the property is for."""
    steps = (
        [("rate", 1.0, 1)] + [("observe", 1.0)] * 4     # first fit
        + [("pair", "a", [1.0, 2.5], 1.0)] * 4          # a window evicts
        + [("observe", 2.5)] * 3                        # trims, a refit
        + [("rate", 0.0, 3)]                            # a run of zeros
        + [("fit", [1.0, 1.0, 2.5, 1.0])]               # replaced window
        + [("reload",), ("observe", 0.0), ("pair", "b", [1.0], 0.0)]
        + [("rate", 2.5, 1), ("save",)] * 12
    )
    written, compactions = _run(steps, tmp_path)
    ops = [op for row in written for op in row]

    def kinds(path):
        return [
            ("set", None) if "set" in op else ("slide", len(op["slide"]) - 1)
            for op in ops if op["path"] == path
        ]

    fit_window = kinds(["online", "fit_window"])
    assert ("slide", 3) in fit_window and ("set", None) in fit_window
    assert ("slide", 1) in kinds(["tracker", "windows", "values", 0])
    assert ("slide", 3) in kinds(["monitor", "rates"])
    assert any(kind == ("slide", 1) for kind in kinds(["online", "history"]))
    assert ["tracker", "windows"] in [op["path"] for op in ops]  # new key
    assert CheckpointStore(tmp_path).load()[0]["steps"] == len(steps) - 1
    assert compactions >= 2


# ----------------------------------------------------------------------
# Against the oracle: a whole serve run, byte for byte
# ----------------------------------------------------------------------


def test_a_serve_run_writes_the_oracles_rows_and_bases(
    tmp_path, monkeypatch
):
    """The drift scenario's load values have no runs, so ``delta``'s
    alignment finds every slide: each row and each base the plane
    writes is the one the whole-document save wrote."""
    import repro.serve.plane as plane_module
    from repro.experiments.serve import (
        SERVE_DAYS, SERVE_SEED, SERVE_TRIGGER, _run_plane,
    )

    oracle, seen = OracleStore(), {"rows": 0, "bases": 0}

    class Checked(CheckpointStore):
        def save(self, component, records):
            super().save(component, records)
            oracle.save(component, len(records))
            if self.journal_rows == 0:
                assert oracle.rows == []
                assert self.checkpoint_path.read_bytes() == oracle.base
                seen["bases"] += 1
            else:
                journal = self.journal_path.read_bytes()
                assert journal.splitlines(keepends=True) == oracle.rows
                seen["rows"] += 1
            assert read_checkpoint(self.directory) == _expected(
                component, self.saves, len(records)
            )

    monkeypatch.setattr(plane_module, "CheckpointStore", Checked)
    summary, _ = _run_plane(
        SERVE_SEED, SERVE_TRIGGER, None, SERVE_DAYS,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    assert seen["rows"] + seen["bases"] == summary["checkpoint_saves"] == 144
    assert seen["rows"] > 0 and seen["bases"] > 1
