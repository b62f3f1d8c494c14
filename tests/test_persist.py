"""The one persistence mechanism (``repro.persist``): codec, gate, and a
round-trip property over every class that declares a watchlist.

The behavioural halves — a resumed run converges, a restored move
replays bit-exactly, restored forecasts still harvest — live with the
components (``test_serve_resume``, ``test_reconfiguration``,
``test_depository_differential``, ``test_predictor_zoo``).  This file
pins the mechanism itself.
"""

import copy
import dataclasses
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.controller import PredictiveController
from repro.elasticity import PStoreStrategy, ReactiveStrategy
from repro.errors import PredictionError, SimulationError
from repro.hstore.monitor import LoadMonitor
from repro.persist import (
    SCHEMA, Persisted, _field, current, decode, delta, encode, patch,
)
from repro.prediction import LastValuePredictor, SeasonalNaivePredictor
from repro.prediction.base import Predictor
from repro.prediction.online import OnlinePredictor
from repro.serve import ControlPlane, Depository, ServeOptions
from repro.serve.controller import OnlineController
from repro.serve.ingest import LoadReport
from repro.squall.migrator import Reconfiguration
from repro.telemetry import AccuracyTracker, Telemetry
from repro.telemetry.accuracy import NullAccuracyTracker
from repro.telemetry.runtime import NullTelemetry

CONFIG = dataclasses.replace(
    default_config().with_interval(300.0),
    d_seconds=default_config().d_seconds * 8,   # moves span many slots
)


def through_json(doc):
    """What the store does to a document between save and load."""
    return json.loads(json.dumps(doc, sort_keys=True))


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------


class TestCodec:
    def test_dict_order_and_key_types_survive_sorted_json(self):
        value = {"zeta": 1.0, "alpha": 2.0}
        assert list(decode(through_json(encode(value)))) == ["zeta", "alpha"]
        by_int = {7: "a", 3: "b"}
        assert decode(through_json(encode(by_int))) == by_int
        by_tuple = {("spar", 2): [1, 2], ("spar", 1): []}
        back = decode(through_json(encode(by_tuple)))
        assert back == by_tuple and list(back) == list(by_tuple)

    def test_sequences_flatten_to_lists(self):
        window = deque([(1.0, None, 2.0), (3.0, 4.0, 5.0)], maxlen=4)
        assert through_json(encode(window)) == [
            [1.0, None, 2.0], [3.0, 4.0, 5.0],
        ]
        assert encode((1, "a")) == [1, "a"]
        assert encode(np.arange(3.0)) == [0.0, 1.0, 2.0]
        assert through_json(encode([np.float64(1.5), {"k": (1,)}])) == [
            1.5, {"keys": ["k"], "values": [[1]]},
        ]

    def test_a_copy_not_an_alias(self):
        rates = [1.0, 2.0]
        doc = encode(rates)
        rates.append(3.0)
        assert doc == [1.0, 2.0]

    def test_unknown_type_is_refused(self):
        with pytest.raises(SimulationError, match="cannot persist a set"):
            encode({1, 2})


# ----------------------------------------------------------------------
# delta / patch: what changed between two encoded documents
# ----------------------------------------------------------------------

_SERIES = [float(n) for n in range(10)]


def _slices(of):
    return st.tuples(st.integers(0, 10), st.integers(0, 10)).map(
        lambda cut: of[min(cut):max(cut)]
    )


#: Values the codec produces, drawn from small pools so that two draws
#: are often equal, a slide apart, or the same mapping with one entry
#: moved on.
_FIELDS = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, "a", 2.5]),
    _slices(_SERIES),
    _slices([(n, None, n + 0.5) for n in range(10)]),
    st.builds(
        lambda keys, values: encode(dict(zip(keys, values))),
        _slices(["w", "x", "y", "z"]),
        st.one_of(
            st.lists(_slices(_SERIES), min_size=4, max_size=4),
            st.lists(st.sampled_from(_SERIES), min_size=4, max_size=4),
        ),
    ),
)
#: Two lists from a pool of four values (so repeats abound): the second
#: a slide of the first (some items dropped, any number appended), or
#: any list at all (grown, shrunk, or changed in place).
_ITEMS = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_LIST_PAIRS = st.one_of(
    st.tuples(
        st.lists(_ITEMS, max_size=12), st.lists(_ITEMS, max_size=12)
    ),
    st.tuples(
        st.lists(_ITEMS, max_size=12), st.integers(0, 12),
        st.lists(_ITEMS, max_size=6),
    ).map(lambda cut: (cut[0], cut[0][cut[1]:] + cut[2])),
)
_DOCS = st.fixed_dictionaries({
    "v": st.just(1), "a": _FIELDS, "b": _FIELDS,
    "inner": st.one_of(
        st.none(), st.fixed_dictionaries({"v": st.just(1), "c": _FIELDS}),
    ),
})


class TestDelta:
    def test_nothing_changed_is_no_ops(self):
        monitor, _ = _monitor()
        assert delta(monitor.state_dict(), monitor.state_dict()) == []

    def test_a_series_that_grew_or_slid_is_one_item(self):
        assert delta({"r": [1.0, 2.0]}, {"r": [1.0, 2.0, 3.0]}) == [
            {"path": ["r"], "slide": [0, 3.0]}
        ]
        assert delta({"r": [(1, 2), (3, 4)]}, {"r": [(3, 4), (5, 6)]}) == [
            {"path": ["r"], "slide": [1, (5, 6)]}
        ]
        assert delta({"r": []}, {"r": [1.0]}) == [
            {"path": ["r"], "slide": [0, 1.0]}
        ]
        # Several new items (a refit's window) are one slide too.
        assert delta({"r": [1.0]}, {"r": [1.0, 2.0, 3.0]}) == [
            {"path": ["r"], "slide": [0, 2.0, 3.0]}
        ]
        assert delta({"r": [1.0, 2.0, 3.0]}, {"r": [3.0, 4.0, 5.0]}) == [
            {"path": ["r"], "slide": [2, 4.0, 5.0]}
        ]
        # Nothing kept, nothing gained, or one changed in place is the
        # whole list.
        assert delta({"r": [1.0, 2.0]}, {"r": [3.0, 4.0, 5.0]}) == [
            {"path": ["r"], "set": [3.0, 4.0, 5.0]}
        ]
        assert delta({"r": [1.0, 2.0, 3.0]}, {"r": [2.0, 3.0]}) == [
            {"path": ["r"], "set": [2.0, 3.0]}
        ]
        assert delta({"r": [1.0, 2.0]}, {"r": [1.0, 5.0]}) == [
            {"path": ["r"], "set": [1.0, 5.0]}
        ]

    def test_a_mapping_is_entered_while_its_keys_hold(self):
        old = encode({("spar", 1): [(1, 2)], ("spar", 2): [(3, 4)]})
        new = encode({("spar", 1): [(1, 2)], ("spar", 2): [(3, 4), (5, 6)]})
        assert delta({"w": old}, {"w": new}) == [
            {"path": ["w", "values", 1], "slide": [0, (5, 6)]}
        ]
        other = encode({("spar", 1): [(1, 2)], ("ar", 2): [(3, 4), (5, 6)]})
        assert delta({"w": old}, {"w": other}) == [
            {"path": ["w"], "set": other}
        ]

    def test_a_mapping_of_scalars_is_one_list(self):
        old = encode({"n0": 10.0, "n1": 10.0, "n2": 10.0})
        new = encode({"n0": 70.0, "n1": 70.0, "n2": 10.0})
        assert delta({"clocks": old}, {"clocks": new}) == [
            {"path": ["clocks", "values"], "set": [70.0, 70.0, 10.0]}
        ]

    def test_a_component_that_comes_and_goes_is_set_whole(self):
        gone, live = {"v": 1, "move": None}, {"v": 1, "move": {"v": 1, "n": 2}}
        assert delta(gone, live) == [{"path": ["move"], "set": live["move"]}]
        assert delta(live, gone) == [{"path": ["move"], "set": None}]

    def test_a_scalar_of_another_type_is_a_change(self):
        assert delta({"n": 1}, {"n": 1.0}) == [{"path": ["n"], "set": 1.0}]
        assert delta({"n": 1}, {"n": True}) == [{"path": ["n"], "set": True}]

    def test_other_keys_at_the_top_replace_the_document(self):
        assert delta({"a": 1}, {"b": 1}) == [{"path": [], "set": {"b": 1}}]
        assert patch({"a": 1}, [{"path": [], "set": {"b": 1}}]) == {"b": 1}

    @given(old=_DOCS, new=_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_patching_the_old_document_gives_the_new_one(self, old, new):
        ops = delta(old, new)
        patched = patch(through_json(old), through_json(ops))
        assert json.dumps(patched, sort_keys=True) == json.dumps(
            new, sort_keys=True
        )

    @given(lists=_LIST_PAIRS)
    @settings(max_examples=500, deadline=None)
    def test_a_list_patches_back_whatever_became_of_it(self, lists):
        old, new = lists
        ops = delta({"r": old}, {"r": new})
        assert patch(copy.deepcopy({"r": old}), ops) == {"r": new}
        assert patch(through_json({"r": old}), through_json(ops)) == {
            "r": new
        }
        for op in ops:
            if "slide" in op:       # a drop, and no more items than new
                assert 1 <= len(op["slide"]) - 1 <= len(new)

    @given(
        old=st.lists(st.integers(0, 1000), unique=True, max_size=12),
        drop=st.integers(0, 12),
        added=st.lists(st.integers(1001, 2000), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_kept_tail_is_always_found(self, old, drop, added):
        kept = old[drop:]
        ops = delta({"r": old}, {"r": kept + added})
        if kept:
            assert ops == [{"path": ["r"], "slide": [drop, *added]}]
        assert patch({"r": list(old)}, ops) == {"r": kept + added}

    @pytest.mark.parametrize(
        "op,says",
        [
            ({"path": ["n", "x"], "set": 1}, "int has no 'x'"),
            ({"path": ["r", 2], "set": 1}, "list has no 2"),
            ({"path": ["r", "0"], "set": 1}, "list has no '0'"),
            ({"path": ["gone"], "set": 1}, "dict has no 'gone'"),
            ({"path": ["r"], "slide": [3, 1.0]}, "no list that long"),
            ({"path": ["r"], "slide": [-1, 1.0]}, "no list that long"),
            ({"path": ["n"], "slide": [0, 1.0]}, "no list that long"),
            ({"path": ["r"], "slide": [1]}, r"slide \[1\] at \['r'\]: not"),
            ({"path": ["r"], "slide": []}, r"slide \[\] at \['r'\]: not"),
            ({"path": ["r"], "slide": 5}, r"slide 5 at \['r'\]: not"),
            ({"path": ["r"], "slide": "ab"}, "slide 'ab' at"),
        ],
    )
    def test_an_op_that_does_not_fit_is_refused(self, op, says):
        with pytest.raises(ValueError, match=says):
            patch({"n": 1, "r": [1.0, 2.0]}, [op])


# ----------------------------------------------------------------------
# One builder per Persisted class: (an instance with state, a blank one)
# ----------------------------------------------------------------------


def _monitor():
    monitor = LoadMonitor(60.0)
    for t, count in ((10.0, 5.0), (70.0, 7.0), (400.0, 1.0), (410.0, 2.0)):
        monitor.record(t, count)
    return monitor, LoadMonitor(60.0)


def _depository():
    dep = Depository(60.0, node_timeout_intervals=3)
    for node, time in (("b", 10.0), ("a", 20.0), ("b", 700.0), ("c", 710.0)):
        dep.add(LoadReport(time=time, count=3.0, node=node))
        dep.flush()
    assert dep.evictions == 1
    return dep, Depository(60.0, node_timeout_intervals=3)


def _predictor():
    return SeasonalNaivePredictor(4).fit([1.0, 2.0, 3.0, 4.0] * 3), (
        SeasonalNaivePredictor(4)
    )


def _online_predictor():
    def blank():
        return OnlinePredictor(
            SeasonalNaivePredictor(4), refit_every=6, max_history=40
        )

    online = blank()
    online.observe_many([10.0, 20.0, 30.0, 40.0] * 5 + [99.0, 98.0])
    return online, blank()


def _accuracy():
    tracker = AccuracyTracker(window=4)
    tracker.configure(q=100.0)
    tracker.record_forecast(0, [10.0, 12.0], inflated=[11.5, 13.8])
    tracker.observe(1, 11.0)
    tracker.record_forecast(1, [14.0], predictor="spar", snapshot_id="fc-1")
    return tracker, AccuracyTracker(window=9)


def _null_accuracy():
    return NullAccuracyTracker(), NullAccuracyTracker()


def _reactive():
    def blank():
        return ReactiveStrategy(CONFIG, scale_in_patience=6)

    strategy = blank()
    for slot in range(3):
        strategy.decide(slot, [1.0], 4)         # underloaded: streak = 3
    return strategy, blank()


def _planner():
    def blank():
        return PredictiveController(CONFIG, LastValuePredictor().fit([1.0]))

    planner = blank()
    planner._scale_in_streak, planner._last_snapshot_id = 2, "fc-600-00007"
    return planner, blank()


def _strategy():
    def blank():
        return PStoreStrategy(CONFIG, LastValuePredictor().fit([1.0]))

    strategy = blank()
    strategy.controller._scale_in_streak = 1
    return strategy, blank()


def _move():
    tel = NullTelemetry()
    move = Reconfiguration(CONFIG, 2, 5, CONFIG.migration_rate_kbps * 4, tel)
    move.start(600.0)
    for _ in range(3):
        move.step_slot(CONFIG.interval_seconds)
    return move, Reconfiguration(CONFIG, 1, 2, 1.0, tel)


def _controller(telemetry=None):
    def blank():
        return OnlineController(
            CONFIG, LastValuePredictor().fit([1000.0]), initial_machines=2,
            telemetry=telemetry if telemetry is not None else NullTelemetry(),
        )

    controller = blank()
    history = [1000.0]
    for slot in range(1, 5):
        history.append(30000.0)
        controller.on_interval(slot, history, (slot + 1) * 300.0)
    assert controller.migrating and controller._alloc.move.half_steps > 0
    return controller, blank()


def _plane():
    def blank():
        telemetry = Telemetry()
        return ControlPlane(
            CONFIG, OnlinePredictor(LastValuePredictor(), refit_every=4),
            source=None, options=ServeOptions(quiet=True, status_every=0),
            telemetry=telemetry,
        )

    plane = blank()
    for slot in range(6):
        plane.depository.add(LoadReport(
            time=(slot + 0.5) * 300.0, count=3e6 * (slot + 1), node="n0",
        ))
        if plane.depository.flush():
            plane._dispatch()
    assert plane._processed == 5 and plane.controller.migrating
    return plane, blank()


BUILDERS = {
    LoadMonitor: _monitor,
    Depository: _depository,
    Predictor: _predictor,
    OnlinePredictor: _online_predictor,
    AccuracyTracker: _accuracy,
    NullAccuracyTracker: _null_accuracy,
    ReactiveStrategy: _reactive,
    PredictiveController: _planner,
    PStoreStrategy: _strategy,
    Reconfiguration: _move,
    OnlineController: _controller,
    ControlPlane: _plane,
}


def _declaring_classes():
    """Every class under ``repro`` with a watchlist of its own."""
    found, stack = set(), [Persisted]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            declares = {"PERSIST", "PERSIST_MATCH"} & set(vars(cls))
            if cls.__module__.startswith("repro.") and (
                declares or cls is NullAccuracyTracker
            ):
                found.add(cls)
    return found


def _mutable_ids(value, into):
    """ids of every mutable container reachable from a watched value."""
    if isinstance(value, Persisted):
        for attr in (*value.PERSIST_MATCH, *value.PERSIST):
            _mutable_ids(_field(attr)[1](value), into)
    elif isinstance(value, (list, dict, deque, np.ndarray)):
        into.add(id(value))
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple, deque)):
        for item in value:
            _mutable_ids(item, into)


class TestRoundTrip:
    def test_every_declaring_class_has_a_builder(self):
        assert _declaring_classes() == set(BUILDERS)

    @pytest.mark.parametrize(
        "cls", sorted(BUILDERS, key=lambda c: c.__name__),
        ids=lambda c: c.__name__,
    )
    def test_state_survives_the_store(self, cls):
        obj, fresh = BUILDERS[cls]()
        doc = obj.state_dict()
        assert doc["v"] == cls.PERSIST_VERSION
        fresh.restore_state(through_json(doc))
        assert fresh.state_dict() == doc

    @pytest.mark.parametrize(
        "cls", sorted(BUILDERS, key=lambda c: c.__name__),
        ids=lambda c: c.__name__,
    )
    def test_the_document_shares_nothing_mutable_with_the_object(self, cls):
        """The store keeps the last document to compare the next with:
        a list in it that is also the live one would change under it."""
        obj, _ = BUILDERS[cls]()
        live, kept = set(), set()
        _mutable_ids(obj, live)
        _mutable_ids(obj.state_dict(), kept)
        assert kept and not live & kept

    def test_restore_lands_on_the_same_behaviour(self):
        """Not just the same document: the derived state is back too."""
        move, fresh = _move()
        fresh.restore_state(through_json(move.state_dict()))
        assert (
            fresh.migration.data_fractions().tobytes()
            == move.migration.data_fractions().tobytes()
        )
        tracker, blank = _accuracy()
        blank.restore_state(through_json(tracker.state_dict()))
        window = blank._windows[("predictor", 1)]
        assert window.maxlen == 4 and type(window[0]) is tuple
        assert blank.errors("predictor", 1) == tracker.errors("predictor", 1)
        online, other = _online_predictor()
        other.restore_state(through_json(online.state_dict()))
        np.testing.assert_array_equal(
            other.predict_next(3), online.predict_next(3)
        )

    def test_a_dotted_field_is_restored_onto_its_owner(self):
        """A dotted plain field and a dotted ``None`` component land on
        the collaborator that holds them, keyed by their last part."""

        class Owner:
            def __init__(self):
                self.count, self.move = 0, None

        class Holder(Persisted):
            PERSIST = ("_owner.count", "_owner.move")

            def __init__(self):
                self._owner = Owner()

            def _revive(self, attr):
                return _move()[1]

        held = Holder()
        held._owner.count, held._owner.move = 3, _move()[0]
        doc = through_json(held.state_dict())
        assert set(doc) == {"v", "count", "move"}
        fresh = Holder()
        fresh.restore_state(doc)
        assert fresh._owner.count == 3 and fresh._owner.move is not None
        assert fresh.state_dict() == doc
        assert set(vars(fresh)) == {"_owner"}
        held._owner.move = None
        fresh.restore_state(through_json(held.state_dict()))
        assert fresh._owner.move is None

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from("abcde"),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=9),
                st.booleans(),
            ),
            max_size=50,
        ),
        timeout=st.sampled_from([0, 1, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_depository_anywhere_in_a_stream(self, steps, timeout):
        """add / flush / evict / recover in any interleaving, then the
        round trip: same document, same watermark, same eviction order."""
        dep = Depository(60.0, node_timeout_intervals=timeout)
        clocks = dict.fromkeys("abcde", 0)
        for node, ahead, count, flush in steps:
            clocks[node] += ahead               # 0: a same-time duplicate
            dep.add(LoadReport(
                time=clocks[node] * 15.0, count=float(count), node=node,
            ))
            if flush:
                dep.flush()
        doc = dep.state_dict()
        fresh = Depository(60.0, node_timeout_intervals=timeout)
        fresh.restore_state(through_json(doc))
        assert fresh.state_dict() == doc
        assert list(fresh._clocks) == list(dep._clocks)
        assert fresh.watermark == dep.watermark
        # Order numbers are re-issued densely; the order itself holds.
        assert sorted(fresh._order, key=fresh._order.get) == sorted(
            dep._order, key=dep._order.get
        )
        # The clock groups come back whole, and the restored heap holds
        # each live clock once: no dead value, no duplicate.
        assert fresh._at == dep._at
        live = {clock for clock in dep._heap if clock in dep._at}
        assert live == set(dep._at)
        assert sorted(fresh._heap) == sorted(live)


# ----------------------------------------------------------------------
# The gate: what a restore refuses, and how it says so
# ----------------------------------------------------------------------


class TestGate:
    def _doc(self):
        return through_json(_monitor()[0].state_dict())

    def test_a_version_from_the_future_is_rejected(self):
        doc = self._doc()
        doc["v"] = LoadMonitor.PERSIST_VERSION + 1
        with pytest.raises(SimulationError, match="^v: version 2"):
            LoadMonitor(60.0).restore_state(doc)

    @pytest.mark.parametrize("version", [None, 0, "1", True, 1.0])
    def test_a_version_that_is_no_version_is_rejected(self, version):
        doc = self._doc()
        doc["v"] = version
        with pytest.raises(SimulationError, match="^v: "):
            LoadMonitor(60.0).restore_state(doc)

    def test_a_missing_field_is_named(self):
        doc = self._doc()
        del doc["rates"]
        with pytest.raises(SimulationError, match="^rates: missing"):
            LoadMonitor(60.0).restore_state(doc)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("closed", "x"), ("closed", None), ("closed", True),
            ("closed", 1.5), ("current_count", "1"), ("rates", {"a": 1}),
            ("rates", 3),
        ],
    )
    def test_an_ill_typed_field_is_named(self, field, value):
        doc = self._doc()
        doc[field] = value
        with pytest.raises(SimulationError, match=f"^{field}: "):
            LoadMonitor(60.0).restore_state(doc)

    def test_an_integer_is_a_fine_float(self):
        doc = self._doc()
        doc["current_count"] = 3
        monitor = LoadMonitor(60.0)
        monitor.restore_state(doc)
        assert type(monitor._current_count) is float

    def test_unknown_fields_ride_along_unread(self):
        doc = self._doc()
        doc["written_by_a_later_minor"] = [1, 2, 3]
        LoadMonitor(60.0).restore_state(doc)

    def test_a_mismatch_is_input_validation(self):
        with pytest.raises(SimulationError, match="interval_seconds.*match"):
            LoadMonitor(300.0).restore_state(self._doc())
        doc = _predictor()[0].state_dict()
        with pytest.raises(PredictionError, match="^type: .*LastValue"):
            LastValuePredictor().restore_state(doc)

    def test_nested_errors_carry_the_path(self):
        controller, fresh = _controller()
        doc = through_json(controller.state_dict())
        doc["move"]["half_steps"] = "many"
        with pytest.raises(SimulationError, match=r"^move\.half_steps: "):
            fresh.restore_state(doc)
        doc = through_json(controller.state_dict())
        doc["strategy"]["controller"]["v"] = 7
        with pytest.raises(
            SimulationError, match=r"^strategy\.controller\.v: version 7"
        ):
            fresh.restore_state(doc)

    def test_state_for_a_strategy_needs_a_fitted_predictor(self):
        """The strategy is built with the controller, so a model that is
        neither fitted nor learning is refused before any state is."""
        with pytest.raises(SimulationError, match="must be fitted"):
            OnlineController(
                CONFIG, LastValuePredictor(), telemetry=NullTelemetry()
            )

    def test_a_malformed_mapping_is_named(self):
        dep, fresh = _depository()
        doc = through_json(dep.state_dict())
        doc["clocks"] = {"keys": ["a", "b"], "values": [1.0]}
        with pytest.raises(SimulationError, match="^clocks: malformed"):
            fresh.restore_state(doc)
        doc["clocks"] = {"a": 1.0}
        with pytest.raises(SimulationError, match="^clocks: malformed"):
            fresh.restore_state(doc)


class TestSchemaGate:
    def test_current_documents_pass_through(self):
        doc = {"schema": SCHEMA, "v": 1}
        assert current(doc) is doc

    @pytest.mark.parametrize(
        "doc", [[], "x", {}, {"schema": "pstore.serve-checkpoint/v3"}]
    )
    def test_anything_else_is_rejected(self, doc):
        with pytest.raises(SimulationError, match="schema"):
            current(doc)

    def test_a_v1_document_missing_a_component_is_malformed(self):
        with pytest.raises(SimulationError, match="malformed v1.*monitor"):
            current({
                "schema": "pstore.serve-checkpoint/v1",
                "depository": {"clocks": [[], []], "buffer": [],
                               "evicted": {}, "late_by_node": {},
                               "interval_seconds": 60.0},
                "accuracy": {}, "predictor": {}, "interval_seconds": 60.0,
                "processed": 0,
                "controller": {"migration": None, "strategy": None,
                               "reactive_below_streak": 0},
            })
