"""Tests for CSV trace serialisation."""

import io

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workload import (
    LoadTrace,
    b2w_like_trace,
    read_trace_csv,
    write_trace_csv,
)

from .fixtures import trace_from_csv_string, trace_to_csv_string


class TestRoundTrip:
    def test_values_and_metadata_survive(self, tmp_path):
        trace = LoadTrace(
            np.array([1.5, 2.25, 3.0]), slot_seconds=300.0, name="my-trace"
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded.name == "my-trace"
        assert loaded.slot_seconds == 300.0
        assert np.allclose(loaded.values, trace.values)

    def test_string_round_trip(self):
        trace = b2w_like_trace(n_days=1, slot_seconds=3600.0, seed=3)
        loaded = trace_from_csv_string(trace_to_csv_string(trace))
        assert np.allclose(loaded.values, trace.values, rtol=1e-5)

    def test_file_object_round_trip(self):
        trace = LoadTrace(np.array([10.0, 20.0]), 60.0)
        buffer = io.StringIO()
        write_trace_csv(trace, buffer)
        buffer.seek(0)
        loaded = read_trace_csv(buffer)
        assert list(loaded.values) == [10.0, 20.0]


class TestTolerantParsing:
    def test_plain_csv_without_metadata(self):
        loaded = trace_from_csv_string("slot,value\n0,5\n1,6\n")
        assert loaded.slot_seconds == 60.0  # default
        assert list(loaded.values) == [5.0, 6.0]

    def test_headerless_single_column(self):
        loaded = trace_from_csv_string("5\n6\n7\n")
        assert list(loaded.values) == [5.0, 6.0, 7.0]

    def test_blank_lines_ignored(self):
        loaded = trace_from_csv_string("slot,value\n\n0,5\n\n1,6\n")
        assert list(loaded.values) == [5.0, 6.0]


class TestErrors:
    def test_empty_file(self):
        with pytest.raises(SimulationError):
            trace_from_csv_string("")

    def test_out_of_order_slots(self):
        with pytest.raises(SimulationError):
            trace_from_csv_string("slot,value\n0,5\n2,6\n")

    def test_bad_value(self):
        with pytest.raises(SimulationError):
            trace_from_csv_string("slot,value\n0,notanumber\n")

    def test_bad_metadata(self):
        with pytest.raises(SimulationError):
            trace_from_csv_string("# slot_seconds: soon\nslot,value\n0,1\n")

    def test_negative_value_rejected_by_trace(self):
        with pytest.raises(SimulationError):
            trace_from_csv_string("slot,value\n0,-5\n")
