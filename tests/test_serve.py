"""Tests for ``repro.serve`` — the online predictive control plane.

Covers the report sources, the watermark depository, the error trigger's
threshold/hysteresis logic, the drift scenario end-to-end (the trigger
must fire, chain its re-plan in the chronicle, and beat the blind run on
SLA violations), the HTTP inspection server, graceful-drain export, the
cache garbage collector, and the chronicle unification of service
events.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.config import default_config
from repro.errors import SimulationError
from repro.experiments import serve as serve_scenario
from repro.prediction import LastValuePredictor
from repro.runner.cache import ResultCache
from repro.serve import (
    ControlPlane,
    Depository,
    ErrorTrigger,
    ReplaySource,
    ServeOptions,
    parse_error_trigger,
    parse_report_line,
    source_from_spec,
)
from repro.serve.controller import OnlineController
from repro.serve.ingest import (
    FileLinesSource,
    JsonLinesSource,
    LoadReport,
    ReportSource,
    TcpSource,
)
from repro.serve.server import ControlPlaneServer
from repro.squall.migrator import ActiveMigration
from repro.squall.schedule import build_migration_schedule
from repro.telemetry import Telemetry
from repro.telemetry.export import render_metrics_prom
from repro.telemetry.runtime import telemetry_scope
from repro.workload import LoadTrace


# ----------------------------------------------------------------------
# Report parsing and sources
# ----------------------------------------------------------------------


#: Well-formed for ``json.loads``, unusable for the depository: each
#: used to travel as far as ``Depository.add`` (``int(nan // interval)``
#: raises out of ``ControlPlane.run``) or further.
HOSTILE_LINES = [
    '{"time": NaN, "count": 1}',
    '{"time": Infinity, "count": 1}',
    '{"time": -Infinity, "count": 1}',
    '{"time": -30.0, "count": 1}',
    '{"time": 1e999, "count": 1}',
    '{"time": 30, "count": NaN}',
    '{"time": 30, "count": Infinity}',
    '{"time": 30, "count": -4}',
    '{"time": 1' + "0" * 400 + "}",          # int too large for a float
    "[" * 50_000,                             # exhausts the parser's stack
]


def _honest_lines(slots, nodes=("a", "b")):
    return [
        json.dumps({"time": (slot + 0.5) * 3600.0, "count": 40.0, "node": n})
        for slot in range(slots)
        for n in nodes
    ]


def _quiet_plane(source, **options):
    return ControlPlane(
        default_config().with_interval(3600.0),
        serve_scenario_predictor(),
        source,
        options=ServeOptions(speed=0.0, out=None, quiet=True, **options),
    )


class TestHostileReportsDoNotStopThePlane:
    """Every hostile line is counted as rejected and the plane serves on."""

    @staticmethod
    def _lines():
        honest = _honest_lines(6)
        # Hostile lines in the middle of the stream, not at its end.
        return honest[:4] + HOSTILE_LINES + honest[4:]

    def test_through_a_file(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_text("\n".join(self._lines()) + "\n")
        source = FileLinesSource(path)
        with telemetry_scope() as tel:
            summary = asyncio.run(_quiet_plane(source).run())
            rejected = tel.metrics.counter("serve.reports_rejected").value
        assert source.rejected == len(HOSTILE_LINES) == rejected
        assert summary["reports"] == 12
        assert summary["intervals"] == 6
        assert summary["drained"] is True

    def test_through_tcp(self):
        async def scenario():
            source = TcpSource(0)
            await source.start()
            plane = _quiet_plane(source)
            run = asyncio.ensure_future(plane.run())
            _, writer = await asyncio.open_connection(
                source.host, source.bound_port
            )
            writer.write(("\n".join(self._lines()) + "\n").encode())
            await writer.drain()
            while plane.depository.reports_ingested < 12:
                await asyncio.sleep(0.01)
            writer.close()
            await source.close()
            return source, await asyncio.wait_for(run, timeout=10.0)

        with telemetry_scope():
            source, summary = asyncio.run(scenario())
        assert source.rejected == len(HOSTILE_LINES)
        assert summary["reports"] == 12
        assert summary["intervals"] == 6


class TestParseReportLine:
    def test_full_report(self):
        report = parse_report_line(
            '{"time": 1500.0, "count": 412, "node": "n3"}'
        )
        assert report == LoadReport(time=1500.0, count=412.0, node="n3")

    def test_defaults(self):
        report = parse_report_line('{"time": 30}')
        assert report.count == 1.0
        assert report.node == "n0"

    def test_blank_and_malformed_lines_are_none(self):
        assert parse_report_line("") is None
        assert parse_report_line("   \n") is None
        assert parse_report_line("{not json") is None
        assert parse_report_line('{"count": 4}') is None  # no time
        assert parse_report_line('{"time": "noon?"}') is None

    @pytest.mark.parametrize("line", HOSTILE_LINES)
    def test_unusable_numbers_are_rejected(self, line):
        # All of these are JSON as far as Python's parser is concerned.
        assert parse_report_line(line) is None

    def test_zero_time_and_count_are_fine(self):
        report = parse_report_line('{"time": 0, "count": 0}')
        assert (report.time, report.count) == (0.0, 0.0)

    def test_source_from_spec_grammar(self):
        trace = LoadTrace(values=np.ones(4), slot_seconds=60.0)
        assert isinstance(
            source_from_spec("replay:b2w", trace=trace), ReplaySource
        )
        assert isinstance(
            source_from_spec("file:reports.jsonl"), FileLinesSource
        )
        stdin = source_from_spec("stdin", max_line_bytes=4096)
        assert isinstance(stdin, JsonLinesSource)
        assert stdin.reader is None and stdin.max_line_bytes == 4096
        assert isinstance(source_from_spec("tcp:0"), TcpSource)
        with pytest.raises(SimulationError):
            source_from_spec("carrier-pigeon:9")
        with pytest.raises(SimulationError):
            source_from_spec("replay:b2w")  # no trace resolved
        with pytest.raises(SimulationError):
            source_from_spec("tcp:not-a-port")

    def test_replay_source_timestamps_mid_slot(self):
        trace = LoadTrace(values=np.array([10.0, 20.0]), slot_seconds=60.0)

        async def collect():
            return [r async for r in ReplaySource(trace).reports()]

        reports = asyncio.run(collect())
        assert [r.time for r in reports] == [30.0, 90.0]
        assert [r.count for r in reports] == [10.0, 20.0]

    def test_file_source_counts_rejects(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_text(
            '{"time": 30, "count": 5}\n'
            "garbage\n"
            "\n"
            '{"time": 90, "count": 7}\n'
        )
        source = FileLinesSource(path)

        async def collect():
            return [r async for r in source.reports()]

        reports = asyncio.run(collect())
        assert [r.count for r in reports] == [5.0, 7.0]
        assert source.rejected == 1  # the blank line is not a reject

    def test_a_byte_that_is_not_utf8_is_one_reject(self, tmp_path):
        # Regression: ``read_text()`` raised UnicodeDecodeError out of
        # ``ControlPlane.run``.
        lines = [line.encode() for line in _honest_lines(4)]
        path = tmp_path / "reports.jsonl"
        path.write_bytes(b"\n".join(lines[:3] + [b"\xff"] + lines[3:]))
        source = FileLinesSource(path)
        with telemetry_scope() as tel:
            summary = asyncio.run(_quiet_plane(source).run())
            rejected = tel.metrics.counter("serve.reports_rejected").value
        assert source.rejected == rejected == 1
        assert summary["reports"] == 8
        assert summary["intervals"] == 4

    def test_only_a_newline_ends_a_file_line(self, tmp_path):
        # ``splitlines()`` also cut at U+2028 and U+0085, inside a JSON
        # string, where a socket's reader does not.
        path = tmp_path / "reports.jsonl"
        path.write_text(
            '{"time": 30, "node": "a\u2028b"}\r\n'
            '{"time": 40, "node": "c\x85d"}\n',
            encoding="utf-8",
        )
        source = FileLinesSource(path)

        async def collect():
            return [r async for r in source.reports()]

        reports = asyncio.run(collect())
        assert [r.node for r in reports] == ["a\u2028b", "c\x85d"]
        assert source.rejected == 0

    def test_a_file_is_parsed_a_batch_at_a_time(self, tmp_path):
        # The plane gets its event loop back between batches, so the
        # first batch must not wait for the whole file to be parsed.
        lines = _honest_lines(1200) + ["garbage"]
        path = tmp_path / "reports.jsonl"
        path.write_text("\n".join(lines) + "\n")
        source = FileLinesSource(path)

        async def first_then_rest():
            batches = source.batches()
            first = await batches.__anext__()
            seen = (len(first), source.rejected)
            rest = [report async for batch in batches for report in batch]
            return seen, first + rest

        (first_size, rejected_then), reports = asyncio.run(first_then_rest())
        assert (first_size, rejected_then) == (1024, 0)
        assert source.rejected == 1
        assert reports == [parse_report_line(line) for line in lines[:-1]]


class TestJsonLinesSource:
    """Newline JSON on a byte stream: ``pstore serve --source stdin``."""

    @staticmethod
    def _reader(*payloads):
        reader = asyncio.StreamReader()
        for payload in payloads:
            reader.feed_data(payload)
        reader.feed_eof()
        return reader

    def test_good_lines_round_trip(self):
        lines = _honest_lines(3)
        # A reject in the middle, no newline after the last line.
        text = "\n".join(lines[:4] + ["garbage"] + lines[4:]).encode()

        async def scenario():
            # Cut mid-line: how the bytes arrive must not matter.
            source = JsonLinesSource(self._reader(text[:50], text[50:]))
            return source, [r async for r in source.reports()]

        source, received = asyncio.run(scenario())
        assert received == [parse_report_line(line) for line in lines]
        assert source.rejected == 1
        assert source.overlong_lines == 0

    def test_blank_lines_are_skipped_not_rejected(self):
        # As in a file: a blank line, or one of whitespace only, is no
        # report and no reject either.
        lines = _honest_lines(2)
        text = "\n".join(
            ["", lines[0], "  ", lines[1], "\r", "", lines[2], lines[3], ""]
        ).encode()

        async def scenario():
            source = JsonLinesSource(self._reader(text))
            return source, [r async for r in source.reports()]

        with telemetry_scope() as tel:
            source, received = asyncio.run(scenario())
            rejected = tel.metrics.counter("serve.reports_rejected").value
        assert received == [parse_report_line(line) for line in lines]
        assert source.rejected == rejected == 0

    def test_overlong_line_ends_the_stream_not_the_plane(self):
        # Regression: a line past the reader's 64 KiB limit raised
        # ``ValueError: Separator is found, but chunk is longer than
        # limit`` out of ``ControlPlane.run``.
        first, last = _honest_lines(2, nodes=("a",))
        payload = (first + "\n" + "x" * 70_000 + "\n" + last + "\n").encode()

        async def scenario():
            source = JsonLinesSource(self._reader(payload))
            return source, await _quiet_plane(source).run()

        with telemetry_scope() as tel:
            source, summary = asyncio.run(scenario())
            overlong = tel.metrics.counter("serve.ingest_overlong").value
        assert source.overlong_lines == overlong == 1
        assert summary["reports"] == 1        # nothing after the long line
        assert summary["drained"] is True

    def test_cli_reads_stdin_under_the_line_cap(self):
        lines = _honest_lines(4, nodes=("a",))
        feed = "\n".join(lines[:2] + ["x" * 300] + lines[2:]) + "\n"
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--source", "stdin",
             "--slot-seconds", "3600", "--train-days", "0",
             "--predictor", "seasonal", "--ingest-max-line", "256",
             "--out", "none", "--status-every", "0", "--quiet"],
            input=feed, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout.startswith("served 2 intervals"), done.stdout


# ----------------------------------------------------------------------
# Depository watermarks
# ----------------------------------------------------------------------


class TestDepository:
    def test_slot_closes_only_past_watermark(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=30.0, count=100.0, node="a"))
        # Slot 0 is buffered but the watermark (30 s) hasn't passed it.
        assert dep.flush() == 0
        assert dep.monitor.completed_intervals == 0
        dep.add(LoadReport(time=90.0, count=50.0, node="a"))
        assert dep.flush() == 1
        assert dep.monitor.completed_intervals == 1
        # Slot 0 carried 100 transactions over 60 s.
        assert dep.monitor.history_tps()[0] == pytest.approx(100.0 / 60.0)

    def test_watermark_is_slowest_node(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=90.0, count=10.0, node="fast"))
        dep.add(LoadReport(time=30.0, count=10.0, node="slow"))
        assert dep.watermark == 30.0
        # The slow node gates the release of slot 0.
        assert dep.flush() == 0
        dep.add(LoadReport(time=95.0, count=10.0, node="slow"))
        assert dep.flush() >= 1
        assert dep.monitor.completed_intervals == 1

    def test_late_report_dropped_and_counted(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=30.0, count=10.0, node="a"))
        dep.add(LoadReport(time=130.0, count=10.0, node="a"))
        dep.flush()
        before = dep.monitor.history_tps()[0]
        dep.add(LoadReport(time=31.0, count=999.0, node="b"))  # slot 0: gone
        assert dep.late_reports == 1
        dep.flush()
        assert dep.monitor.history_tps()[0] == before

    def test_finish_drains_buffer(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=30.0, count=60.0, node="a"))
        dep.add(LoadReport(time=90.0, count=120.0, node="a"))
        assert dep.finish() == 2
        history = dep.monitor.history_tps()
        assert list(history[:2]) == [pytest.approx(1.0), pytest.approx(2.0)]
        assert dep.finish() == 0  # idempotent

    def test_same_slot_from_multiple_nodes_aggregates(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=30.0, count=40.0, node="a"))
        dep.add(LoadReport(time=31.0, count=20.0, node="b"))
        dep.add(LoadReport(time=90.0, count=1.0, node="a"))
        dep.add(LoadReport(time=91.0, count=1.0, node="b"))
        dep.flush()
        # Slot 0 carried both nodes' counts: 60 txns over 60 s.
        assert dep.monitor.history_tps()[0] == pytest.approx(1.0)

    def test_boundary_timestamp_lands_in_next_slot(self):
        dep = Depository(60.0)
        # t=60.0 is the start of slot 1, not the end of slot 0.
        dep.add(LoadReport(time=60.0, count=30.0, node="a"))
        dep.add(LoadReport(time=125.0, count=5.0, node="a"))
        dep.flush()
        history = dep.monitor.history_tps()
        assert history[0] == pytest.approx(0.0)
        assert history[1] == pytest.approx(0.5)

    def test_finish_after_partial_flush(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=30.0, count=60.0, node="a"))
        dep.add(LoadReport(time=90.0, count=120.0, node="a"))
        assert dep.flush() == 1          # releases slot 0 only
        assert dep.finish() == 1         # drains buffered slot 1
        history = dep.monitor.history_tps()
        assert list(history[:2]) == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_clock_never_goes_backwards(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=150.0, count=10.0, node="a"))
        dep.add(LoadReport(time=30.0, count=10.0, node="a"))
        # The out-of-order report is buffered but cannot rewind the clock.
        assert dep.watermark == 150.0
        assert dep.flush() == 2
        assert dep.monitor.history_tps()[0] == pytest.approx(10.0 / 60.0)

    def test_late_report_still_advances_node_clock(self):
        dep = Depository(60.0)
        dep.add(LoadReport(time=30.0, count=10.0, node="a"))
        dep.add(LoadReport(time=130.0, count=10.0, node="a"))
        dep.flush()                      # slots 0..1 territory released
        # Node b's *first* report targets the released slot 0: its count
        # must be dropped, but b is alive at t=31 — dropping its clock
        # too would freeze the watermark at 0 until b reports again.
        dep.add(LoadReport(time=31.0, count=999.0, node="b"))
        assert dep.late_reports == 1
        assert dep.late_by_node == {"b": 1}
        assert dep.nodes == 2
        assert dep.watermark == 31.0

    def test_stale_node_evicted_from_watermark(self):
        from repro.telemetry import MetricsRegistry, Telemetry

        tel = Telemetry(metrics=MetricsRegistry())
        dep = Depository(60.0, telemetry=tel, node_timeout_intervals=2)
        dep.add(LoadReport(time=30.0, count=10.0, node="slow"))
        dep.add(LoadReport(time=90.0, count=10.0, node="fast"))
        assert dep.watermark == 30.0
        # fast races ahead; once slow trails by > 2 intervals it is
        # evicted and the watermark unfreezes.
        dep.add(LoadReport(time=210.0, count=10.0, node="fast"))
        assert dep.nodes == 1
        assert dep.evictions == 1
        assert dep.watermark == 210.0
        stale = [r for r in tel.chronicle.records if r["kind"] == "node.stale"]
        assert len(stale) == 1
        assert stale[0]["node"] == "slow"
        # Parented on the node's (reconstructed) last report.
        parent = next(
            r for r in tel.chronicle.records if r["id"] == stale[0]["parent"]
        )
        assert parent["kind"] == "node.report"
        assert parent["time"] == 30.0

    def test_evicted_node_readmission_chronicled(self):
        from repro.telemetry import MetricsRegistry, Telemetry

        tel = Telemetry(metrics=MetricsRegistry())
        dep = Depository(60.0, telemetry=tel, node_timeout_intervals=2)
        dep.add(LoadReport(time=30.0, count=10.0, node="slow"))
        dep.add(LoadReport(time=210.0, count=10.0, node="fast"))
        assert dep.nodes == 1
        dep.add(LoadReport(time=250.0, count=10.0, node="slow"))
        assert dep.nodes == 2
        recovered = [
            r for r in tel.chronicle.records if r["kind"] == "node.recovered"
        ]
        assert len(recovered) == 1
        stale = next(
            r for r in tel.chronicle.records if r["kind"] == "node.stale"
        )
        assert recovered[0]["parent"] == stale["id"]

    def test_timeout_zero_never_evicts(self):
        dep = Depository(60.0, node_timeout_intervals=0)
        dep.add(LoadReport(time=30.0, count=10.0, node="slow"))
        dep.add(LoadReport(time=6000.0, count=10.0, node="fast"))
        assert dep.nodes == 2
        assert dep.watermark == 30.0


# ----------------------------------------------------------------------
# TCP ingest hardening
# ----------------------------------------------------------------------


class TestTcpSourceHardening:
    @staticmethod
    async def _connect(src):
        return await asyncio.open_connection(src.host, src.bound_port)

    @staticmethod
    def _line(slot, node="n0", count=10.0):
        return (
            json.dumps(
                {"time": (slot + 0.5) * 60.0, "count": count, "node": node}
            )
            + "\n"
        ).encode()

    def test_close_terminates_reports_iterator(self):
        async def scenario():
            src = TcpSource(0)
            await src.start()
            _, writer = await self._connect(src)
            writer.write(self._line(0))
            await writer.drain()
            seen = []

            async def consume():
                async for report in src.reports():
                    seen.append(report)

            consumer = asyncio.ensure_future(consume())
            while not seen:
                await asyncio.sleep(0.01)
            # close() must cancel the still-connected handler, enqueue
            # the sentinel, and let the consumer terminate (the old code
            # left it blocked on queue.get() forever).
            await src.close()
            await asyncio.wait_for(consumer, timeout=5.0)
            writer.close()
            return seen

        seen = asyncio.run(scenario())
        assert len(seen) == 1

    def test_close_is_idempotent(self):
        async def scenario():
            src = TcpSource(0)
            await src.start()
            await src.close()
            await src.close()
            return [r async for r in src.reports()]

        assert asyncio.run(scenario()) == []

    def test_bounded_queue_counts_backpressure(self):
        async def scenario():
            src = TcpSource(0, queue_size=2)
            await src.start()
            _, writer = await self._connect(src)
            for slot in range(8):
                writer.write(self._line(slot))
            await writer.drain()
            writer.write_eof()
            received = []
            async for report in src.reports():
                received.append(report)
                if len(received) == 8:
                    break
            await src.close()
            writer.close()
            return src, received

        src, received = asyncio.run(scenario())
        assert len(received) == 8           # nothing lost, only delayed
        assert src.backpressure_hits >= 1   # the bounded queue filled

    def test_one_write_larger_than_the_queue_is_delivered_whole(self):
        async def scenario():
            src = TcpSource(0, queue_size=4)
            await src.start()
            _, writer = await self._connect(src)
            # One write, one chunk on the handler's side: 30 reports
            # have to squeeze through room for 4 without losing any.
            writer.write(b"".join(self._line(slot) for slot in range(30)))
            await writer.drain()
            writer.write_eof()
            sizes, received = [], []
            async for batch in src.batches():
                sizes.append(len(batch))
                received.extend(batch)
                if len(received) == 30:
                    break
            await src.close()
            writer.close()
            return src, sizes, received

        src, sizes, received = asyncio.run(scenario())
        assert [r.time for r in received] == [
            (slot + 0.5) * 60.0 for slot in range(30)
        ]
        assert max(sizes) <= 4              # the bound is in reports
        assert src.backpressure_hits >= 1

    def test_unterminated_last_line_is_still_a_report(self):
        async def scenario():
            src = TcpSource(0)
            await src.start()
            _, writer = await self._connect(src)
            writer.write(self._line(0) + self._line(1).rstrip(b"\n"))
            await writer.drain()
            writer.write_eof()
            received = []
            async for report in src.reports():
                received.append(report)
                if len(received) == 2:
                    break
            await src.close()
            writer.close()
            return received

        assert len(asyncio.run(scenario())) == 2

    def test_overlong_line_after_good_ones_keeps_the_good_ones(self):
        async def scenario():
            src = TcpSource(0, max_line_bytes=128)
            await src.start()
            reader, writer = await self._connect(src)
            writer.write(self._line(0) + b"x" * 500 + b"\n" + self._line(1))
            await writer.drain()
            await asyncio.wait_for(reader.read(), timeout=5.0)
            await src.close()
            received = [r async for r in src.reports()]   # what is pending
            writer.close()
            return src, received

        src, received = asyncio.run(scenario())
        assert src.overlong_lines == 1
        assert [r.time for r in received] == [30.0]   # nothing after it

    def test_bound_port_is_the_listening_port(self):
        async def scenario():
            src = TcpSource(0)
            assert src.bound_port is None
            await src.start()
            port = src.bound_port
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await src.close()
            return port, src.bound_port

        port, after = asyncio.run(scenario())
        assert port > 0
        assert after is None

    def test_auth_token_rejects_bad_first_line(self):
        async def scenario():
            src = TcpSource(0, auth_token="sesame")
            await src.start()
            reader, writer = await self._connect(src)
            writer.write(b"wrong-token\n")
            writer.write(self._line(0))
            await writer.drain()
            # Server closes the connection on auth failure.
            await asyncio.wait_for(reader.read(), timeout=5.0)
            await src.close()
            writer.close()
            return src

        src = asyncio.run(scenario())
        assert src.auth_failures == 1
        assert src.rejected == 0            # never parsed the report

    def test_auth_token_accepts_matching_line(self):
        async def scenario():
            src = TcpSource(0, auth_token="sesame")
            await src.start()
            _, writer = await self._connect(src)
            writer.write(b"sesame\n")
            writer.write(self._line(0))
            await writer.drain()
            writer.write_eof()
            received = []
            async for report in src.reports():
                received.append(report)
                break
            await src.close()
            writer.close()
            return received

        received = asyncio.run(scenario())
        assert len(received) == 1
        assert received[0].count == 10.0

    def test_overlong_line_drops_connection(self):
        async def scenario():
            src = TcpSource(0, max_line_bytes=64)
            await src.start()
            reader, writer = await self._connect(src)
            writer.write(b"x" * 500 + b"\n")
            await writer.drain()
            await asyncio.wait_for(reader.read(), timeout=5.0)
            await src.close()
            writer.close()
            return src

        src = asyncio.run(scenario())
        assert src.overlong_lines == 1

    def test_rate_guard_throttles_flood(self):
        async def scenario():
            src = TcpSource(0, max_report_rate=200.0)
            await src.start()
            _, writer = await self._connect(src)
            for slot in range(10):
                writer.write(self._line(slot))
            await writer.drain()
            writer.write_eof()
            received = []
            async for report in src.reports():
                received.append(report)
                if len(received) == 10:
                    break
            await src.close()
            writer.close()
            return src, received

        src, received = asyncio.run(scenario())
        assert len(received) == 10          # throttled, never dropped
        assert src.throttled >= 1

    def test_constructor_validates_guards(self):
        with pytest.raises(SimulationError):
            TcpSource(0, queue_size=0)
        with pytest.raises(SimulationError):
            TcpSource(0, max_line_bytes=1)
        with pytest.raises(SimulationError):
            TcpSource(0, max_report_rate=-1.0)


# ----------------------------------------------------------------------
# Batching is transport, not semantics; per-report cost does not scale
# ----------------------------------------------------------------------


class CutSource(ReportSource):
    """A fixed report stream handed over ``cut`` reports at a time."""

    def __init__(self, reports, cut):
        self._reports = reports
        self.cut = cut

    async def batches(self):
        for start in range(0, len(self._reports), self.cut):
            yield self._reports[start:start + self.cut]


def _eventful_stream():
    """48 hourly slots from four nodes: a load step (moves), a node that
    falls silent (evicted, then recovered), an out-of-order pair and a
    report for a slot long closed."""
    reports = []
    for slot in range(48):
        for node in "abcd":
            if node == "d" and 12 <= slot < 24:
                continue
            reports.append(LoadReport(
                time=(slot + 0.5) * 3600.0,
                count=(900.0 if 16 <= slot < 36 else 200.0) * 3600.0,
                node=node,
            ))
    reports[40], reports[41] = reports[41], reports[40]
    reports.insert(100, LoadReport(time=1800.0, count=5.0, node="b"))
    return reports


class TestBatchingIsTransport:
    def run_cut(self, tmp_path, cut):
        reports = _eventful_stream()
        directory = tmp_path / f"cut-{cut}"
        with telemetry_scope() as tel:
            plane = _quiet_plane(
                CutSource(reports, cut or len(reports)),
                checkpoint_dir=str(directory), node_timeout=3,
                initial_machines=2,
            )
            asyncio.run(plane.run())
            return {
                "status": plane.status(),
                # Less the one wall-clock instrument (forecast cost).
                "metrics": "".join(
                    line
                    for line in render_metrics_prom(tel).splitlines(True)
                    if "pstore_predictor_latency_ms" not in line
                ),
                "chronicle": tel.chronicle.snapshot(),
                "directory": {
                    path.name: path.read_bytes()
                    for path in sorted(directory.iterdir())
                },
            }

    def test_any_cut_of_the_stream_decides_the_same(self, tmp_path):
        one, seven, whole = (
            self.run_cut(tmp_path, cut) for cut in (1, 7, 0)
        )
        # The stream is eventful enough for the comparison to mean
        # something.
        assert one["status"]["evicted_nodes"] == 1
        assert one["status"]["late_reports"] == 1
        assert one["status"]["moves_started"] >= 1
        assert one["status"]["checkpoint_saves"] >= 40
        assert sorted(one["directory"]) == [
            "checkpoint.delta.jsonl", "checkpoint.json", "chronicle.jsonl",
        ]
        assert one["status"]["checkpoint_journal_rows"] == len(
            one["directory"]["checkpoint.delta.jsonl"].splitlines()
        )
        # Some saves were a journal row, not a base.
        assert 1 + one["status"]["checkpoint_compactions"] < (
            one["status"]["checkpoint_saves"]
        )
        # What /status says of the store, /metrics says too.
        for name in ("saves", "bytes_written", "journal_rows", "compactions"):
            value = one["status"][f"checkpoint_{name}"]
            assert f"pstore_serve_checkpoint_{name} {value}\n" in one["metrics"]
        assert one["status"]["checkpoint_bytes_written"] >= sum(
            len(one["directory"][name])
            for name in ("checkpoint.json", "checkpoint.delta.jsonl")
        )
        kinds = {rec["kind"] for rec in one["chronicle"]}
        assert {"node.stale", "node.recovered"} <= kinds
        assert seven == one
        assert whole == one


class TestPerReportCostDoesNotScale:
    @staticmethod
    def per_report_seconds(nodes, intervals=8):
        reports = [
            LoadReport(time=(slot + 0.5) * 60.0, count=1.0, node=f"n{i}")
            for slot in range(intervals)
            for i in range(nodes)
        ]
        best = float("inf")
        for _ in range(3):
            dep = Depository(60.0, node_timeout_intervals=3)
            start = time.perf_counter()
            for report in reports:
                dep.add(report)
                dep.flush()
            best = min(best, time.perf_counter() - start)
            assert dep.monitor.completed_intervals == intervals - 1
        return best / len(reports)

    def test_sixteen_times_the_nodes_under_three_times_the_cost(self):
        # The min()/max()/scan it replaced costs ~16x here.
        small = self.per_report_seconds(256)
        large = self.per_report_seconds(4096)
        assert large < 3.0 * small, (small, large)


# ----------------------------------------------------------------------
# Error trigger parsing, thresholds, hysteresis
# ----------------------------------------------------------------------


class TestErrorTrigger:
    def test_parse_off(self):
        assert parse_error_trigger("off") is None
        assert parse_error_trigger("none") is None
        assert parse_error_trigger("") is None

    def test_parse_clauses(self):
        trig = parse_error_trigger("mape:0.3,bias:0.25")
        assert trig.describe() == "mape:0.3,bias:0.25"
        assert [c.metric for c in trig.clauses] == ["mape", "bias"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(SimulationError):
            parse_error_trigger("rmse:0.3")
        with pytest.raises(SimulationError):
            parse_error_trigger("mape:very-bad")
        with pytest.raises(SimulationError):
            parse_error_trigger("mape:-0.1")

    def test_breach_gates_on_min_pairs(self):
        trig = ErrorTrigger(
            parse_error_trigger("mape:0.3").clauses, min_pairs=10
        )
        hot = {"mape_pct": 55.0, "pairs_window": 5}
        assert trig.breach(hot) is None  # too few pairs
        hot["pairs_window"] = 10
        breach = trig.breach(hot)
        assert breach["metric"] == "mape"
        assert breach["value_pct"] == 55.0
        assert breach["threshold_pct"] == pytest.approx(30.0)

    def test_breach_none_below_threshold(self):
        trig = ErrorTrigger(
            parse_error_trigger("mape:0.3").clauses, min_pairs=1
        )
        assert trig.breach({"mape_pct": 12.0, "pairs_window": 50}) is None
        assert trig.breach(None) is None

    def test_recovery_hysteresis(self):
        trig = ErrorTrigger(
            parse_error_trigger("mape:0.3").clauses, min_pairs=1
        )
        # Below threshold but above 0.8x threshold: NOT recovered yet.
        assert not trig.recovered({"mape_pct": 27.0, "pairs_window": 9})
        assert trig.recovered({"mape_pct": 20.0, "pairs_window": 9})

    def test_bias_uses_absolute_value(self):
        trig = ErrorTrigger(
            parse_error_trigger("bias:0.2").clauses, min_pairs=1
        )
        breach = trig.breach({"bias_pct": -35.0, "pairs_window": 4})
        assert breach["metric"] == "bias"


def test_the_reactive_fallback_keeps_a_pending_scale_in():
    """A trigger fires while a scale-in is pending at 1/3: its
    unscheduled re-plan confirms 2/3, two reactive intervals leave the
    streak alone, and the first predictive cycle after recovery confirms
    the scale-in at 3/3 (cleared, it would read 1/3)."""
    config = default_config().with_interval(60.0)
    tel = Telemetry()
    controller = OnlineController(
        config, LastValuePredictor().fit([config.q]), initial_machines=4,
        trigger=parse_error_trigger("mape:0.3", min_pairs=1), telemetry=tel,
    )
    stats = {"pairs_window": 5}
    controller.error_stats = lambda: stats
    history = []
    for slot, mape in enumerate([1.0, 50.0, 30.0, 1.0]):
        stats["mape_pct"] = mape       # calm, breach, hot, recovered
        history.append(config.q * 1.5)
        controller.on_interval(slot, history, (slot + 1) * 60.0)
    assert controller.trigger_fires == controller.trigger_recoveries == 1
    assert [
        (d["time"], d["reason"]) for d in tel.chronicle.by_kind("plan.decision")
    ] == [
        (60.0, "scale-in pending confirmation (1/3)"),
        (120.0, "scale-in pending confirmation (2/3)"),
        (240.0, "scale-in confirmed"),
    ]
    (start,) = tel.chronicle.by_kind("migration.start")
    assert (start["time"], start["before"]) == (240.0, 4)


# ----------------------------------------------------------------------
# The drift scenario end-to-end (the tentpole's acceptance test)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def drift_runs():
    """One armed and one blind run over the same drifting replay."""
    armed = serve_scenario.run_scenario(
        serve_scenario.SERVE_SEED, serve_scenario.SERVE_TRIGGER
    )
    blind = serve_scenario.run_scenario(serve_scenario.SERVE_SEED, None)
    return armed, blind


class TestDriftScenario:
    def test_trigger_fires_on_drift(self, drift_runs):
        (summary, _), _ = drift_runs
        assert summary["trigger_fires"] >= 1
        assert summary["trigger_recoveries"] >= 1
        assert summary["drained"] is True

    def test_replan_chains_to_accuracy_breach(self, drift_runs):
        """plan.decision -> forecast.accuracy -> forecast.snapshot."""
        (_, chronicle), _ = drift_runs
        by_id = {r["id"]: r for r in chronicle}
        breaches = [
            r
            for r in chronicle
            if r["kind"] == "forecast.accuracy"
            and r.get("action") != "recovered"
        ]
        assert breaches
        breach = breaches[0]
        # The breach is evidence against a concrete forecast.
        assert by_id[breach["parent"]]["kind"] == "forecast.snapshot"
        # And some decision was taken *because of* the breach.
        children = [r for r in chronicle if r.get("parent") == breach["id"]]
        assert any(r["kind"] == "plan.decision" for r in children)

    def test_trigger_reduces_sla_violations(self, drift_runs):
        (armed, _), (blind, _) = drift_runs
        assert armed["violations"] < blind["violations"]
        # The blind run thrashes on its stale forecasts instead.
        assert armed["emergencies"] < blind["emergencies"]

    def test_recovery_is_chronicled(self, drift_runs):
        (_, chronicle), _ = drift_runs
        recoveries = [
            r
            for r in chronicle
            if r["kind"] == "forecast.accuracy"
            and r.get("action") == "recovered"
        ]
        assert recoveries
        # Recovery is parented on the breach it clears.
        by_id = {r["id"]: r for r in chronicle}
        parent = by_id[recoveries[0]["parent"]]
        assert parent["kind"] == "forecast.accuracy"


# ----------------------------------------------------------------------
# HTTP inspection server
# ----------------------------------------------------------------------


async def _http_get(port, target):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    return head.splitlines()[0], body


class TestControlPlaneServer:
    def run_server(self, coro_fn):
        async def main():
            server = ControlPlaneServer(
                lambda: {"mode": "predictive", "machines": 3},
                lambda: {"schedule": []},
                port=0,
            )
            await server.start()
            port = server._server.sockets[0].getsockname()[1]
            try:
                return await coro_fn(port)
            finally:
                await server.close()

        return asyncio.run(main())

    def test_status_roundtrip(self):
        status, body = self.run_server(
            lambda port: _http_get(port, "/status")
        )
        assert "200" in status
        assert json.loads(body) == {"mode": "predictive", "machines": 3}

    def test_metrics_is_openmetrics(self):
        with telemetry_scope() as tel:
            tel.metrics.counter("serve.http_requests").inc()
            status, body = self.run_server(
                lambda port: _http_get(port, "/metrics")
            )
        assert "200" in status
        assert body.rstrip().endswith("# EOF")

    def test_chronicle_tail_respects_n(self):
        with telemetry_scope() as tel:
            for i in range(5):
                tel.chronicle.record("plan.decision", time=float(i))
            status, body = self.run_server(
                lambda port: _http_get(port, "/chronicle/tail?n=2")
            )
        doc = json.loads(body)
        assert doc["n"] == 2
        assert [r["time"] for r in doc["records"]] == [3.0, 4.0]

    def test_unknown_route_404(self):
        status, _ = self.run_server(lambda port: _http_get(port, "/nope"))
        assert "404" in status


# ----------------------------------------------------------------------
# Graceful drain: stop mid-stream, flush an explainable run directory
# ----------------------------------------------------------------------


class StallingSource:
    """Yields ``stop_after`` replay reports, requests a stop, then hangs
    forever — exercising the plane's signal-race cancellation path."""

    def __init__(self, trace, stop_after):
        self.trace = trace
        self.stop_after = stop_after
        self.plane = None  # wired after construction

    async def batches(self):
        slot_seconds = self.trace.slot_seconds
        for slot, count in enumerate(self.trace.values):
            if slot == self.stop_after:
                self.plane.request_stop()
                await asyncio.Event().wait()  # never set; must be cancelled
            yield [LoadReport(
                time=(slot + 0.5) * slot_seconds, count=float(count)
            )]


class TestGracefulDrain:
    def test_stop_flushes_explainable_run_dir(self, tmp_path):
        out = tmp_path / "serve-out"
        config = default_config().with_interval(3600.0)
        trace = serve_scenario.drift_trace(n_days=2)
        source = StallingSource(trace, stop_after=30)
        with telemetry_scope():
            plane = ControlPlane(
                config,
                # Unfitted online predictor: the run stays in warmup,
                # which is fine — the drain path is what's under test.
                serve_scenario_predictor(),
                source,
                options=ServeOptions(
                    speed=0.0, out=str(out), quiet=True
                ),
            )
            source.plane = plane
            summary = asyncio.run(plane.run())
        assert summary["stopped_by_signal"] is True
        assert summary["drained"] is False
        assert summary["intervals"] > 0
        assert sorted(summary["artifacts"]) == [
            "chronicle", "metrics", "prom", "spans",
        ]
        for path in summary["artifacts"].values():
            assert os.path.exists(path)
        # The flushed directory must be walkable end to end.
        from repro.analysis import explain_run, render_explain

        report = explain_run(out)
        assert render_explain(report)

    def test_shutdown_mid_migration_chronicles_abort(self):
        """A stop mid-migration rolls back the partial round and files
        ``migration.aborted`` parented on the move's start record."""
        from repro.serve.controller import OnlineController

        config = default_config().with_interval(3600.0)
        with telemetry_scope() as tel:
            controller = OnlineController(
                config, serve_scenario_predictor(), initial_machines=2
            )
            # A load step far above 2-machine capacity forces the
            # warmup-reactive path to start a scale-out move.
            load = config.q_hat * 2 * 4.0
            history = []
            for slot in range(6):
                history.append(load)
                controller.on_interval(
                    slot, history, (slot + 1) * 3600.0
                )
                if controller.migrating:
                    break
            assert controller.migrating
            controller.shutdown(len(history) * 3600.0, reason="SIGINT")
            assert not controller.migrating
            records = tel.chronicle.snapshot()
            aborts = [
                r for r in records if r["kind"] == "migration.aborted"
            ]
            assert aborts
            by_id = {r["id"]: r for r in records}
            assert by_id[aborts[0]["parent"]]["kind"] == "migration.start"
            assert aborts[0]["rolled_back_fraction"] >= 0.0


def serve_scenario_predictor():
    from repro.prediction import SeasonalNaivePredictor
    from repro.prediction.online import OnlinePredictor

    return OnlinePredictor(SeasonalNaivePredictor(24), refit_every=14 * 24)


# ----------------------------------------------------------------------
# Partial-round rollback (squall)
# ----------------------------------------------------------------------


class TestRollbackPartialRound:
    def make_migration(self):
        return ActiveMigration(
            schedule=build_migration_schedule(2, 3),
            database_kb=10_000.0,
            rate_kbps=100.0,
            partitions_per_node=3,
        )

    def test_rollback_restores_round_base(self):
        migration = self.make_migration()
        base = migration.data_fractions().copy()
        migration.advance(migration.total_seconds / 10.0)
        assert not np.allclose(migration.data_fractions(), base)
        rolled = migration.rollback_partial_round()
        assert rolled > 0
        np.testing.assert_allclose(migration.data_fractions(), base)

    def test_rollback_noop_at_round_boundary(self):
        migration = self.make_migration()
        assert migration.rollback_partial_round() == 0.0


# ----------------------------------------------------------------------
# Cache garbage collection
# ----------------------------------------------------------------------


def _fill_cache(cache, ages, now, payload_bytes=100):
    """Store one entry per (key, age-seconds) pair, pinning mtimes."""
    for key, age in ages:
        envelope = {"payload": "x" * payload_bytes, "key": key}
        path = cache.store(key, envelope)
        os.utime(path, (now - age, now - age))


class TestCacheGc:
    def test_age_eviction(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        now = 1_000_000.0
        _fill_cache(
            cache, [("aaold", 5000.0), ("bbnew", 10.0)], now
        )
        stats = cache.gc(max_age_seconds=3600.0, now=now)
        assert stats["removed"] == 1
        assert stats["kept"] == 1
        assert stats["reclaimed_bytes"] > 0
        assert "bbnew" in cache
        assert "aaold" not in cache

    def test_size_eviction_drops_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        now = 1_000_000.0
        _fill_cache(
            cache,
            [("aaold", 300.0), ("bbmid", 200.0), ("ccnew", 100.0)],
            now,
        )
        total = stats_bytes = sum(
            p.stat().st_size for p in (tmp_path / "cache").glob("*/*.json")
        )
        keep_two = total - 1  # forces exactly one eviction
        stats = cache.gc(max_bytes=keep_two, now=now)
        assert stats["removed"] == 1
        assert "aaold" not in cache
        assert "bbmid" in cache and "ccnew" in cache
        assert stats["kept_bytes"] <= keep_two
        assert stats["scanned_bytes"] == stats_bytes

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        now = 1_000_000.0
        _fill_cache(cache, [("aaold", 5000.0)], now)
        stats = cache.gc(max_age_seconds=60.0, now=now, dry_run=True)
        assert stats["removed"] == 1
        assert stats["dry_run"] is True
        assert "aaold" in cache

    def test_no_limits_keeps_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        now = 1_000_000.0
        _fill_cache(cache, [("aa1", 50.0), ("bb2", 60.0)], now)
        stats = cache.gc(now=now)
        assert stats["removed"] == 0
        assert stats["kept"] == 2
