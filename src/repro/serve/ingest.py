"""Load-report sources for the control plane.

A *load report* is one monitor surrogate's measurement: "node N observed
``count`` transactions around simulated time ``time``".  A source
(:class:`ReportSource`) is an async iterator of *batches* — lists of
:class:`LoadReport`, cut wherever the transport happened to cut them;
the plane feeds them, report by report, into the
:class:`~repro.serve.depository.Depository`, which decides when an
interval is complete.  Batching is transport, not semantics: how a
stream is cut never changes what the plane decides.

Three source families:

* :class:`ReplaySource` — drives a :class:`~repro.workload.trace.LoadTrace`
  in lockstep with the simulator's slotting.  ``speed`` maps simulated
  seconds onto wall seconds (``--speed 60`` replays a day per 24
  minutes); ``speed=0`` disables pacing entirely, which is the
  deterministic mode tests and sweep cells use.
* :class:`JsonLinesSource` — newline-delimited JSON reports from an
  async byte stream (standard input by default), e.g.::

      {"time": 1500.0, "node": "n3", "count": 412}

* :func:`tcp_source` — listens on a port and merges every connection's
  newline-JSON stream into one report sequence.

``source_from_spec`` maps the CLI's ``--source`` grammar onto these.
"""

from __future__ import annotations

import asyncio
import json
import math
import pathlib
import sys
from typing import AsyncIterator, List, NamedTuple, Optional, Tuple

from ..errors import SimulationError
from ..telemetry import get_telemetry
from ..workload.trace import LoadTrace


class LoadReport(NamedTuple):
    """One interval-load measurement from one node's monitor surrogate."""

    time: float          # simulated seconds; also advances the node's clock
    count: float         # transactions observed in the report's span
    node: str = "n0"     # reporting node (the depository keys clocks on it)


#: ``json.loads`` is this decoder's ``decode``: on a stripped line,
#: ``raw_decode`` plus the end-of-text check accepts exactly what it
#: accepts, without the two whitespace scans around the document.
_raw_decode = json.JSONDecoder().raw_decode


def parse_report_line(line: str) -> Optional[LoadReport]:
    """Parse one newline-JSON report; None for blanks/malformed lines.

    Malformed input from an external feed must not take the control
    plane down — the caller counts rejects and keeps going.  That
    includes well-formed JSON the depository cannot use: a non-finite or
    negative ``time`` or ``count`` (Python's parser accepts ``NaN`` and
    ``Infinity``), an integer too large for a float, nesting deep enough
    to exhaust the parser's stack.
    """
    text = line.strip()
    if not text:
        return None
    try:
        doc, end = _raw_decode(text)
        if end != len(text):
            return None    # trailing garbage, or a second document
        time = float(doc["time"])
        count = float(doc.get("count", 1.0))
        node = str(doc.get("node", "n0"))
    except (
        json.JSONDecodeError, KeyError, TypeError, ValueError,
        OverflowError, RecursionError,
    ):
        return None
    # Written so that NaN, which fails every comparison, is rejected too.
    if not (0.0 <= time < math.inf and 0.0 <= count < math.inf):
        return None
    return LoadReport(time, count, node)


def _parse_lines(data: bytes, source, tel) -> List[LoadReport]:
    """Parse newline-separated complete lines of bytes into reports.

    The lines are decoded together, once, with ``"replace"``: a newline
    byte is never part of a UTF-8 sequence, so a byte that is not UTF-8
    spoils only its own line, which then counts as one reject on
    ``source.rejected``.  Blank lines are skipped, not rejected,
    whatever the source.
    """
    batch = []
    for line in data.decode("utf-8", "replace").split("\n"):
        report = parse_report_line(line)
        if report is not None:
            batch.append(report)
        elif line.strip():
            source.rejected += 1
            if tel.enabled:
                tel.metrics.counter("serve.reports_rejected").inc()
    return batch


class ReportSource:
    """A stream of load reports, delivered in batches.

    A source implements :meth:`batches`; :meth:`reports` is the same
    stream flattened, for callers that want one report at a time.
    """

    def batches(self) -> AsyncIterator[List[LoadReport]]:
        """Non-empty lists of reports, in stream order."""
        raise NotImplementedError

    async def reports(self) -> AsyncIterator[LoadReport]:
        async for batch in self.batches():
            for report in batch:
                yield report


class ReplaySource(ReportSource):
    """Replays a load trace as a live report stream.

    Each slot becomes one report timestamped mid-slot (the instant the
    measurement covers), so the depository's watermark closes slot ``k``
    when slot ``k+1``'s report arrives — exactly the one-interval lag a
    real monitor pipeline has.
    """

    def __init__(
        self,
        trace: LoadTrace,
        speed: float = 0.0,
        node: str = "replay",
    ) -> None:
        if speed < 0:
            raise SimulationError("replay speed must be >= 0")
        self.trace = trace
        self.speed = speed
        self.node = node

    async def batches(self) -> AsyncIterator[List[LoadReport]]:
        slot_seconds = self.trace.slot_seconds
        loop = asyncio.get_running_loop()
        # Pacing is anchored to absolute deadlines from the loop clock:
        # sleeping a fixed per-slot quantum instead would add the
        # consumer's processing time to every slot, drifting the replay
        # late by the *cumulative* processing cost on long runs.
        origin = loop.time() if self.speed > 0 else 0.0
        for slot, count in enumerate(self.trace.values):
            if self.speed > 0:
                deadline = origin + (slot + 1) * slot_seconds / self.speed
                delay = deadline - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            yield [LoadReport(
                time=(slot + 0.5) * slot_seconds,
                count=float(count),
                node=self.node,
            )]


async def _read_batches(
    reader: "asyncio.StreamReader", limit: int, source, tel
) -> AsyncIterator[Tuple[List[LoadReport], int, bool]]:
    """Split a newline-JSON byte stream into reports, one read at a time.

    Yields ``(reports, lines, last)`` per read of at most ``limit``
    bytes: the reports parsed from the complete lines it finished, how
    many lines that was, and whether the stream ends after it.  Malformed
    lines count on ``source.rejected``.  A line longer than ``limit`` ends
    the stream and counts on ``source.overlong_lines``: the feeder is
    misbehaving and resynchronising mid-line is guesswork.
    """
    tail = b""
    while True:
        chunk = await reader.read(limit)
        data = tail + chunk
        if chunk:
            cut = data.rfind(b"\n") + 1
            data, tail = data[:cut], data[cut:]
            lines = data.count(b"\n")
        else:
            # End of stream: an unterminated last line counts.
            tail = b""
            lines = 1 if data else 0
        # A read is at most ``limit`` bytes, so the only line that can
        # outgrow it is the first, which began in an earlier read.
        overlong = len(tail) > limit or data.find(b"\n") > limit
        if overlong:
            # Nothing from the overlong line on is parsed.
            data, lines = b"", 0
            source.overlong_lines += 1
            if tel.enabled:
                tel.metrics.counter("serve.ingest_overlong").inc()
        batch = _parse_lines(data, source, tel)
        last = overlong or not chunk
        yield batch, lines, last
        if last:
            return


class JsonLinesSource(ReportSource):
    """Reports from newline-JSON on an async byte stream.

    With no ``reader`` it reads this process's standard input, opened
    inside :meth:`batches` because the pipe binds to the running loop.
    A line longer than ``max_line_bytes`` ends the stream, as it closes
    a :class:`TcpSource` connection.
    """

    def __init__(
        self,
        reader: "Optional[asyncio.StreamReader]" = None,
        max_line_bytes: int = 65536,
    ) -> None:
        self.reader = reader
        self.max_line_bytes = max_line_bytes
        self.rejected = 0
        self.overlong_lines = 0

    async def batches(self) -> AsyncIterator[List[LoadReport]]:
        reader = self.reader
        if reader is None:
            reader = asyncio.StreamReader(limit=self.max_line_bytes)
            protocol = asyncio.StreamReaderProtocol(reader)
            await asyncio.get_running_loop().connect_read_pipe(
                lambda: protocol, sys.stdin
            )
        tel = get_telemetry()
        async for batch, _, _ in _read_batches(
            reader, self.max_line_bytes, self, tel
        ):
            if batch:
                yield batch


#: The plane returns to its event loop (stop signal, HTTP routes) only
#: between batches, so a file is parsed and handed over this many lines
#: at a time rather than whole.
_FILE_BATCH_LINES = 1024


class FileLinesSource(ReportSource):
    """Reports from a newline-JSON file (read eagerly; no pacing).

    Unlike :class:`JsonLinesSource` this needs no event-loop plumbing,
    so it also serves as the deterministic external-feed fixture in
    tests.  It has no line cap; otherwise the same bytes give the same
    reports and rejects as on a stream.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.rejected = 0

    async def batches(self) -> AsyncIterator[List[LoadReport]]:
        # The same decode and split as a byte stream's, so a file and a
        # socket carrying the same bytes give the same reports and
        # rejects: a newline is the only line break.
        data = self.path.read_bytes()
        tel = get_telemetry()
        start = 0
        while start < len(data):
            end = start
            for _ in range(_FILE_BATCH_LINES):
                end = data.find(b"\n", end) + 1
                if not end:
                    end = len(data)
                    break
            batch = _parse_lines(data[start:end], self, tel)
            start = end
            if batch:
                yield batch


class TcpSource(ReportSource):
    """Accepts newline-JSON report connections and merges their streams.

    Each connection's handler reads whatever its socket has, splits the
    complete lines, parses them and hands the reports over as one list;
    the consumer takes everything pending as its next batch.

    Hardened against misbehaving feeders:

    * the hand-off is **bounded** (``queue_size``, counted in reports):
      when it is full, the per-connection handler waits for room and
      *stops reading its socket*, so TCP flow control pushes back on the
      feeder instead of the plane buffering unboundedly
      (``serve.ingest_backpressure`` counts the stalls);
    * an optional shared ``auth_token`` must arrive as the first line of
      every connection; mismatches close the connection
      (``serve.ingest_auth_failed``);
    * lines longer than ``max_line_bytes`` close the offending
      connection (``serve.ingest_overlong``) — one hostile feeder cannot
      balloon reader buffers;
    * ``max_report_rate`` (reports/second per connection, 0 = off)
      throttles a flooding feeder: a token bucket is charged for the
      lines taken and the handler sleeps off any deficit before it
      reads again (``serve.ingest_throttled`` counts the stalls) —
      reports are delayed, never dropped.

    ``close()`` terminates cleanly: the listener stops, every live
    handler task is cancelled and awaited, and the consumer is woken so
    :meth:`batches` delivers what is pending and ends instead of
    waiting forever.
    """

    def __init__(
        self,
        port: int,
        host: str = "127.0.0.1",
        auth_token: Optional[str] = None,
        queue_size: int = 1024,
        max_line_bytes: int = 65536,
        max_report_rate: float = 0.0,
    ) -> None:
        if queue_size < 1:
            raise SimulationError("tcp queue_size must be >= 1")
        if max_line_bytes < 64:
            raise SimulationError("tcp max_line_bytes must be >= 64")
        if max_report_rate < 0:
            raise SimulationError("tcp max_report_rate must be >= 0")
        self.port = port
        self.host = host
        self.auth_token = auth_token
        self.queue_size = queue_size
        self.max_line_bytes = max_line_bytes
        self.max_report_rate = max_report_rate
        #: Reports handed over by the handlers and not yet taken by the
        #: consumer; never more than ``queue_size``.
        self._pending: List[LoadReport] = []
        self._has_reports = asyncio.Event()   # also set by close()
        self._has_room = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()
        self._closed = False
        self.rejected = 0
        self.auth_failures = 0
        self.overlong_lines = 0
        self.backpressure_hits = 0
        self.throttled = 0

    @property
    def bound_port(self) -> Optional[int]:
        """The port the listener is bound to — what ``port=0`` resolved
        to — or None while it is not listening."""
        if self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.max_line_bytes
        )

    async def close(self) -> None:
        """Stop accepting, drain handler tasks, terminate the iterator."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
            self._handlers.clear()
        self._closed = True
        self._has_reports.set()

    async def _authenticate(self, reader, tel) -> bool:
        line = await reader.readline()
        if line.decode("utf-8", "replace").strip() == self.auth_token:
            return True
        self.auth_failures += 1
        if tel.enabled:
            tel.metrics.counter("serve.ingest_auth_failed").inc()
        return False

    async def _hand_over(self, batch: List[LoadReport], tel) -> None:
        """Append ``batch`` to the pending reports, waiting for room."""
        while True:
            # Read afresh each round: the consumer swaps the list out.
            pending = self._pending
            room = self.queue_size - len(pending)
            if room > 0:
                pending.extend(batch[:room])
                self._has_reports.set()
                batch = batch[room:]
                if not batch:
                    return
            self.backpressure_hits += 1
            if tel.enabled:
                tel.metrics.counter("serve.ingest_backpressure").inc()
            self._has_room.clear()
            await self._has_room.wait()

    async def _handle(self, reader, writer) -> None:
        tel = get_telemetry()
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        loop = asyncio.get_running_loop()
        rate = self.max_report_rate
        budget = 1.0
        last = loop.time()
        try:
            if self.auth_token is not None:
                if not await self._authenticate(reader, tel):
                    return
            async for batch, lines, ends in _read_batches(
                reader, self.max_line_bytes, self, tel
            ):
                if batch:
                    await self._hand_over(batch, tel)
                if rate > 0 and lines and not ends:
                    # Charged after the hand-off, so the refill covers
                    # the time these lines took to process: the guard
                    # only bites below the handler's own speed.  ``last``
                    # is not reset after the sleep — the next refill
                    # pays the deficit off.
                    now = loop.time()
                    budget = min(rate, budget + (now - last) * rate) - lines
                    last = now
                    if budget < 0:
                        self.throttled += 1
                        if tel.enabled:
                            tel.metrics.counter("serve.ingest_throttled").inc()
                        await asyncio.sleep(-budget / rate)
        except asyncio.CancelledError:
            pass  # close() is draining us
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def batches(self) -> AsyncIterator[List[LoadReport]]:
        if self._server is None and not self._closed:
            await self.start()
        while True:
            if self._pending:
                batch, self._pending = self._pending, []
                self._has_room.set()
                yield batch
            elif self._closed:
                return
            else:
                self._has_reports.clear()
                await self._has_reports.wait()


def source_from_spec(
    spec: str,
    trace: Optional[LoadTrace] = None,
    speed: float = 0.0,
    auth_token: Optional[str] = None,
    queue_size: int = 1024,
    max_line_bytes: int = 65536,
    max_report_rate: float = 0.0,
):
    """Build a source from the CLI ``--source`` grammar.

    * ``replay:<path.csv>`` / ``replay:b2w`` — trace replay (the trace
      for symbolic names is resolved by the caller and passed in);
    * ``file:<path.jsonl>`` — newline-JSON report file;
    * ``stdin`` — newline-JSON on standard input (the line cap applies);
    * ``tcp:<port>`` — listen for newline-JSON connections (the
      hardening knobs — token auth, bounded queue, line/rate caps —
      apply here).
    """
    kind, _, arg = spec.partition(":")
    if kind == "replay":
        if trace is None:
            raise SimulationError(
                f"source {spec!r} needs a resolved trace (caller bug)"
            )
        return ReplaySource(trace, speed=speed)
    if kind == "file":
        if not arg:
            raise SimulationError("file source needs a path: file:<reports.jsonl>")
        return FileLinesSource(arg)
    if kind == "stdin":
        return JsonLinesSource(max_line_bytes=max_line_bytes)
    if kind == "tcp":
        try:
            port = int(arg)
        except ValueError:
            raise SimulationError(f"bad tcp source port {arg!r}") from None
        return TcpSource(
            port,
            auth_token=auth_token,
            queue_size=queue_size,
            max_line_bytes=max_line_bytes,
            max_report_rate=max_report_rate,
        )
    raise SimulationError(
        f"unknown source {spec!r} (want replay:<trace>|file:<path>|stdin|tcp:<port>)"
    )
