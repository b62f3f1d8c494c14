"""Differential tests: the report parser and the byte splitter.

``parse_report_line`` decodes with ``JSONDecoder.raw_decode`` plus an
end-of-line check; ``tests/report_oracle.py`` is the ``json.loads``
parser it replaced.  On any text at all — hostile numbers, a byte-order
mark, trailing garbage, two documents on one line, deep nesting, huge
integers — both must return the same report or both None.

The sources split bytes into lines, decode each read's lines once and
skip blank lines.  One byte stream cut anywhere into a
:class:`JsonLinesSource`, and the same bytes written as a file, must
give the same reports and rejects as the oracle applied line by line.
"""

import asyncio
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.ingest import (
    FileLinesSource,
    JsonLinesSource,
    LoadReport,
    parse_report_line,
)

from .report_oracle import parse_report_line_reference
from .test_serve import HOSTILE_LINES


def _same(line: str) -> None:
    got, want = parse_report_line(line), parse_report_line_reference(line)
    # repr: -0.0 and 0.0 compare equal, and the node must be a str.
    assert repr(got) == repr(want), line
    assert got is None or type(got) is LoadReport


# ----------------------------------------------------------------------
# The parser against json.loads
# ----------------------------------------------------------------------

#: JSON values as they appear on the wire, usable or not.
literals = st.one_of(
    st.floats().map(json.dumps),              # NaN and +-Infinity too
    st.integers(min_value=-(10**30), max_value=10**30).map(json.dumps),
    st.sampled_from(["1e999", "-0.0", "1" + "0" * 400]),
    st.one_of(st.text(max_size=4), st.none(), st.booleans()).map(json.dumps),
)


@st.composite
def report_docs(draw) -> str:
    """A JSON object that is often, not always, a usable report."""
    fields = []
    for key in draw(st.permutations(["time", "count", "node", "extra"])):
        if draw(st.booleans()):
            value = draw(
                st.one_of(st.text().map(json.dumps), literals)
                if key == "node" else literals
            )
            fields.append(f'"{key}": {value}')
    return "{" + ", ".join(fields) + "}"


#: A usable report, as a monitor surrogate writes one.
honest_docs = st.builds(
    lambda time, count, node: json.dumps(
        {"time": time, "count": count, "node": node}
    ),
    st.floats(min_value=0.0, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e9),
    st.text(),
)

#: JSON whitespace and the wider whitespace ``str.strip`` also removes.
padding = st.text(
    alphabet=" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=3
)

near_json = st.text(
    alphabet='{}[]":,.0123456789eE+-NaIfinitytrulscomed \t\\u\ufeff\u2028',
    max_size=40,
)

# Depths far from the parser's stack limit on either side, so the two
# parsers' few frames of difference cannot decide the outcome.
nesting = st.one_of(
    st.integers(min_value=1, max_value=60), st.just(200_000)
)


@st.composite
def lines(draw) -> str:
    doc = draw(report_docs())
    shape = draw(st.sampled_from([
        "doc", "honest", "text", "near", "hostile", "bom", "garbage", "two",
        "deep", "huge",
    ]))
    if shape == "honest":
        body = draw(honest_docs)
    elif shape == "text":
        body = draw(st.text())
    elif shape == "near":
        body = draw(near_json)
    elif shape == "hostile":
        body = draw(st.sampled_from(HOSTILE_LINES))
    elif shape == "bom":
        body = "\ufeff" + doc
    elif shape == "garbage":
        body = doc + draw(st.text(min_size=1, max_size=5))
    elif shape == "two":
        body = doc + draw(padding) + draw(report_docs())
    elif shape == "deep":
        depth = draw(nesting)
        body = '{"time": 1, "deep": ' + "[" * depth + "]" * depth + "}"
    elif shape == "huge":
        digits = draw(st.integers(min_value=300, max_value=5000))
        body = '{"time": 1' + "0" * digits + "}"
    else:
        body = doc
    return draw(padding) + body + draw(padding)


class TestParseMatchesJsonLoads:
    @given(line=lines())
    @settings(max_examples=600, deadline=None)
    def test_any_line(self, line):
        _same(line)

    @given(line=st.text())
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_text(self, line):
        _same(line)

    def test_the_edges_by_name(self):
        honest = '{"time": 30, "count": 2, "node": "a"}'
        for line in HOSTILE_LINES + [
            "", "  ", honest, "\ufeff" + honest, honest + " x",
            honest + honest, honest + " " + honest, honest + "\u2028",
            "\u3000" + honest, "[" * 200_000,
            '{"time": 1' + "0" * 5000 + "}",
        ]:
            _same(line)
        assert parse_report_line(honest) == LoadReport(30.0, 2.0, "a")
        assert parse_report_line(honest + " x") is None
        assert parse_report_line(honest + honest) is None


# ----------------------------------------------------------------------
# One byte stream, however it is cut, and the same bytes as a file
# ----------------------------------------------------------------------


class CutReader:
    """Hands out a byte stream in the pieces it was cut into, one per
    ``read``, as a socket delivers whatever has arrived."""

    def __init__(self, pieces) -> None:
        self.pieces = list(pieces)

    async def read(self, limit: int) -> bytes:
        if not self.pieces:
            return b""
        piece = self.pieces.pop(0)
        if len(piece) > limit:
            self.pieces.insert(0, piece[limit:])
        return piece[:limit]


# Cut short (a UTF-8 sequence too, at times): no line reaches the
# stream's line cap, which would end the stream and not the file.
byte_lines = st.one_of(
    lines().map(lambda line: line.replace("\n", " ").encode()[:2048]),
    st.sampled_from([
        b"", b"   ", b"\r", b"\xff", b'{"time": 30, "node": "\xff"}',
        '{"time": 30, "node": "a\u2028b"}'.encode(),
        '{"time": 30, "node": "a\x85b"}'.encode(),
        b'{"time": 30, "node": "\xe2\x82"}',
        b'{"time": 60, "count": 4, "node": "b"}\r',
    ]),
    st.binary(max_size=12).map(lambda raw: raw.replace(b"\n", b"")),
)


@st.composite
def cut_streams(draw):
    body = b"\n".join(draw(st.lists(byte_lines, max_size=20)))
    if draw(st.booleans()):
        body += b"\n"
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=max(1, len(body) - 1)),
        max_size=8,
    )) if len(body) > 1 else [])
    bounds = [0] + cuts + [len(body)]
    pieces = [body[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return body, pieces


def _expected(body: bytes):
    reports, rejected = [], 0
    for raw in body.split(b"\n"):
        line = raw.decode("utf-8", "replace")
        report = parse_report_line_reference(line)
        if report is not None:
            reports.append(report)
        elif line.strip():
            rejected += 1
    return reports, rejected


class TestSourcesSplitAlike:
    @given(stream=cut_streams())
    @settings(max_examples=300, deadline=None)
    def test_stream_cuts_and_file_agree(self, stream):
        body, pieces = stream

        async def drain(*sources):
            return [
                ([r async for r in source.reports()], source.rejected)
                for source in sources
            ]

        with tempfile.TemporaryDirectory() as directory:
            path = pathlib.Path(directory) / "reports.jsonl"
            path.write_bytes(body)
            stdin = JsonLinesSource(CutReader(pieces))
            got = asyncio.run(drain(stdin, FileLinesSource(path)))
        assert got == [_expected(body)] * 2
        assert stdin.overlong_lines == 0

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=150), max_size=12),
        terminated=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_an_overlong_line_ends_any_cut_of_the_stream(
        self, sizes, terminated, data
    ):
        # Every line before the first one longer than the cap is parsed,
        # nothing from it on, however the reads cut the stream.
        limit = 64
        raw = [
            json.dumps({"time": i, "node": "n" * size}).encode()[:size]
            if size < 20 else
            json.dumps({"time": i, "node": "n" * (size - 20)}).encode()
            for i, size in enumerate(sizes)
        ]
        body = b"\n".join(raw) + (b"\n" if terminated else b"")
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=max(1, len(body) - 1)),
            max_size=8,
        )) if len(body) > 1 else [])
        bounds = [0] + cuts + [len(body)]
        pieces = [body[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
        long = [i for i, line in enumerate(raw) if len(line) > limit]
        kept = raw[:long[0]] if long else raw
        stdin = JsonLinesSource(CutReader(pieces), max_line_bytes=limit)

        async def drain():
            return [r async for r in stdin.reports()]

        assert (asyncio.run(drain()), stdin.rejected) == _expected(
            b"\n".join(kept)
        )
        assert stdin.overlong_lines == (1 if long else 0)
