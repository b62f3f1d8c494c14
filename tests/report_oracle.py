"""The report parser as ``json.loads`` writes it: the ingest test oracle.

``repro.serve.ingest.parse_report_line`` decodes with
``JSONDecoder.raw_decode`` and checks that the document ends the line.
This module is the ``json.loads`` body it replaced: obviously the
language's own parser, and so what the fast one must agree with on any
text at all.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.serve.ingest import LoadReport


def parse_report_line_reference(line: str) -> Optional[LoadReport]:
    text = line.strip()
    if not text:
        return None
    try:
        doc = json.loads(text)
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
    return LoadReport(time=time, count=count, node=node)
