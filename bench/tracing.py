"""In-memory spans around the benchmark's calls into the program.

A span records its name, start, end, parent span and the id of the
operation it belongs to, plus free-form attributes (a state dimension, a
file size).  Spans stay in memory until the run ends.  With tracing off,
`span` records nothing and only hands back an attribute dict.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "attrs": attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]
