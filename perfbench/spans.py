"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the index of its parent span and the id
of the operation it belongs to.  Spans stay in memory until the traced child
prints them when it ends.  Times come from ``time.perf_counter``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans for one operation; not thread-safe by design,
    because every span is opened from the child's main thread."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, extra: bool = False):
        """Time the body as span ``name``.  ``extra`` marks a replay call
        that the CLI path of the operation does not make."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "extra": extra,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover, summed over spans of that name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = (s["end"] - s["start"]) - _covered(children.get(i, []))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def top_level(spans: list[dict]) -> list[dict]:
    """Spans whose parent is the operation's root span (index 0)."""
    return [s for s in spans if s["parent"] == 0]
