"""Benchmark-side spans and the self-time aggregator.

The traced run wraps public methods of the objects the benchmark built
(instance attributes shadow the class methods, so no file of the program
changes).  Each wrapped call records one span: name, start, end, parent
span and the unit of work it belongs to.  Spans stay in memory until the
run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  The benchmark opens one root span per unit of work,
so the self times of all spans of a unit add up to the unit's duration; the
root's own self time is the remainder no layer span covers.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = ["ROOT", "Span", "SpanRecorder", "covered_ns", "self_times"]

ROOT = -1


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, ROOT for a root span
    unit: int    # index of the root span: shared by all spans of one unit of work


class SpanRecorder:
    """Records nested spans around wrapped calls; single-threaded."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.rows: Dict[str, int] = {}
        self._open: List[tuple] = []  # (index, name, start_ns)
        self._patched: List[tuple] = []

    def _enter(self, name: str) -> None:
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parents before children
        self._open.append((index, name, time.perf_counter_ns()))

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else ROOT
        unit = self._open[0][0] if self._open else index
        self.spans[index] = Span(name, start, end, parent, unit)

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span the benchmark opens itself."""
        return _SpanContext(self, name)

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        rows: Optional[Callable[..., int]] = None,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a traced wrapper (undone by :meth:`unwrap_all`).

        ``rows(*args, **kwargs)`` adds the call's batch size to
        ``self.rows[name]``; ``after(result)`` sees every call's result.
        """
        original = getattr(obj, attr)
        enter, leave, counts = self._enter, self._exit, self.rows

        def traced(*args, **kwargs):
            if rows is not None:
                counts[name] = counts.get(name, 0) + rows(*args, **kwargs)
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(result)
            return result

        setattr(obj, attr, traced)
        self._patched.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in reversed(self._patched):
            delattr(obj, attr)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps([i, s.name, s.start_ns, s.end_ns, s.parent, s.unit]))
                out.write("\n")


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder, self.name = recorder, name

    def __enter__(self) -> None:
        self.recorder._enter(self.name)

    def __exit__(self, *exc) -> bool:
        self.recorder._exit()
        return False


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> Dict[str, Dict[str, int]]:
    """Per span name: ``calls``, ``total_ns`` (inclusive) and ``self_ns``."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent != ROOT:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out: Dict[str, Dict[str, int]] = {}
    for i, s in enumerate(spans):
        duration = s.end_ns - s.start_ns
        row = out.setdefault(s.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += duration - covered_ns(s.start_ns, s.end_ns, children.get(i, ()))
    return out
