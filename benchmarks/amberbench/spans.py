"""The benchmark's own span recorder.

A span is one call from the benchmark into a layer of the program (or
one measurement stage): name, start, end, the span that caused it, and
the id of the operation it belongs to.  Spans stay in memory while the
workload runs and are written out once, at the end.  A span's *self
time* is its duration minus the part of it its child spans cover.

The untraced pass gets :data:`OFF`, whose ``span()`` hands back one
shared do-nothing context manager, so the measured loop is the same code
with tracing off.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

#: Field order of one span row in the trace file.
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")


class _Span:
    __slots__ = ("_rec", "_name", "_op", "_id", "_parent", "_start")

    def __init__(self, rec: "Recorder", name: str, op: Optional[int]):
        self._rec = rec
        self._name = name
        self._op = op

    def __enter__(self) -> "_Span":
        stack = self._rec._stack()
        self._parent = stack[-1] if stack else -1
        self._id = next(self._rec._ids)
        stack.append(self._id)
        self._start = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter_ns()
        self._rec._stack().pop()
        # list.append is atomic under the GIL: client threads share it.
        self._rec.rows.append((self._id, self._name, self._start, end,
                               self._parent, self._op))


class Recorder:
    """Collects spans; one parent stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.rows: List[Tuple[int, str, int, int, int, Optional[int]]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)      # next() is atomic

    def span(self, name: str, op: Optional[int] = None) -> _Span:
        return _Span(self, name, op)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_time_ns(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total duration and total self time."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for _id, _name, start, end, parent, _op in self.rows:
            if parent >= 0:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _parent, _op in self.rows:
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            entry = out.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0})
            entry["count"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += (end - start) - covered
        return out

    def write(self, path: str, header: Dict[str, Any]) -> None:
        document = dict(header)
        document["fields"] = list(FIELDS)
        document["self_time_by_name"] = self.self_time_ns()
        document["spans"] = self.rows
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


class _Off:
    """Tracing off: every ``span()`` is the same no-op."""

    enabled = False
    _NO_SPAN = _NoSpan()

    def span(self, name: str, op: Optional[int] = None) -> _NoSpan:
        return self._NO_SPAN


OFF = _Off()
