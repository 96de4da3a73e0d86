"""Execution tracing for simulated runs.

Attach a :class:`Tracer` to a cluster before running and the kernel emits
an event for every interesting transition: invocations (local/remote),
thread migrations (departure and arrival), object moves, replica
installs, move-protocol preemptions, plus scheduling events (compute
slices, ready/run/block transitions) that power the Perfetto exporter in
:mod:`repro.obs.perfetto`.  Traces explain *why* a run
spent its time — which threads bounced between which nodes, which objects
were migration magnets — and feed the text renderings below.

Events land in one bounded in-memory ring: the newest ``max_events``
are kept, eviction is O(1), and ``dropped`` counts what fell off.

Usage::

    program = AmberProgram(config)
    tracer = Tracer()
    result = program.run(main, tracer=tracer)
    print(render_log(tracer.events[:40]))
    print(render_migration_matrix(tracer, nodes=config.nodes))

    from repro.obs import export_chrome_trace
    export_chrome_trace(tracer.events, "trace.json")   # open in Perfetto
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import finite


@dataclass(frozen=True)
class TraceEvent:
    """One kernel transition."""

    t_us: float
    kind: str            # invoke-local | invoke-remote | migrate-out |
    #                      migrate-in | move | replicate | preempt |
    #                      compute | ready | run | block | wake | exit
    node: int            # where it happened
    thread: str = ""     # thread name, if any
    vaddr: Optional[int] = None
    detail: str = ""
    #: Span length for duration events (``compute``); 0 for instants.
    dur_us: float = 0.0


class Tracer:
    """Collects :class:`TraceEvent` records into a bounded ring.

    The ring protects memory on long runs: it keeps the newest
    ``max_events`` events, and ``dropped`` counts the older ones it
    evicted.
    """

    def __init__(self, max_events: int = 100_000):
        self.max_events = finite("max_events", max_events, ValueError, 1,
                                 integral=True)
        self.dropped = 0
        self._ring: deque = deque(maxlen=max_events)

    def emit(self, t_us: float, kind: str, node: int, thread: str = "",
             vaddr: Optional[int] = None, detail: str = "",
             dur_us: float = 0.0) -> None:
        ring = self._ring
        if len(ring) == self.max_events:
            self.dropped += 1
        ring.append(TraceEvent(t_us, kind, node, thread, vaddr, detail,
                               dur_us))

    @property
    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    def by_kind(self) -> Dict[str, int]:
        return dict(Counter(event.kind for event in self._ring))

    def migrations(self) -> List[Tuple[str, int, int]]:
        """(thread, src, dst) per completed migration, in order."""
        return migration_pairs(self.events)


def migration_pairs(events) -> List[Tuple[str, int, int]]:
    """(thread, src, dst) per completed migration in an event stream."""
    pending: Dict[str, int] = {}
    moves: List[Tuple[str, int, int]] = []
    for event in events:
        if event.kind == "migrate-out":
            pending[event.thread] = event.node
        elif event.kind == "migrate-in" and event.thread in pending:
            moves.append((event.thread, pending.pop(event.thread),
                          event.node))
    return moves


def render_log(events: List[TraceEvent], limit: int = 50) -> str:
    """A readable event log (first ``limit`` events)."""
    lines = [f"{'time (us)':>12}  {'node':>4}  {'kind':<14} "
             f"{'thread':<14} detail"]
    for event in events[:limit]:
        obj = f" obj={event.vaddr:#x}" if event.vaddr is not None else ""
        dur = f" dur={event.dur_us:.1f}us" if event.dur_us else ""
        lines.append(f"{event.t_us:12.1f}  {event.node:>4}  "
                     f"{event.kind:<14} {event.thread:<14} "
                     f"{event.detail}{obj}{dur}")
    if len(events) > limit:
        lines.append(f"... {len(events) - limit} more events")
    return "\n".join(lines)


def render_migration_matrix(tracer: Tracer, nodes: int) -> str:
    """src x dst counts of thread migrations — the communication shape of
    the program at a glance."""
    if nodes <= 0:
        return "(no migrations: cluster has no nodes)"
    matrix = [[0] * nodes for _ in range(nodes)]
    total = 0
    for _, src, dst in tracer.migrations():
        if 0 <= src < nodes and 0 <= dst < nodes:
            matrix[src][dst] += 1
            total += 1
    if total == 0:
        return "(no migrations)"
    width = max(5, len(str(max(max(row) for row in matrix))) + 2)
    header = "src\\dst" + "".join(f"{d:>{width}}" for d in range(nodes))
    lines = [header]
    for src in range(nodes):
        lines.append(f"{src:>7}" + "".join(
            f"{matrix[src][dst]:>{width}}" for dst in range(nodes)))
    return "\n".join(lines)
