"""Export simulation traces to Chrome/Perfetto trace-event JSON.

The output follows the Trace Event Format (the ``traceEvents`` JSON array
understood by ``chrome://tracing`` and https://ui.perfetto.dev): each
simulated **node becomes a process track** (pid) and each **thread a
thread track** (tid) within it, so a run opens as a per-node timeline.

Mapping from kernel events:

* ``compute`` events (which carry a duration) become complete slices
  (``ph: "X"``) on the thread's track — the colored bars of the timeline.
* ``migrate-out``/``migrate-in`` pairs become **flow arrows**
  (``ph: "s"``/``"f"``) so thread migrations draw as arcs between node
  tracks, plus instant markers at both ends.
* everything else (invocations, moves, replications, preemptions, blocks)
  becomes an instant event (``ph: "i"``) with its detail preserved in
  ``args``.

Timestamps are microseconds (the trace-event unit is also microseconds,
so simulated time maps 1:1); events are sorted before export so viewers
that require monotonic streams are happy even when duration events were
emitted at completion time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Kinds rendered as instant markers on the thread (or node) track.
_INSTANT_KINDS = {
    "invoke-local", "invoke-remote", "move", "replicate", "preempt",
    "migrate-out", "migrate-in", "ready", "run", "block", "wake", "exit",
}

#: Kind -> trace-event category (drives viewer coloring/filtering).
_CATEGORIES = {
    "compute": "compute",
    "invoke-local": "invoke",
    "invoke-remote": "invoke",
    "migrate-out": "migration",
    "migrate-in": "migration",
    "move": "mobility",
    "replicate": "mobility",
    "preempt": "scheduling",
    "ready": "scheduling",
    "run": "scheduling",
    "block": "scheduling",
    "wake": "scheduling",
    "exit": "scheduling",
}


def chrome_trace_events(events, nodes: Optional[int] = None
                        ) -> List[Dict[str, object]]:
    """Convert an iterable of :class:`~repro.sim.trace.TraceEvent` (or any
    objects with the same fields) to a list of trace-event dicts."""
    events = sorted(events, key=lambda e: (e.t_us, e.kind))
    out: List[Dict[str, object]] = []
    tids: Dict[str, int] = {}
    seen_nodes = set(range(nodes)) if nodes else set()
    flow_id = 0
    pending_flows: Dict[str, int] = {}

    def tid_of(thread: str) -> int:
        # tid 0 is the node's kernel track (events with no thread name).
        if not thread:
            return 0
        if thread not in tids:
            tids[thread] = len(tids) + 1
        return tids[thread]

    for event in events:
        seen_nodes.add(event.node)
        tid = tid_of(event.thread)
        args: Dict[str, object] = {}
        if event.detail:
            args["detail"] = event.detail
        if event.vaddr is not None:
            args["vaddr"] = f"{event.vaddr:#x}"
        category = _CATEGORIES.get(event.kind, "kernel")
        if event.dur_us > 0:
            out.append({
                "name": event.kind, "cat": category, "ph": "X",
                "ts": round(event.t_us - event.dur_us, 3),
                "dur": round(event.dur_us, 3),
                "pid": event.node, "tid": tid, "args": args,
            })
            continue
        if event.kind == "migrate-out":
            flow_id += 1
            pending_flows[event.thread] = flow_id
            out.append({
                "name": "migration", "cat": "migration", "ph": "s",
                "id": flow_id, "ts": round(event.t_us, 3),
                "pid": event.node, "tid": tid, "args": args,
            })
        elif event.kind == "migrate-in" and event.thread in pending_flows:
            out.append({
                "name": "migration", "cat": "migration", "ph": "f",
                "bp": "e", "id": pending_flows.pop(event.thread),
                "ts": round(event.t_us, 3),
                "pid": event.node, "tid": tid, "args": args,
            })
        if event.kind in _INSTANT_KINDS or event.dur_us == 0:
            out.append({
                "name": event.kind, "cat": category, "ph": "i",
                "ts": round(event.t_us, 3), "s": "t",
                "pid": event.node, "tid": tid, "args": args,
            })

    # Metadata: name the process (node) and thread tracks.
    meta: List[Dict[str, object]] = []
    for node in sorted(seen_nodes):
        meta.append({"name": "process_name", "ph": "M", "pid": node,
                     "args": {"name": f"node {node}"}})
    for thread, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        for node in sorted(seen_nodes):
            meta.append({"name": "thread_name", "ph": "M", "pid": node,
                         "tid": tid, "args": {"name": thread}})
    for node in sorted(seen_nodes):
        meta.append({"name": "thread_name", "ph": "M", "pid": node,
                     "tid": 0, "args": {"name": "kernel"}})
    return meta + out


#: Process id of the self-profiler track — far above any node id, so
#: the host-time track sorts after the simulated-node tracks.
PROFILER_PID = 9999


def profiler_track_events(profiler) -> List[Dict[str, object]]:
    """Trace events for a hot-loop self-profiler track.

    ``profiler`` is a :class:`repro.perf.hotprof.HotLoopProfiler` whose
    cumulative snapshots become per-window complete slices: one thread
    track per phase, each window's slice duration being that phase's
    host time spent *within* the window.  An extra counter track plots
    events/sec per window.  The track's timebase is **host** time since
    attach (microseconds), not simulated time — it answers "where did
    the wall clock go", alongside the simulated timeline.
    """
    samples = getattr(profiler, "samples", None)
    if not samples:
        return []
    phases = list(samples[-1][2])
    out: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": PROFILER_PID,
         "args": {"name": "self-profiler (host time)"}},
    ]
    for tid, phase in enumerate(phases, start=1):
        out.append({"name": "thread_name", "ph": "M",
                    "pid": PROFILER_PID, "tid": tid,
                    "args": {"name": phase}})
    prev_us, prev_events = 0.0, 0
    prev_phases: Dict[str, float] = {phase: 0.0 for phase in phases}
    for rel_us, events, cum in samples:
        window_us = rel_us - prev_us
        if window_us <= 0:
            continue
        for tid, phase in enumerate(phases, start=1):
            spent_us = (cum.get(phase, 0.0)
                        - prev_phases.get(phase, 0.0)) * 1e6
            if spent_us <= 0:
                continue
            out.append({
                "name": phase, "cat": "hotloop", "ph": "X",
                "ts": round(prev_us, 3),
                "dur": round(min(spent_us, window_us), 3),
                "pid": PROFILER_PID, "tid": tid,
                "args": {"cumulative_ms": round(
                    cum.get(phase, 0.0) * 1e3, 3)},
            })
        rate = (events - prev_events) / (window_us / 1e6)
        out.append({
            "name": "events/sec", "ph": "C", "pid": PROFILER_PID,
            "ts": round(rel_us, 3), "args": {"rate": round(rate, 1)},
        })
        prev_us, prev_events, prev_phases = rel_us, events, cum
    return out


def export_chrome_trace(events, path: str,
                        nodes: Optional[int] = None,
                        extra: Optional[List[Dict[str, object]]] = None
                        ) -> int:
    """Write a Chrome trace-event JSON file; returns the event count.

    ``extra`` appends pre-built trace events (e.g. a
    :func:`profiler_track_events` track) after the simulated tracks.
    The file loads directly in https://ui.perfetto.dev or
    ``chrome://tracing``.
    """
    trace = {
        "traceEvents": (chrome_trace_events(events, nodes=nodes)
                        + list(extra or [])),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.sim (Amber reproduction)"},
    }
    with open(path, "w", encoding="utf-8") as file:
        json.dump(trace, file)
    return len(trace["traceEvents"])
