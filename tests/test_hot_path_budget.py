"""Call budget of the simulator's per-event path.

A perf regression test without a wall clock: ``sys.setprofile`` counts
Python-level ``call`` events (function entries and generator resumptions;
C builtins and interpreter-version inlining do not enter) while the fixed
mobility program of ``tests/hot_path_programs.py`` runs untraced, and the
count per simulated event must stay inside the budget.

Measured on that program (6,442 events): **24.51** calls per event before
the per-event path was made to look instruments, nodes and state buckets
up once (commit ``41e77d0``), **17.58** after (``cf12d11``), **17.15**
once crash recovery became an attribute that is ``None`` when off (the
``_recovering()`` / ``_settle_replay_entries()`` calls of a recovery-free
run are gone; the kernel split itself adds no call per event), 17.23
with one return path for atomic and generator operations, **16.86**
once every hop of the chase is one ``DescriptorTable.next_hop``, and
**12.04** once an event is its heap entry (no ``Event`` object, no
``schedule_at_ns`` call from ``charge``), every continuation a
``functools.partial`` of a bound method instead of a lambda around one,
trace calls made only with a tracer attached, ``try_dispatch`` one pass
over the CPUs and no property read on the kernel's and the chase's
per-event paths.  The budget is the 12.04 figure plus 10 %; an increase
means a wrapper crept onto the per-event path.
"""

from __future__ import annotations

import gc
import sys

from tests import hot_path_programs as programs

CALLS_PER_EVENT_BUDGET = 12.04 * 1.10


def count_python_calls(run):
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection that lands inside the run calls every Python-level
    # ``gc.callbacks`` entry (hypothesis registers one): calls that are
    # not the program's, at moments that depend on what ran before.
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls, result


def test_mobility_calls_per_event_within_budget():
    calls, result = count_python_calls(programs.run_mobility)
    events = result.cluster.sim.events_run
    assert events == 6442
    assert calls / events <= CALLS_PER_EVENT_BUDGET, (
        f"{calls / events:.2f} Python calls per simulated event "
        f"(budget {CALLS_PER_EVENT_BUDGET:.2f}): something on the "
        "per-event path went back to per-event lookups")


def test_call_count_is_deterministic():
    first, _ = count_python_calls(programs.run_forkjoin)
    second, _ = count_python_calls(programs.run_forkjoin)
    assert first == second
