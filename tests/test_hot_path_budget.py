"""Call budget of the simulator's per-event path.

A perf regression test without a wall clock: ``sys.setprofile`` counts
Python-level ``call`` events (function entries and generator resumptions;
C builtins and interpreter-version inlining do not enter) while a fixed
program of ``tests/hot_path_programs.py`` runs untraced, and the count
per simulated event must stay inside that program's budget.

Measured on the mobility program (6,442 events): **24.51** calls per
event before the per-event path was made to look instruments, nodes and
state buckets up once (commit ``41e77d0``), **17.58** after
(``cf12d11``), **17.15**
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
per-event paths.  It read 12.06 at the parent of the next step, and
**10.31** once a descriptor is one int (the per-event residency checks
and a migrating thread object's two entries are dict reads and writes in
place, no record is allocated per move, arrival or hint), a fault-free
hop builds no give-up continuation, the network pushes its delivery
entry itself (no ``schedule_at_ns`` call) and a migration's CPU costs
are summed once, and **10.30** once the object requests (``New``,
``Delete``, ``Attach``, ``Unattach``, ``SetImmutable``) continue through
partials of bound methods instead of closures.  The budget is the 10.30
figure plus 10 %; an increase means a wrapper crept onto the per-event
path.

Measured on the fork-join program (1,068 events: a contended ``Lock``
and a ``Barrier``): **13.39** calls per event with AmberElide's runtime
half on the sync path (a fast-path test that then called the
generator body), **13.34** once ``acquire``/``release`` are the
generator bodies themselves (one Python call less per lock operation),
13.43 at the parent of the one-int descriptor and **11.46** with it (the
same levers as above).  Its budget is the 11.46 figure plus 10 %.
"""

from __future__ import annotations

import gc
import sys

from tests import hot_path_programs as programs

#: program -> (events it runs, measured calls per event); each
#: program's budget is its figure plus 10 %.
MEASURED = {
    "run_mobility": (6442, 10.30),
    "run_forkjoin": (1068, 11.46),
}


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


def _assert_within_budget(program):
    expected_events, measured = MEASURED[program]
    budget = measured * 1.10
    calls, result = count_python_calls(getattr(programs, program))
    events = result.cluster.sim.events_run
    assert events == expected_events
    assert calls / events <= budget, (
        f"{program}: {calls / events:.2f} Python calls per simulated "
        f"event (budget {budget:.2f}): something on the per-event "
        "path went back to per-event lookups")


def test_mobility_calls_per_event_within_budget():
    _assert_within_budget("run_mobility")


def test_forkjoin_calls_per_event_within_budget():
    """The one budget over ``Lock`` and ``Barrier`` operations."""
    _assert_within_budget("run_forkjoin")


def test_call_count_is_deterministic():
    first, _ = count_python_calls(programs.run_forkjoin)
    second, _ = count_python_calls(programs.run_forkjoin)
    assert first == second
