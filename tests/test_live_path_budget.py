"""Call budget of the live message path.

The live twin of ``test_hot_path_budget.py``: a perf regression test
without a wall clock.  A profile function that counts ``call`` and
``c_call`` events — Python function entries and C function calls — is
installed with ``sys.setprofile`` and ``threading.setprofile`` *before*
the cluster starts: the node processes are forked, so they carry it, and
every thread any of the three processes starts installs it on itself.  A
probe object on each node reads its own process's count; the driver's is
read in place.

The work counted first is AmberBench's ``live_mobility`` pair: ``move`` the
object to the other worker node, then ``call`` it there — straight, since
the move's reply told the mover where it went (until that change the
call chased the one forwarding hop the move left behind).  Measured over
600 pairs, Python + C
calls per pair summed over the three processes, two runs each: **591.2**
and **591.2** at the parent of the live-message-path change (pickled
dataclass frames, every request served by a pool worker, a worker parked
per move); **666.2** and **666.1** with the wire form alone — a named
tuple is taken apart and rebuilt through more, cheaper, calls than
pickle spends on a dataclass inside one ``dumps`` (the count is of
calls, not of time: that commit is the faster one); **558.6** and
**558.5** with mesh readers serving what cannot block and the move's
second half a continuation (two frames and three hand-offs fewer a
pair); **555.4** and **555.6** once a served request is answered by one
routine that posts and writes its reply (no ``send`` between them), and
**554.3** to **554.8** over five runs once the request rows go straight
to the serve path (no per-kind wrapper).  On a 2-vCPU container the
same pair reads **534.4** there and **523.4** once a request is routed
by ``DescriptorTable.next_hop`` alone (no locked residency check first).
Alternating with its parent on that container, two runs each: **524.8**
and **524.7** at the parent, **469.7** and **469.5** once a successful
move hints its mover at the destination (six frames a pair, no forward).
Again alternating on a 2-vCPU container: **468.6** and **468.4** at the
parent, **473.0** and **472.9** once an invocation carries its logical
thread (``InvokeMsg.thread``: read on the call, set and reset where it
executes).
Alternating on a 2-vCPU container, two runs each: **474.9** and
**474.5** at the parent, **440.6** and **440.1** once a request's reply
waits in a slot, a served request is claimed once, and the route, the
thread handle and the frame decoder rebuild nothing per request.
The budget is the 440.6 figure plus 10 %: an increase means a frame, a
hand-off or a wrapper crept back onto the path.

The second count is AmberBench's ``live_fanout`` shape: windows of 64
``fork``s round-robin over 8 counters on nodes 1-2, each window then
joined; Python + C calls per ``fork`` + ``join``, over the three
processes.  Alternating on a 2-vCPU container, two runs each: **149.0**
and **149.3** at the parent of the change above (about 75 on node 0,
which forks and joins, and 37 on each of nodes 1-2), **132.6** and
**132.8** with it (69 on node 0, 32 on each of nodes 1-2).  The budget
is the 132.8 figure plus 10 %.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import sys
import threading

from repro.runtime import AmberObject, Cluster

CALLS_PER_PAIR_BUDGET = 440.6 * 1.10
PAIRS = 600

CALLS_PER_FORK_BUDGET = 132.8 * 1.10
#: ``live_fanout``'s shape: counters on nodes 1-2, windows of forks.
COUNTERS = 8
WINDOW = 64
WINDOWS = 20

#: This process's count: ``next`` on it is one atomic step, whichever
#: thread takes it.
_calls = itertools.count()


def _on_event(frame, event, arg, _take=_calls.__next__):
    if event == "call" or event == "c_call":
        _take()


class Probe(AmberObject):
    def __init__(self):
        self.bumps = 0

    def bump(self):
        self.bumps += 1
        return self.bumps

    def add(self, n):
        self.bumps += n
        return self.bumps

    def calls(self):
        """Calls counted in this process so far; gc off from here on."""
        gc.disable()
        return next(_calls)


@contextlib.contextmanager
def _counting():
    """Every call of this process and of the node processes it forks
    is counted while the block runs (gc off)."""
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    threading.setprofile(_on_event)
    sys.setprofile(_on_event)
    try:
        yield
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
        if collecting:
            gc.enable()


def _calls_per_op(cluster, probes, run, ops):
    """Python + C calls per op that ``run()`` costs over the three
    processes.  Two reads back to back price a read, which is then
    taken out."""

    def counted():
        return next(_calls) + sum(
            cluster.call(probe, "calls") for probe in probes)

    first = counted()
    base = counted()
    run()
    after = counted()
    return (after - base - (base - first)) / ops


def test_move_and_call_pair_within_budget():
    with _counting(), Cluster(nodes=3) as cluster:
        probes = [cluster.create(Probe, node=node) for node in (1, 2)]
        tally = cluster.create(Probe, node=1)
        dest = 1

        def pairs(count):
            nonlocal dest
            for _ in range(count):
                dest = 3 - dest
                cluster.move(tally, dest)
                assert cluster.call(tally, "bump") > 0

        pairs(20)           # connections dialled, pools warm
        per_pair = _calls_per_op(cluster, probes, lambda: pairs(PAIRS),
                                 PAIRS)
    assert per_pair <= CALLS_PER_PAIR_BUDGET, (
        f"{per_pair:.1f} Python+C calls per move+call pair over the "
        f"three processes (budget {CALLS_PER_PAIR_BUDGET:.1f}): "
        "something crept back onto the live message path")
    # Far below means the counter did not reach the node processes.
    assert per_pair > CALLS_PER_PAIR_BUDGET / 3


def test_fanout_fork_and_join_within_budget():
    with _counting(), Cluster(nodes=3) as cluster:
        probes = [cluster.create(Probe, node=node) for node in (1, 2)]
        counters = [cluster.create(Probe, node=1 + index % 2)
                    for index in range(COUNTERS)]

        def windows(count):
            for _ in range(count):
                threads = [cluster.fork(counters[index % COUNTERS], "add", 1)
                           for index in range(WINDOW)]
                for thread in threads:
                    assert thread.join() > 0

        windows(WINDOWS)    # connections dialled, pools warm
        per_fork = _calls_per_op(cluster, probes,
                                 lambda: windows(WINDOWS), WINDOWS * WINDOW)
    assert per_fork <= CALLS_PER_FORK_BUDGET, (
        f"{per_fork:.1f} Python+C calls per fork+join over the three "
        f"processes (budget {CALLS_PER_FORK_BUDGET:.1f}): something "
        "crept back onto the live request path")
    assert per_fork > CALLS_PER_FORK_BUDGET / 3
