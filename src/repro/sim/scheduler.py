"""Per-node thread schedulers.

The paper (section 2.1, after Presto) lets an application replace a node's
scheduler object at runtime with any object supporting the same interface.
:class:`Scheduler` is that interface; three disciplines are provided, and
programs may subclass their own and install them with the ``SetScheduler``
request (see ``examples/custom_scheduler.py``).

Schedulers order *runnable* threads only.  Timeslicing is enforced by the
kernel (quantum from the cost model); the scheduler is consulted at dispatch
and preemption points.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional

from repro.sim.thread import SimThread


class Scheduler:
    """Interface for a node's ready queue."""

    def enqueue(self, thread: SimThread) -> None:
        raise NotImplementedError

    def dequeue(self) -> Optional[SimThread]:
        """Remove and return the next thread to run, or None if empty."""
        raise NotImplementedError

    def remove(self, thread: SimThread) -> bool:
        """Withdraw a specific thread (e.g. it is being migrated away while
        queued).  Returns True if it was present."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def drain(self) -> List[SimThread]:
        """Remove all queued threads (used when the scheduler is replaced)."""
        threads = []
        while True:
            thread = self.dequeue()
            if thread is None:
                return threads
            threads.append(thread)


class FifoScheduler(Scheduler):
    """Round-robin FIFO — the default, matching Presto's base discipline."""

    def __init__(self) -> None:
        self._queue: Deque[SimThread] = deque()

    def enqueue(self, thread: SimThread) -> None:
        self._queue.append(thread)

    def dequeue(self) -> Optional[SimThread]:
        return self._queue.popleft() if self._queue else None

    def remove(self, thread: SimThread) -> bool:
        try:
            self._queue.remove(thread)
            return True
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self._queue)


class LifoScheduler(Scheduler):
    """Last-in first-out — favors cache-warm threads; an example of the
    adaptive policies the paper alludes to."""

    def __init__(self) -> None:
        self._stack: List[SimThread] = []

    def enqueue(self, thread: SimThread) -> None:
        self._stack.append(thread)

    def dequeue(self) -> Optional[SimThread]:
        return self._stack.pop() if self._stack else None

    def remove(self, thread: SimThread) -> bool:
        try:
            self._stack.remove(thread)
            return True
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self._stack)


class ControlledScheduler(Scheduler):
    """A ready queue whose dequeue picks are made by an external chooser.

    This is AmberCheck's entry into the paper's user-replaceable-
    scheduler hook: the model checker installs one per node, and every
    dispatch becomes a recorded (and replayable) choice point.  The
    queue preserves arrival order; ``chooser.choose`` returns the index
    of the thread to run next — index 0 reproduces FIFO behaviour, so a
    run with all-default choices matches the stock scheduler's order.
    """

    def __init__(self, chooser, node_id: int) -> None:
        #: Anything with ``choose(kind, where, options, queued=())``
        #: returning an index — see repro.analyze.choice.ChoiceController.
        self._chooser = chooser
        self._node_id = node_id
        self._queue: List[SimThread] = []

    def enqueue(self, thread: SimThread) -> None:
        self._queue.append(thread)

    def dequeue(self) -> Optional[SimThread]:
        if not self._queue:
            return None
        index = self._chooser.choose(
            "pick", f"node{self._node_id}",
            tuple(thread.name for thread in self._queue))
        return self._queue.pop(index)

    def remove(self, thread: SimThread) -> bool:
        try:
            self._queue.remove(thread)
            return True
        except ValueError:
            return False

    def thread_names(self) -> List[str]:
        """Names of the queued threads, in arrival order (exposed so the
        kernel's preemption choice points can record who was runnable)."""
        return [thread.name for thread in self._queue]

    def drain(self) -> List[SimThread]:
        """Replacement drain is bookkeeping, not a scheduling decision —
        hand the threads over in arrival order without consulting the
        chooser."""
        threads, self._queue = self._queue, []
        return threads

    def __len__(self) -> int:
        return len(self._queue)


class PriorityScheduler(Scheduler):
    """Highest ``thread.priority`` first; FIFO among equals.

    Lazy deletion is done per heap *entry*, not per thread: each entry
    carries its own alive flag, and ``_live`` maps a queued thread to its
    single live entry.  A shared per-thread tombstone set is not enough —
    remove-then-re-enqueue would discard the tombstone while the dead
    entry still sits in the heap, and ``dequeue`` would then hand out the
    same thread twice (double dispatch onto two CPUs).
    """

    #: Entry layout: [neg_priority, seq, thread, alive].
    _ALIVE = 3

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = 0
        #: id(thread) -> its one live heap entry.
        self._live: dict = {}

    def enqueue(self, thread: SimThread) -> None:
        stale = self._live.get(id(thread))
        if stale is not None:
            # Re-enqueued while a live entry exists (priority change):
            # kill the old entry so only one can ever be dispatched.
            stale[self._ALIVE] = False
        entry = [-thread.priority, self._seq, thread, True]
        self._seq += 1
        self._live[id(thread)] = entry
        heapq.heappush(self._heap, entry)

    def dequeue(self) -> Optional[SimThread]:
        while self._heap:
            entry = heapq.heappop(self._heap)
            if not entry[self._ALIVE]:
                continue
            thread = entry[2]
            entry[self._ALIVE] = False
            del self._live[id(thread)]
            return thread
        return None

    def remove(self, thread: SimThread) -> bool:
        entry = self._live.pop(id(thread), None)
        if entry is None:
            return False
        entry[self._ALIVE] = False
        return True

    def __len__(self) -> int:
        return len(self._live)
