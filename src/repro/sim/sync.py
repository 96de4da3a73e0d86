"""Synchronization objects (paper section 2.2).

Amber supplies "relinquishing and non-relinquishing locks, barrier
synchronization, monitors and condition variables" as classes in the object
hierarchy.  Because they are ordinary objects, they are **mobile and can be
remotely invoked**: a thread acquiring a lock that lives on another node
simply migrates there, which is precisely the function-shipping behaviour
section 4.1 contrasts with a DSM system thrashing on a shared lock page.

All operations here are generator operations invoked via ``Invoke``:

    lock = yield New(Lock)
    yield Invoke(lock, "acquire")
    ...                                  # critical section
    yield Invoke(lock, "release")

A thread blocked inside ``acquire`` is suspended *at the lock's node*; if
the lock is moved meanwhile, the waiter migrates to the lock's new home the
next time it is scheduled (the context-switch-time residency check of
section 3.5).

Programmers extend these classes for custom concurrency control — see
``ReaderWriterLock`` below for an example built purely from the public
machinery, as the paper intends.

The live runtime runs these classes as they are (``repro.runtime.Lock``
is :class:`Lock`): there a thread is the node's wake-up token for it,
and an operation's ``ctx`` is a live one.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Any, ClassVar, Deque, Generator,
                    List, Optional, Protocol)

from repro.analyze import runtime as _analysis
from repro.errors import SynchronizationError, finite
from repro.sim.objects import SimObject
from repro.sim.syscalls import Charge, Compute, Invoke, Suspend, Wakeup

if TYPE_CHECKING:
    from repro.sim.kernel import InvocationContext

#: Nominal CPU cost of a lock/barrier bookkeeping step, microseconds.
SYNC_OP_US = 5.0
#: CPU burned per spin iteration of a non-relinquishing lock.
SPIN_STEP_US = 2.0

#: An operation body: a generator the kernel advances.
_Op = Generator[Any, Any, None]


class _Thread(Protocol):
    """What an owner or a waiter is: a ``SimThread``, or live, the
    node's ``WakeupToken`` for the thread."""

    @property
    def name(self) -> str:
        ...


def _pick_waiter(waiters: "Deque[_Thread]", kind: str,
                 vaddr: int) -> _Thread:
    """Pick which waiter is handed the lock (or condvar signal) next.

    FIFO (``popleft``) by default; with an AmberCheck controller
    installed the hand-off order becomes a recorded, replayable choice
    point."""
    controller = _analysis.CONTROLLER
    if controller is None:
        return waiters.popleft()
    index = controller.choose(
        "handoff", f"{kind}:{vaddr:#x}",
        tuple(thread.name for thread in waiters))
    chosen = waiters[index]
    del waiters[index]
    return chosen


class _Mutex(SimObject):
    """What :class:`Lock`, :class:`SpinLock` and :class:`Monitor` share:
    the held/owner state and the two bodies of taking and dropping it
    (generators the kernel advances).

    A subclass keeps what is its own: its ``__slots__`` and counters,
    its public operation names (bound to :meth:`_take` and
    :meth:`_drop`, so an operation costs no call more than its body),
    the wording of its errors (``_NOUN``, ``_DROP``), the counter a take
    bumps (``_COUNTER``), how a thread waits for a held lock
    (:meth:`_wait`) and whom a drop hands it to (``_waiters``; ``None``
    is nobody).
    """

    SIZE_BYTES = 64
    SANITIZE_FIELDS = False     # lock state IS the synchronization

    __slots__ = ()

    _NOUN: ClassVar[str]
    _DROP: ClassVar[str]
    _COUNTER: ClassVar[str]

    _held: bool
    _owner: Optional[_Thread]
    _waiters: Optional[Deque[_Thread]]
    _acquired_us: float

    def __init__(self) -> None:
        self._held = False
        self._owner = None
        self._acquired_us = 0.0

    def _wait(self, thread: _Thread) -> _Op:
        """Yield until the lock is seen free; the caller takes it in
        the same atomic step."""
        raise NotImplementedError

    def _non_owner(self, thread: _Thread) -> SynchronizationError:
        return SynchronizationError(
            f"{self._DROP} of {self._NOUN} {self.vaddr:#x} by non-owner "
            f"{thread.name}")

    def _take(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        t0 = ctx.now_us
        if self._held:
            yield from self._wait(ctx.thread)
        self._held = True
        self._owner = ctx.thread
        self._acquired_us = ctx.now_us
        setattr(self, self._COUNTER, getattr(self, self._COUNTER) + 1)
        san = _analysis.ACTIVE
        if san is not None:
            san.on_acquire(self, ctx.thread)
        ctx.metrics.observe("lock_wait_us", ctx.now_us - t0)

    def _drop(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        if not self._held or self._owner is not ctx.thread:
            raise self._non_owner(ctx.thread)
        ctx.metrics.observe("lock_hold_us",
                            ctx.now_us - self._acquired_us)
        san = _analysis.ACTIVE
        if san is not None:
            san.on_release(self, ctx.thread)
        self._held = False
        self._owner = None
        if self._waiters:
            yield Wakeup(_pick_waiter(self._waiters, self._NOUN,
                                      self.vaddr))


class Lock(_Mutex):
    """A relinquishing (blocking) mutual-exclusion lock."""

    __slots__ = ("_held", "_owner", "_waiters", "acquisitions",
                 "waited_acquisitions", "_acquired_us")

    _NOUN, _DROP, _COUNTER = "lock", "release", "acquisitions"
    _waiters: Deque[_Thread]

    def __init__(self) -> None:
        super().__init__()
        self._waiters = deque()
        self.acquisitions = 0
        self.waited_acquisitions = 0

    acquire = _Mutex._take
    release = _Mutex._drop

    def _wait(self, thread: _Thread) -> _Op:
        while self._held:
            self._waiters.append(thread)
            yield Suspend("lock")
        self.waited_acquisitions += 1

    def try_acquire(self, ctx: "InvocationContext") -> bool:
        """Non-blocking attempt; returns True on success.  Atomic."""
        if self._held:
            return False
        self._held = True
        self._owner = ctx.thread
        self._acquired_us = ctx.now_us
        self.acquisitions += 1
        san = _analysis.ACTIVE
        if san is not None:
            san.on_acquire(self, ctx.thread)
        return True

    @property
    def held(self) -> bool:
        return self._held


class SpinLock(_Mutex):
    """A non-relinquishing lock: waiters burn CPU instead of blocking.

    The paper argues these are worthwhile *within* a multiprocessor node,
    where "hardware-based spinlocks ... reduce latency": no suspend/wakeup
    round trip, at the price of occupied processors.  The spin step is a
    preemptible compute so a uniprocessor node cannot livelock — the
    timeslice eventually lets the holder run.
    """

    __slots__ = ("_held", "_owner", "acquisitions", "spin_us",
                 "_acquired_us")

    _NOUN, _DROP, _COUNTER = "spinlock", "release", "acquisitions"
    _waiters = None     # a spinner finds the lock free by itself

    def __init__(self) -> None:
        super().__init__()
        self.acquisitions = 0
        self.spin_us = 0.0

    acquire = _Mutex._take
    release = _Mutex._drop

    def _wait(self, thread: _Thread) -> _Op:
        while self._held:
            self.spin_us += SPIN_STEP_US
            yield Compute(SPIN_STEP_US)

    @property
    def held(self) -> bool:
        return self._held


class Barrier(SimObject):
    """N-party barrier.  ``wait`` returns True for exactly one thread per
    cycle (the last to arrive), mirroring the convergence-master handoff in
    the SOR program."""

    SIZE_BYTES = 64
    SANITIZE_FIELDS = False

    __slots__ = ("parties", "_count", "_generation", "_waiting",
                 "cycles")

    def __init__(self, parties: int) -> None:
        self.parties = finite("parties", parties, SynchronizationError, 1,
                              integral=True)
        self._count = 0
        self._generation = 0
        self._waiting: List[_Thread] = []
        self.cycles = 0

    def wait(self, ctx: "InvocationContext"
             ) -> Generator[Any, Any, bool]:
        yield Charge(SYNC_OP_US)
        t0 = ctx.now_us
        generation = self._generation
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            self._generation += 1
            self.cycles += 1
            waiting, self._waiting = self._waiting, []
            san = _analysis.ACTIVE
            if san is not None:
                san.on_barrier(self, waiting + [ctx.thread])
            for thread in waiting:
                yield Wakeup(thread)
            ctx.metrics.observe("barrier_wait_us", 0.0)
            return True
        self._waiting.append(ctx.thread)
        while self._generation == generation:
            yield Suspend("barrier")
        ctx.metrics.observe("barrier_wait_us", ctx.now_us - t0)
        return False


class Monitor(_Mutex):
    """A monitor lock with Mesa semantics, paired with :class:`CondVar`.

    Protect an object's state by making a Monitor (or Lock) a *member* of
    that object and attaching them, as section 3.6 recommends for
    co-residency.
    """

    __slots__ = ("_held", "_owner", "_waiters", "entries",
                 "_acquired_us")

    _NOUN, _DROP, _COUNTER = "monitor", "exit", "entries"
    _waiters: Deque[_Thread]

    def __init__(self) -> None:
        super().__init__()
        self._waiters = deque()
        self.entries = 0

    enter = _Mutex._take
    exit = _Mutex._drop

    def _wait(self, thread: _Thread) -> _Op:
        while self._held:
            self._waiters.append(thread)
            yield Suspend("monitor")


class CondVar(SimObject):
    """Condition variable bound to a :class:`Monitor` (Mesa semantics:
    ``wait`` reacquires the monitor before returning, so conditions must be
    re-checked in a loop).  Create it on the monitor's node and ``Attach``
    it so they stay co-located."""

    SIZE_BYTES = 64
    SANITIZE_FIELDS = False

    __slots__ = ("monitor", "_waiting")

    def __init__(self, monitor: Monitor) -> None:
        self.monitor = monitor
        self._waiting: Deque[_Thread] = deque()

    def wait(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        # Queued before the exit, so a signal after it finds the waiter.
        self._waiting.append(ctx.thread)
        try:
            yield Invoke(self.monitor, "exit")
        except SynchronizationError as error:
            if ctx.thread in self._waiting:
                self._waiting.remove(ctx.thread)
            raise SynchronizationError(
                "CondVar.wait without holding the monitor") from error
        yield Suspend("condvar")
        yield Invoke(self.monitor, "enter")

    def signal(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        if self._waiting:
            yield Wakeup(_pick_waiter(self._waiting, "condvar",
                                      self.vaddr))

    def broadcast(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        waiting, self._waiting = list(self._waiting), deque()
        for thread in waiting:
            yield Wakeup(thread)


class ReaderWriterLock(SimObject):
    """Many-readers / one-writer lock, built from the primitives above the
    way the paper expects applications to extend the hierarchy."""

    SIZE_BYTES = 64
    SANITIZE_FIELDS = False

    __slots__ = ("_readers", "_writer", "_waiters")

    def __init__(self) -> None:
        self._readers = 0
        self._writer: Optional[_Thread] = None
        self._waiters: Deque[_Thread] = deque()

    def acquire_read(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        while self._writer is not None:
            self._waiters.append(ctx.thread)
            yield Suspend("rwlock-read")
        self._readers += 1
        san = _analysis.ACTIVE
        if san is not None:
            san.on_acquire(self, ctx.thread, order=False)

    def release_read(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        if self._readers <= 0:
            raise SynchronizationError("release_read without readers")
        san = _analysis.ACTIVE
        if san is not None:
            san.on_release(self, ctx.thread, order=False)
        self._readers -= 1
        if self._readers == 0:
            for thread in self._drain():
                yield Wakeup(thread)

    def acquire_write(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        while self._writer is not None or self._readers > 0:
            self._waiters.append(ctx.thread)
            yield Suspend("rwlock-write")
        self._writer = ctx.thread
        san = _analysis.ACTIVE
        if san is not None:
            san.on_acquire(self, ctx.thread)

    def release_write(self, ctx: "InvocationContext") -> _Op:
        yield Charge(SYNC_OP_US)
        if self._writer is not ctx.thread:
            raise SynchronizationError("release_write by non-writer")
        san = _analysis.ACTIVE
        if san is not None:
            san.on_release(self, ctx.thread)
        self._writer = None
        for thread in self._drain():
            yield Wakeup(thread)

    def _drain(self) -> List[_Thread]:
        waiting, self._waiters = list(self._waiters), deque()
        return waiting
