"""Simulated Amber threads.

Threads are the active entities: objects that possess processor state and a
runtime stack and can execute on a CPU (section 1).  Here the "stack" is a
list of :class:`Activation` records, each holding the generator of one
executing operation and the object it is bound to.  A thread is *bound* to
every object on its activation stack — the set the mobility code must
consider when one of those objects moves (section 3.5).

Being objects, threads live in the global address space, can be joined from
anywhere, and migrate between nodes — either because they invoked a remote
object (function shipping) or because an object they are bound to moved.

:class:`ThreadManager` holds the rows of the thread requests and ends
threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.analyze import runtime as _analysis
from repro.errors import InvocationError
from repro.obs.profile import bucket_for_state
from repro.sim import syscalls as sc
from repro.sim.engine import NS_PER_US
from repro.sim.objects import SimObject


class ThreadState(enum.Enum):
    NEW = "new"             # created, not started
    READY = "ready"         # runnable, queued at a node
    RUNNING = "running"     # on a CPU
    BLOCKED = "blocked"     # suspended (sync object, join, ...)
    TRANSIT = "transit"     # migrating between nodes
    DONE = "done"           # terminated

    def __init__(self, value: str) -> None:
        #: Profile bucket of time spent in this state, classified once
        #: (a BLOCKED thread's bucket also depends on its block reason).
        self.bucket = bucket_for_state(value)


# The members as module names, for the per-event path: on Python 3.11
# ``EnumType`` defines ``__getattr__``, which sends every ``ThreadState.X``
# read through the slow attribute hook (~0.2 us, about five times a
# plain class attribute), and a run reads them on every state change.
NEW = ThreadState.NEW
READY = ThreadState.READY
RUNNING = ThreadState.RUNNING
BLOCKED = ThreadState.BLOCKED
TRANSIT = ThreadState.TRANSIT
DONE = ThreadState.DONE


@dataclass(slots=True)
class Activation:
    """One frame of a thread's stack: an operation executing on an object.

    ``gen`` is ``None`` for atomic (non-generator) operations, which never
    suspend mid-body.  ``result_bytes`` is the declared size of the return
    value, charged as migration payload if the return crosses nodes.
    """

    obj: SimObject
    method: str
    gen: Optional[Generator[Any, Any, Any]]
    result_bytes: int = 0
    #: When the invocation entered the kernel (for latency histograms).
    start_us: float = 0.0
    #: Whether the invocation trapped and migrated to reach the target.
    remote: bool = False
    #: Root frames (thread bodies) are not measured as invocations.
    root: bool = False


class SimThread(SimObject):
    """A simulated thread of control.

    All scheduling fields are kernel-private; programs interact with threads
    only through the ``Fork``/``NewThread``/``Start``/``Join`` requests and
    through the statistics snapshot.
    """

    SIZE_BYTES = 1000   # one network packet, per the Table 1 benchmark note

    #: Thread state is kernel bookkeeping, not user data (AmberSan).
    SANITIZE_FIELDS = False

    # Hot-loop layout: every scheduling field below is read or written
    # on each dispatch, so slot descriptors beat dict probes.  The
    # SimObject base is unslotted, so instances keep a ``__dict__`` for
    # the kernel-attached fields (``_vaddr`` and friends) — these slots
    # only cover the per-instance state declared here.
    __slots__ = (
        "tid", "name", "priority", "_state", "location", "stack",
        "send_value", "send_exc", "surcharge_us", "pending_compute_us",
        "slice_left_us", "cpu", "run_token", "wakeup_pending", "suspended",
        "chase", "on_arrival", "transit_start_us", "invoke_t0",
        "invoke_remote", "pending_invoke_metric", "invoke_seq",
        "resurrect_stack", "carried_checkpoints", "result", "exception",
        "joiners", "migrations", "state_time_us", "block_reason", "_clock",
        "_state_since_us")

    def __init__(self, tid: int, name: str = "", priority: int = 0):
        self.tid = tid
        self.name = name or f"thread-{tid}"
        self.priority = priority
        self._state = NEW
        #: Node the thread currently occupies (None while in transit).
        self.location: Optional[int] = None
        self.stack: List[Activation] = []

        # --- generator resumption -------------------------------------
        #: Value / exception to deliver at the next generator advance.
        self.send_value: Any = None
        self.send_exc: Optional[BaseException] = None

        # --- scheduling -------------------------------------------------
        #: CPU time to charge before the thread's next instruction
        #: (unmarshal/dispatch after migration, context switch after
        #: preemption, join completion after wakeup...).
        self.surcharge_us: float = 0.0
        #: Remaining compute of a Compute request split by preemption.
        self.pending_compute_us: float = 0.0
        #: Remaining timeslice.
        self.slice_left_us: float = 0.0
        #: CPU currently running the thread (index within its node).
        self.cpu: Optional[int] = None
        #: Invalidates in-flight run events after a preemption.
        self.run_token: int = 0
        #: A Wakeup that found the thread not blocked in Suspend: the
        #: next Suspend returns at once.
        self.wakeup_pending: bool = False
        #: Whether the latest block was a Suspend, the one wait a Wakeup
        #: ends (a Join or a Sleep is not).
        self.suspended: bool = False

        # --- migration --------------------------------------------------
        #: While on the wire: the :class:`repro.sim.mobility.Chase`
        #: carrying the thread toward its target (target, visited path,
        #: hop in flight); ``None`` once it lands.
        self.chase: Any = None
        #: What to do on arrival; set by the kernel.
        self.on_arrival: Any = None
        #: Departure time of the in-flight migration (latency histogram).
        self.transit_start_us: float = 0.0

        # --- invocation latency bookkeeping ------------------------------
        #: Kernel-entry time / residency of the invocation being set up
        #: (copied onto the Activation frame at push time).
        self.invoke_t0: float = 0.0
        self.invoke_remote: bool = False
        #: (histogram name, start time) of a completed invocation whose
        #: value is still being delivered (possibly across a migration).
        self.pending_invoke_metric: Optional[tuple] = None

        # --- crash recovery ----------------------------------------------
        #: Per-thread sequence for invocation ids; reset to the replayed
        #: entry's ``seq`` on resurrection so re-executed nested
        #: invocations regenerate identical ids (at-most-once dedup).
        self.invoke_seq: int = 0
        #: Caller-side :class:`repro.recovery.replay.ReplayEntry` log of
        #: in-flight migrating invocations (innermost last).
        self.resurrect_stack: List[Any] = []
        #: Write-through checkpoint epochs this thread is carrying away
        #: from their primary; flushed to the backup on arrival.
        self.carried_checkpoints: List[Any] = []

        # --- termination --------------------------------------------------
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.joiners: List["SimThread"] = []

        # --- per-thread statistics ---------------------------------------
        self.migrations: int = 0
        #: Wall-time attribution: profile bucket -> microseconds, kept by
        #: the ``state`` setter once the kernel attaches a clock.
        self.state_time_us: Dict[str, float] = {}
        #: Why the thread is (or was last) BLOCKED — the Suspend reason,
        #: or "join"/"sleep" for the kernel's own waits.
        self.block_reason: str = ""
        self._clock = None           # Simulator, attached by the kernel
        self._state_since_us: Optional[float] = None

    def attach_clock(self, sim) -> None:
        """Start state-time accounting against ``sim``'s clock."""
        self._clock = sim
        self._state_since_us = sim.now_us

    @property
    def state(self) -> ThreadState:
        return self._state

    @state.setter
    def state(self, new_state: ThreadState) -> None:
        clock = self._clock
        if clock is not None:
            # Inline now_us and classify the outgoing state only when
            # time actually passed: most transitions (ready -> running
            # on an idle CPU, chained kernel steps) happen within one
            # event timestamp, and this setter runs on every one.
            now_us = clock.now_ns / NS_PER_US
            elapsed = now_us - (self._state_since_us or 0.0)
            if elapsed > 0:
                state = self._state
                # The literal, not state.value: an enum's ``value`` is a
                # property, two Python calls per move out of BLOCKED.
                bucket = (bucket_for_state("blocked", self.block_reason)
                          if state is BLOCKED
                          else state.bucket)
                self.state_time_us[bucket] = \
                    self.state_time_us.get(bucket, 0.0) + elapsed
            self._state_since_us = now_us
        self._state = new_state

    @property
    def done(self) -> bool:
        return self._state is DONE

    def is_bound_to(self, vaddrs: set) -> bool:
        """True if any activation on the stack targets one of ``vaddrs``."""
        return any(activation.obj.vaddr in vaddrs
                   for activation in self.stack)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimThread {self.name} tid={self.tid} "
                f"{self.state.value} @node {self.location}>")


class ThreadManager:
    """Threads from creation to exit, reached as ``kernel.thread_manager``;
    its rows sit in the kernel's one handler table."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cluster = kernel.cluster
        self.sim = kernel.sim
        self.costs = kernel.costs

    def new_thread(self, node_id: int, name: str, priority: int,
                   body: sc.Invoke) -> SimThread:
        """Create (but do not start) a thread on ``node_id`` whose root
        invocation is ``body``."""
        threads = self.kernel.threads
        thread = SimThread(len(threads), name, priority)
        self.kernel.object_manager.install_new(
            thread, self.cluster.node(node_id), SimThread.SIZE_BYTES)
        thread.location = node_id
        thread.attach_clock(self.sim)
        thread.on_arrival = ("invoke", body, True)
        threads.append(thread)
        return thread

    def start_main(self, obj: SimObject, method: str, args: Tuple,
                   node_id: int) -> SimThread:
        """Bootstrap: create and start the program's main thread."""
        thread = self.new_thread(node_id, "main", 0,
                                 sc.Invoke(obj, method, *args))
        self.kernel.ready(thread, node_id, self.costs.dispatch_us)
        return thread

    def thread_exit(self, thread: SimThread, value: Any,
                    exc: Optional[BaseException]) -> None:
        self.kernel.charge(thread, self.costs.thread_exit_us,
                           partial(self._exited, thread, value, exc))

    def _exited(self, thread: SimThread, value: Any,
                exc: Optional[BaseException]) -> None:
        kernel = self.kernel
        if self.cluster.tracer is not None:
            kernel.trace("exit", thread.location, thread.name)
        rec = kernel.recovery
        if rec is not None:
            rec.settle(thread)
        thread.state = DONE
        thread.result = value
        thread.exception = exc
        kernel.release_cpu(thread)
        self.release_joiners(thread)

    def release_joiners(self, thread: SimThread) -> None:
        """``thread`` is done: every thread blocked joining it resumes
        with its outcome."""
        joiners, thread.joiners = thread.joiners, []
        for joiner in joiners:
            self._join_finished(joiner, thread)
            self.kernel.ready(joiner, joiner.location, self.costs.join_us)

    def _join_finished(self, joiner: SimThread, target: SimThread) -> None:
        """``target`` is done: hand its outcome to ``joiner``'s Join."""
        san = _analysis.ACTIVE
        if san is not None:
            san.on_join(joiner, target)
        joiner.send_value = target.result
        joiner.send_exc = target.exception

    def _block(self, thread: SimThread, reason: str,
               suspended: bool = False) -> int:
        """Take ``thread`` off its CPU until something readies it;
        returns the run token a later wake-up must still match."""
        thread.block_reason = reason
        thread.suspended = suspended
        if self.cluster.tracer is not None:
            self.kernel.trace("block", thread.location, thread.name,
                              detail=reason)
        thread.state = BLOCKED
        thread.run_token += 1
        self.kernel.release_cpu(thread)
        return thread.run_token

    def _start_child(self, thread: SimThread, child: SimThread) -> None:
        """Make ``child`` runnable and hand it back to its starter."""
        san = _analysis.ACTIVE
        if san is not None:
            san.on_start(thread, child)
        self.kernel.ready(child, child.location, self.costs.dispatch_us)
        thread.send_value = child
        self.kernel.advance(thread)

    # --- The thread requests ----------------------------------------------

    def _handle_new_thread(self, thread: SimThread,
                           request: sc.NewThread) -> None:
        self.kernel.validate_target(request.target)
        body = sc.Invoke(request.target, request.method, *request.args)
        self.kernel.charge(thread, self.costs.object_create_us(),
                           partial(self._thread_made, thread, request, body))

    def _thread_made(self, thread: SimThread, request: sc.NewThread,
                     body: sc.Invoke) -> None:
        thread.send_value = self.new_thread(
            thread.location, request.name, request.priority, body)
        self.kernel.advance(thread)

    def _handle_start(self, thread: SimThread, request: sc.Start) -> None:
        child = request.thread
        if not isinstance(child, SimThread) or \
                child.state is not NEW:
            raise InvocationError(
                f"Start requires an unstarted thread, got {child!r}")
        self.kernel.charge(thread, self.costs.thread_start_us,
                           partial(self._start_child, thread, child))

    def _handle_fork(self, thread: SimThread, request: sc.Fork) -> None:
        self.kernel.validate_target(request.target)
        body = sc.Invoke(request.target, request.method, *request.args,
                         arg_bytes=request.arg_bytes)
        self.kernel.charge(thread,
                           self.costs.object_create_us()
                           + self.costs.thread_start_us,
                           partial(self._forked, thread, request, body))

    def _forked(self, thread: SimThread, request: sc.Fork,
                body: sc.Invoke) -> None:
        self._start_child(thread, self.new_thread(
            thread.location, request.name, request.priority, body))

    def _handle_join(self, thread: SimThread, request: sc.Join) -> None:
        target = request.thread
        if not isinstance(target, SimThread):
            raise InvocationError(f"Join target {target!r} is not a thread")
        if target is thread:
            raise InvocationError("a thread cannot join itself")
        if target._state is DONE:
            self.kernel.charge(thread, self.costs.join_us,
                               partial(self._joined, thread, target))
        else:
            self.kernel.charge(thread, self.costs.block_us,
                               partial(self._join_wait, thread, target))

    def _joined(self, thread: SimThread, target: SimThread) -> None:
        self._join_finished(thread, target)
        self.kernel.advance(thread)

    def _join_wait(self, thread: SimThread, target: SimThread) -> None:
        if target._state is DONE:
            # The target exited while we entered the wait.
            self._joined(thread, target)
            return
        target.joiners.append(thread)
        self._block(thread, "join")

    def _handle_suspend(self, thread: SimThread,
                        request: sc.Suspend) -> None:
        self.kernel.charge(thread, self.costs.block_us,
                           partial(self._suspend, thread, request.reason))

    def _suspend(self, thread: SimThread, reason: str) -> None:
        if thread.wakeup_pending:
            thread.wakeup_pending = False
            self.kernel.advance(thread)
            return
        self._block(thread, reason, suspended=True)

    def _handle_wakeup(self, thread: SimThread, request: sc.Wakeup) -> None:
        target = request.thread
        if not isinstance(target, SimThread):
            raise InvocationError(f"Wakeup target {target!r} is not a thread")
        self.kernel.charge(thread, self.costs.wakeup_us,
                           partial(self._wakeup, thread, target))

    def _wakeup(self, thread: SimThread, target: SimThread) -> None:
        state = target._state
        san = _analysis.ACTIVE
        if san is not None and state is not DONE:
            san.on_wakeup(thread, target)
        if state is BLOCKED and target.suspended:
            self.kernel.ready(target, target.location,
                              self.costs.dispatch_us)
        elif state is not DONE:
            target.wakeup_pending = True
        self.kernel.advance(thread)

    def _handle_sleep(self, thread: SimThread, request: sc.Sleep) -> None:
        if not 0 <= request.us < math.inf:
            raise InvocationError(
                f"sleep time must be finite and non-negative: {request.us}")
        self.kernel.charge(thread, self.costs.block_us,
                           partial(self._sleep, thread, request.us))

    def _sleep(self, thread: SimThread, us: float) -> None:
        token = self._block(thread, "sleep")
        self.sim.schedule_us(us, partial(self._sleep_over, thread, token))

    def _sleep_over(self, thread: SimThread, token: int) -> None:
        # A stale token: a crash took the thread while it slept.
        if thread.run_token == token and \
                thread.state is BLOCKED:
            self.kernel.ready(thread, thread.location,
                              self.costs.dispatch_us)

    def _handle_set_scheduler(self, thread: SimThread,
                              request: sc.SetScheduler) -> None:
        self.kernel.charge(thread, self.costs.descriptor_init_us,
                           partial(self._set_scheduler, thread,
                                   self.cluster.node(request.node),
                                   request.scheduler))

    def _set_scheduler(self, thread: SimThread, node, scheduler) -> None:
        node.set_scheduler(scheduler)
        thread.send_value = None
        self.kernel.advance(thread)
        self.kernel.try_dispatch(node)

    #: This module's rows of the kernel's request table.
    HANDLERS = {
        sc.NewThread: _handle_new_thread,
        sc.Start: _handle_start,
        sc.Fork: _handle_fork,
        sc.Join: _handle_join,
        sc.Suspend: _handle_suspend,
        sc.Wakeup: _handle_wakeup,
        sc.Sleep: _handle_sleep,
        sc.SetScheduler: _handle_set_scheduler,
    }
