"""Requests that simulated Amber programs ``yield`` to the kernel.

An Amber *operation* is a Python generator method on a
:class:`~repro.sim.objects.SimObject`.  It expresses work and kernel calls by
yielding instances of the classes below; the value of the ``yield``
expression is the request's result (an invocation's return value, a new
object, a located node id...).

Example::

    class Counter(SimObject):
        def __init__(self):
            self.value = 0

        def add(self, ctx, n):
            yield Compute(2.0)          # 2 microseconds of CPU
            self.value += n
            return self.value

    class Driver(SimObject):
        def main(self, ctx):
            counter = yield New(Counter)
            yield MoveTo(counter, 1)            # place it on node 1
            total = yield Invoke(counter, "add", 5)   # remote invocation:
            return total                              # the thread migrates

Plain (non-generator) methods are also valid operations; they execute
atomically at the invocation's completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

# Typed as Any to avoid an import cycle; targets are SimObject instances
# (or SimThread for the thread requests).
_Obj = Any
_Thread = Any


@dataclass(frozen=True)
class Compute:
    """Consume ``us`` microseconds of CPU.  Preemptible: a timeslice expiry
    or an object-move preemption can split it."""

    us: float


@dataclass(frozen=True)
class Charge:
    """Consume ``us`` microseconds of CPU *non-preemptibly* (models short
    critical code such as spinlock holders)."""

    us: float


class Invoke:
    """Invoke ``method`` on ``target`` with ``args``.

    If the target is not resident on the current node, the calling thread
    migrates to it (function shipping).  ``arg_bytes`` models the size of
    by-value argument data carried along (e.g. an edge of grid values);
    ``result_bytes`` models the size of the returned data.
    """

    __slots__ = ("target", "method", "args", "kwargs", "arg_bytes",
                 "result_bytes")

    def __init__(self, target: _Obj, method: str, *args: Any,
                 arg_bytes: int = 0, result_bytes: int = 0,
                 **kwargs: Any):
        self.target = target
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.arg_bytes = arg_bytes
        self.result_bytes = result_bytes

    def __repr__(self) -> str:
        return (f"Invoke({self.target!r}, {self.method!r}, "
                f"*{self.args!r})")


class FastInvoke:
    """A co-residency-optimized invocation (section 3.6).

    The paper notes that C++'s escape hatches (inline functions, direct
    member access) "present opportunities to optimize interactions
    between objects that are known to reside on the same node" — safe
    when co-residency is guaranteed by attachment.  ``FastInvoke`` skips
    the residency check and its cost entirely; the kernel *verifies* the
    guarantee and raises :class:`~repro.errors.InvocationError` if the
    target is not attached to (or identical with) the invoking object's
    group — the disciplined version of "incorrect program behavior".
    """

    __slots__ = ("target", "method", "args", "kwargs")

    #: An inline call returns in place: no marshalled result, ever.
    result_bytes = 0

    def __init__(self, target: _Obj, method: str, *args: Any,
                 **kwargs: Any):
        self.target = target
        self.method = method
        self.args = args
        self.kwargs = kwargs


class New:
    """Create an object of ``cls`` on the current node (or ``on_node``).

    ``size_bytes`` overrides the class's declared size; it determines heap
    footprint and move/replication transfer cost.
    """

    __slots__ = ("cls", "args", "kwargs", "size_bytes", "on_node")

    def __init__(self, cls: type, *args: Any,
                 size_bytes: Optional[int] = None,
                 on_node: Optional[int] = None, **kwargs: Any):
        self.cls = cls
        self.args = args
        self.kwargs = kwargs
        self.size_bytes = size_bytes
        self.on_node = on_node

    def __repr__(self) -> str:
        return f"New({self.cls.__name__}, *{self.args!r})"


@dataclass(frozen=True)
class Delete:
    """Destroy an object: free its heap block (which will only ever be
    reused whole) and drop its descriptors."""

    target: _Obj


class NewThread:
    """Create (but do not start) a thread that will run ``method`` on
    ``target``.  The thread object is created on the current node."""

    __slots__ = ("target", "method", "args", "name", "priority")

    def __init__(self, target: _Obj, method: str, *args: Any,
                 name: str = "", priority: int = 0):
        self.target = target
        self.method = method
        self.args = args
        self.name = name
        self.priority = priority


@dataclass(frozen=True)
class Start:
    """Start a thread created with :class:`NewThread`."""

    thread: _Thread


class Fork:
    """Create *and* start a thread: ``New`` + ``Start`` in one request.
    Returns the running thread."""

    __slots__ = ("target", "method", "args", "name", "priority", "arg_bytes")

    def __init__(self, target: _Obj, method: str, *args: Any,
                 name: str = "", priority: int = 0, arg_bytes: int = 0):
        self.target = target
        self.method = method
        self.args = args
        self.name = name
        self.priority = priority
        self.arg_bytes = arg_bytes


@dataclass(frozen=True)
class Join:
    """Block until ``thread`` terminates; returns the result of the
    operation given in its Start (re-raises its exception, if any)."""

    thread: _Thread


@dataclass(frozen=True)
class MoveTo:
    """Move ``target`` (and its whole attachment group) to node ``node``.
    Moving an immutable object copies it instead (replication)."""

    target: _Obj
    node: int


@dataclass(frozen=True)
class Locate:
    """Return the node where ``target`` currently resides (possibly stale
    the moment it is returned, as in the paper)."""

    target: _Obj


@dataclass(frozen=True)
class Attach:
    """Attach ``target`` to ``to``: they are henceforth co-located and move
    together."""

    target: _Obj
    to: _Obj


@dataclass(frozen=True)
class Unattach:
    """Sever the attachments ``target`` made with :class:`Attach`."""

    target: _Obj


@dataclass(frozen=True)
class SetImmutable:
    """Mark ``target`` immutable: it will never be modified again, so the
    kernel is free to replicate it (MoveTo copies; remote invocations fetch
    a local replica)."""

    target: _Obj


@dataclass(frozen=True)
class Refresh:
    """Prefetch a local replica of the immutable ``target`` (no-op if one is
    already resident)."""

    target: _Obj


@dataclass(frozen=True)
class Yield:
    """Relinquish the CPU to the scheduler (end of timeslice semantics)."""


@dataclass(frozen=True)
class Sleep:
    """Block for ``us`` microseconds of simulated time *without* holding
    a CPU (a timer wait, unlike :class:`Compute` which burns cycles)."""

    us: float


@dataclass(frozen=True)
class Suspend:
    """Block the current thread until another thread issues
    :class:`Wakeup` on it.  Building block for the synchronization classes;
    user code normally uses :mod:`repro.sim.sync` instead.

    A :class:`Wakeup` that races ahead of the suspension is not lost: the
    kernel remembers it and the suspend completes immediately.
    """

    reason: str = ""


@dataclass(frozen=True)
class Wakeup:
    """Make a suspended thread runnable again."""

    thread: _Thread


@dataclass(frozen=True)
class SetScheduler:
    """Replace the scheduler object of ``node`` at runtime (section 2.1:
    "An application can install a custom scheduling discipline at runtime").
    Threads already queued are re-enqueued into the new scheduler."""

    node: int
    scheduler: Any


@dataclass(frozen=True)
class GetStats:
    """Return the cluster's :class:`~repro.sim.stats.ClusterStats` (live
    view; cheap, charged as a local call)."""
