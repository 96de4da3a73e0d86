"""Simulator program text on the live runtime: one program, two backends.

A :class:`repro.sim.objects.SimObject` operation gets a :class:`LiveContext`;
each request its generator yields becomes the live call of the same name,
whose value or exception goes back in at the ``yield`` (a request in
:data:`REFUSED` throws in an :class:`AmberError` naming it).  Code between
two yields, and a plain operation's whole body, runs under the node's
segment lock, as the simulator runs it atomically; a request is served
without it, so a nested local invoke can take it.  Program text runs on a
pool worker or the ``Cluster.run`` caller, never on a mesh reader, so a
``Suspend`` blocks no socket.  The synchronization library of
:mod:`repro.sim.sync` runs here as it is: ``repro.runtime.Lock`` is its
``Lock``.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Any, Callable, Dict, Tuple

from repro.errors import AmberError, InvocationError, SynchronizationError
from repro.recovery.config import reply_timeout_s
from repro.runtime.handles import Handle, ThreadHandle
from repro.runtime.objects import (
    current_thread,
    node_metrics,
    process_kernel,
    segment_lock,
)

#: The requests that need the simulator's own threads or scheduler.
REFUSED = frozenset(("NewThread", "Start", "Sleep", "SetScheduler",
                     "Refresh", "GetStats"))

_TABLE: Dict[type, Callable[[Any, Any, "WakeupToken"], Any]] = {}


class WakeupToken:
    """A logical thread's ``ctx.thread`` on one node: the simulator's
    ``wakeup_pending`` flag, under a condition.  :meth:`wakeup` sets it;
    :meth:`suspend` waits for it and clears it, so a ``Wakeup`` that lands
    between two ``Suspend``\\ s is kept for the next.  It holds a lock, so
    it does not pickle: an object whose state holds a waiter or a lock
    owner cannot move."""

    __slots__ = ("_changed", "_pending", "name", "__weakref__")

    def __init__(self, thread: Tuple[int, int]):
        self._changed = threading.Condition(threading.Lock())
        self._pending = False
        #: What a sync error calls this thread (a ``SimThread``'s name).
        self.name = f"thread {thread[0]}:{thread[1]}"

    def wakeup(self) -> None:
        with self._changed:
            self._pending = True
            self._changed.notify()

    def suspend(self, reason: str) -> None:
        """Half the lost-peer ceiling, so a stuck wait surfaces here
        before a caller's join gives up on this activation."""
        bound_s = reply_timeout_s() / 2
        with self._changed:
            if not self._changed.wait_for(lambda: self._pending, bound_s):
                raise SynchronizationError(
                    f"Suspend({reason!r}): no Wakeup within {bound_s:g} s")
            self._pending = False


#: Logical thread -> this node's token for it, while anything holds it
#: (an activation's ``ctx``, a waiter queue, a lock's owner).  A forked
#: node starts with none.
_TOKENS: "weakref.WeakValueDictionary[Tuple[int, int], WakeupToken]" = \
    weakref.WeakValueDictionary()
os.register_at_fork(after_in_child=_TOKENS.clear)


class LiveContext:
    """A live operation's ``ctx``: its node, its thread's wake-up token,
    the node's metrics registry, and the wall clock.  Made under the
    segment lock, so a thread's token is made once."""

    __slots__ = ("node", "thread", "metrics")

    def __init__(self, node: int):
        self.node = node
        thread = current_thread()
        token = _TOKENS.get(thread)
        if token is None:
            token = _TOKENS[thread] = WakeupToken(thread)
        self.thread = token
        self.metrics = node_metrics()

    @property
    def now_us(self) -> float:
        return time.time() * 1e6


def address(target: Any) -> int:
    """A target is a :class:`Handle` or a resident object (``self``)."""
    return target.vaddr if type(target) is Handle else target._vaddr


def _thread(request: Any, cls: type) -> Any:
    """The request's ``thread``, which must be a ``cls``."""
    target = request.thread
    if type(target) is not cls:
        raise InvocationError(f"{type(request).__name__} target {target!r} "
                              f"is not a thread")
    return target


def request_table() -> Dict[type, Callable[[Any, Any, WakeupToken], Any]]:
    """Request class -> ``serve(kernel, request, the activation's token)``."""
    if not _TABLE:
        from repro.sim import syscalls as sc

        def invoke(k, r, _):
            return k.invoke(address(r.target), r.method, r.args, r.kwargs)

        def control(op):
            return lambda k, r, _: k.control(address(r.target), op)

        _TABLE.update({
            sc.Invoke: invoke,
            sc.FastInvoke: invoke,
            sc.New: lambda k, r, _: k.create(r.cls, r.args, r.kwargs,
                                             r.on_node),
            sc.Fork: lambda k, r, _: k.fork(address(r.target), r.method,
                                            r.args, {}),
            sc.Join: lambda k, r, _: _thread(r, ThreadHandle).join(),
            sc.Suspend: lambda k, r, token: token.suspend(r.reason),
            sc.Wakeup: lambda k, r, _: _thread(r, WakeupToken).wakeup(),
            sc.MoveTo: lambda k, r, _: k.move(address(r.target), r.node),
            sc.Locate: lambda k, r, _: k.locate(address(r.target)),
            sc.SetImmutable: control("set_immutable"),
            sc.Attach: lambda k, r, _: k.control(address(r.target), "attach",
                                                 address(r.to)),
            sc.Unattach: control("unattach"),
            sc.Delete: control("delete"),
            # Simulated time: a live run spends its own.
            **dict.fromkeys((sc.Compute, sc.Charge, sc.Yield),
                            lambda k, r, _: None),
        })
    return _TABLE


def _refuse(kernel, request: Any, _token) -> None:
    name = type(request).__name__
    if name in REFUSED:
        raise AmberError(f"{name} is not on the live runtime")
    raise InvocationError(
        f"operation yielded a non-request value: {request!r}")


def run_program_text(fn: Callable, args: tuple, kwargs: dict) -> Any:
    """Run ``fn(ctx, *args, **kwargs)`` on this node to its return."""
    kernel = process_kernel()
    segment = segment_lock()
    with segment:
        ctx = LiveContext(kernel.node_id)
        body = fn(ctx, *args, **kwargs)
    if not (hasattr(body, "send") and hasattr(body, "throw")):
        return body
    table = request_table()
    value = error = None
    while True:
        with segment:
            try:
                request = (body.send(value) if error is None
                           else body.throw(error))
            except StopIteration as stop:
                return stop.value
        try:
            serve = table.get(type(request), _refuse)
            value, error = serve(kernel, request, ctx.thread), None
        except Exception as failure:
            value, error = None, failure
