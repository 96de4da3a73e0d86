"""Simulator program text on the live runtime: one program, two backends.

A :class:`repro.sim.objects.SimObject` operation gets a :class:`LiveContext`;
each request its generator yields becomes the live call of the same name,
whose value or exception goes back in at the ``yield`` (a request in
:data:`REFUSED` throws in an :class:`AmberError` naming it).  Code between
two yields, and a plain operation's whole body, runs under the node's
segment lock, as the simulator runs it atomically; a request is served
without it, so a nested local invoke can take it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

from repro.errors import AmberError, InvocationError
from repro.runtime.handles import Handle
from repro.runtime.objects import process_kernel, segment_lock

#: The requests that need the simulator's own threads or scheduler.
REFUSED = frozenset(("NewThread", "Start", "Sleep", "Suspend", "Wakeup",
                     "SetScheduler", "Refresh", "GetStats"))

_TABLE: Dict[type, Callable[[Any, Any], Any]] = {}


class LiveContext:
    """A live operation's ``ctx``: its node, and the wall clock."""

    __slots__ = ("node",)

    def __init__(self, node: int):
        self.node = node

    @property
    def now_us(self) -> float:
        return time.time() * 1e6


def address(target: Any) -> int:
    """A target is a :class:`Handle` or a resident object (``self``)."""
    return target.vaddr if type(target) is Handle else target._amber_vaddr


def request_table() -> Dict[type, Callable[[Any, Any], Any]]:
    """Request class -> ``serve(kernel, request)``."""
    if not _TABLE:
        from repro.sim import syscalls as sc

        def invoke(k, r):
            return k.invoke(address(r.target), r.method, r.args, r.kwargs)

        def control(op):
            return lambda k, r: k.control(address(r.target), op)

        _TABLE.update({
            sc.Invoke: invoke,
            sc.FastInvoke: invoke,
            sc.New: lambda k, r: k.create(r.cls, r.args, r.kwargs, r.on_node),
            sc.Fork: lambda k, r: k.fork(address(r.target), r.method, r.args,
                                         {}),
            sc.Join: lambda k, r: r.thread.join(),
            sc.MoveTo: lambda k, r: k.move(address(r.target), r.node),
            sc.Locate: lambda k, r: k.locate(address(r.target)),
            sc.SetImmutable: control("set_immutable"),
            sc.Attach: lambda k, r: k.control(address(r.target), "attach",
                                              address(r.to)),
            sc.Unattach: control("unattach"),
            sc.Delete: control("delete"),
            # Simulated time: a live run spends its own.
            **dict.fromkeys((sc.Compute, sc.Charge, sc.Yield),
                            lambda k, r: None),
        })
    return _TABLE


def _refuse(kernel, request: Any) -> None:
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
        body = fn(LiveContext(kernel.node_id), *args, **kwargs)
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
            value, error = serve(kernel, request), None
        except Exception as failure:
            value, error = None, failure
