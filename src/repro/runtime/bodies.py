"""The live kernel's request bodies but ``invoke``'s, each
``body(kernel, message, obj, may_wait)`` as ``NodeKernel._HANDLERS``
calls it: the kernel answers with what it returns or raises, unless
that is :data:`_LATER`."""

from __future__ import annotations

import logging
from typing import Any, Tuple

from repro.errors import RuntimeTransportError
from repro.runtime import messages as m

log = logging.getLogger(__name__)

#: What a body returns when a continuation will send the reply.
_LATER = object()


def create(kernel, message: m.CreateMsg, _obj, _may_wait) -> int:
    return kernel.table.create(message.cls, message.args, message.kwargs)


def located(kernel, _message, _obj, _may_wait) -> int:
    return kernel.node_id


def move_out(kernel, message: m.MoveMsg, obj, may_wait) -> Any:
    """Ship the group (of an immutable, a replica) and return: the
    move's second half — releasing the requests held meanwhile, counting
    it, answering the mover — is the continuation of the install, a
    request of its own (re-sent on silence, typed failure on a dead
    destination)."""
    dest = message.dest
    if dest == kernel.node_id:
        return None
    replica = obj._immutable
    if replica:
        shipment, edges, held = {message.vaddr: obj}, (), []
    else:
        shipment, edges, held = kernel.table.take_group(
            message.vaddr, dest, may_wait)

    def installed(outcome: Tuple) -> None:
        kernel.release(held)
        # Not ok: the group stays forwarded (dest may hold it).
        if outcome[0] and not replica:
            kernel.stats["moves_out"] += 1
        try:
            kernel.answer(message, outcome)
        except (RuntimeTransportError, OSError) as failure:
            # On a reader, perhaps.  The reply is cached: replayed.
            log.debug("node %d: reply to the mover: %s", kernel.node_id,
                      failure)

    try:
        kernel.start(dest, None, m.InstallMsg, shipment, edges, replica,
                     on_reply=installed)
    except BaseException:
        # Never transmitted, so the destination cannot hold it: a
        # refused move leaves the group where it was.
        kernel.table.adopt(shipment, edges, replica)
        kernel.release(held)
        raise
    return _LATER


def install(kernel, message: m.InstallMsg, _obj, _may_wait) -> None:
    kernel.table.adopt(message.objects, message.attach_edges,
                       message.replica)
    if message.replica:
        kernel.stats["replicas_installed"] += len(message.objects)
    else:
        kernel.stats["moves_in"] += len(message.objects)


def control(kernel, message: m.ControlMsg, obj, _may_wait) -> Any:
    if message.op == "stats":
        return kernel.stats_snapshot()
    return kernel.table.control(obj, message.op, message.extra)
