"""Shared helpers for the live-runtime test suite."""

from __future__ import annotations

from repro.runtime import AmberObject
from repro.runtime.objects import process_kernel


class Mover(AmberObject):
    """A third-party mover.  A successful move hints the node that made
    it, so a test that needs the driver's descriptor stale has the move
    made by an operation of this object, on another node."""

    def move(self, handle, dest):
        process_kernel().move(handle.vaddr, dest)

    def call(self, handle, method, *args):
        """``method`` of ``handle``, called from this node."""
        return process_kernel().invoke(handle.vaddr, method, args, {})

    def next_hop(self, handle):
        """Where this node sends its next request for ``handle``."""
        return next_hop(process_kernel(), handle)


def next_hop(kernel, handle):
    """Where ``kernel``'s node sends its next request for ``handle``."""
    table = kernel.table
    return table.descriptors.next_hop(handle.vaddr, table.home_node)


def move_behind_the_drivers_back(cluster, handle, dest):
    """Move ``handle`` to ``dest`` by a :class:`Mover` on ``dest``, where
    the object is resident afterwards anyway: the driver's descriptor is
    left as it was."""
    mover = cluster.create(Mover, node=dest)
    cluster.call(mover, "move", handle, dest)
