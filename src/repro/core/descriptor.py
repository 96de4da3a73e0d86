"""Object descriptors (paper section 3.2).

Every Amber object is referenced by a virtual address that is valid on every
node, and every node holds a *descriptor* for the object saying whether it is
locally resident.  An object is laid out as ``descriptor || representation``,
so the object's address *is* its descriptor's address.

The paper's key trick: descriptors on nodes the object has never visited are
*uninitialized* (the backing page is zero-filled), and an uninitialized
descriptor is interpreted as "not resident, location unknown — ask the home
node".  We model that by simply having no table entry: a miss in the
:class:`DescriptorTable` is the zero-filled page.

A descriptor is one word, as in the paper: the node where the object is,
as far as this node knows.

this node's id
    Resident: the object lives here and may be invoked directly.
    Immutable objects may be resident (replicated) on many nodes at once.
any other node id
    Forwarded: the object moved away; the id is its last known location —
    the head of a forwarding chain (section 3.3).
missing entry
    Uninitialized: route to the home node derived from the address.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import DescriptorError, ObjectNotFoundError


class DescriptorTable:
    """All descriptors held by a single node, keyed by virtual address."""

    def __init__(self, node: int) -> None:
        self.node = node
        #: address -> the node where the object is, as far as this node
        #: knows; ``node`` itself exactly when it is resident here.
        #: Public so a per-event residency check is one ``dict.get``.
        self.where: Dict[int, int] = {}

    def is_resident(self, address: int) -> bool:
        return self.where.get(address) == self.node

    def next_hop(self, address: int, home_of: Callable[[int], int]) -> int:
        """Where a request for ``address`` goes from this node (section
        3.3): here if it is resident, its forwarding hint if it moved
        away, else its home node ``home_of(address)`` — which has a
        descriptor for every object it created, or there is none."""
        where = self.where.get(address)
        if where is not None:
            return where
        home = home_of(address)
        if home == self.node:
            raise ObjectNotFoundError(
                f"object {address:#x} unknown at its home node {self.node}")
        return home

    def set_resident(self, address: int) -> None:
        """Mark ``address`` resident here (object arrived/created here, or
        an immutable replica was installed)."""
        self.where[address] = self.node

    def set_forwarding(self, address: int, forward_to: int) -> None:
        """Record that the object moved away, leaving a forwarding address."""
        if forward_to == self.node:
            raise DescriptorError(
                f"node {self.node}: forwarding address for {address:#x} "
                "may not point at this node itself")
        self.where[address] = forward_to

    def update_hint(self, address: int, forward_to: int) -> None:
        """Refresh a stale forwarding hint (path caching, section 3.3).

        A resident descriptor is never downgraded by a hint: hints are only
        advisory location caches.
        """
        node = self.node
        if forward_to != node and self.where.get(address) != node:
            self.where[address] = forward_to

    def clear(self, address: int) -> None:
        """Drop the descriptor (object deleted; page returns to zero-fill)."""
        self.where.pop(address, None)
