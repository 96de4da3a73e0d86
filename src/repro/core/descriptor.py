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

Descriptor states:

``RESIDENT``
    The object lives here and may be invoked directly.  Immutable objects may
    be resident (replicated) on many nodes at once.
``FORWARDED``
    The object moved away; ``forward_to`` is the last known location — the
    head of a forwarding chain (section 3.3).
missing entry
    Uninitialized: route to the home node derived from the address.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DescriptorError, ObjectNotFoundError


class DescriptorState(enum.Enum):
    RESIDENT = "resident"
    FORWARDED = "forwarded"


_RESIDENT = DescriptorState.RESIDENT


@dataclass(slots=True)
class Descriptor:
    """One node's view of one object."""

    state: DescriptorState
    #: Last known location when FORWARDED; meaningless when RESIDENT.
    forward_to: Optional[int] = None
    #: Node holding this object's checkpoint epochs (crash recovery);
    #: ``None`` when no backup has been assigned from here.
    backup_node: Optional[int] = None
    #: Latest checkpoint epoch shipped (or promoted) from this node.
    epoch: int = 0

    @property
    def resident(self) -> bool:
        return self.state is _RESIDENT


class DescriptorTable:
    """All descriptors held by a single node, keyed by virtual address."""

    def __init__(self, node: int) -> None:
        self.node = node
        self._table: Dict[int, Descriptor] = {}

    def lookup(self, address: int) -> Optional[Descriptor]:
        """The descriptor for ``address``, or ``None`` if uninitialized."""
        return self._table.get(address)

    def is_resident(self, address: int) -> bool:
        descriptor = self._table.get(address)
        return descriptor is not None and descriptor.state is _RESIDENT

    def next_hop(self, address: int, home_of: Callable[[int], int]) -> int:
        """Where a request for ``address`` goes from this node (section
        3.3): here if it is resident, its forwarding hint if it moved
        away, else its home node ``home_of(address)`` — which has a
        descriptor for every object it created, or there is none."""
        descriptor = self._table.get(address)
        if descriptor is not None:
            if descriptor.state is _RESIDENT:
                return self.node
            forward_to = descriptor.forward_to
            assert forward_to is not None   # set with every FORWARDED
            return forward_to
        home = home_of(address)
        if home == self.node:
            raise ObjectNotFoundError(
                f"object {address:#x} unknown at its home node {self.node}")
        return home

    def set_resident(self, address: int) -> None:
        """Install or overwrite a RESIDENT descriptor (object arrived/created
        here, or an immutable replica was installed)."""
        self._table[address] = Descriptor(DescriptorState.RESIDENT)

    def set_forwarding(self, address: int, forward_to: int) -> None:
        """Record that the object moved away, leaving a forwarding address."""
        if forward_to == self.node:
            raise DescriptorError(
                f"node {self.node}: forwarding address for {address:#x} "
                "may not point at this node itself")
        self._table[address] = Descriptor(DescriptorState.FORWARDED,
                                          forward_to)

    def update_hint(self, address: int, forward_to: int) -> None:
        """Refresh a stale forwarding hint (path caching, section 3.3).

        A RESIDENT descriptor is never downgraded by a hint: hints are only
        advisory location caches.
        """
        descriptor = self._table.get(address)
        if descriptor is not None and descriptor.state is _RESIDENT:
            return
        if forward_to == self.node:
            return
        self._table[address] = Descriptor(DescriptorState.FORWARDED,
                                          forward_to)

    def set_backup(self, address: int, backup_node: Optional[int],
                   epoch: int) -> None:
        """Record where ``address``'s latest checkpoint epoch was shipped
        (crash recovery).  Creates a RESIDENT descriptor if none exists —
        only the node currently holding an object checkpoints it."""
        descriptor = self._table.get(address)
        if descriptor is None:
            descriptor = Descriptor(DescriptorState.RESIDENT)
            self._table[address] = descriptor
        descriptor.backup_node = backup_node
        descriptor.epoch = epoch

    def clear(self, address: int) -> None:
        """Drop the descriptor (object deleted; page returns to zero-fill)."""
        self._table.pop(address, None)

    def items(self) -> List[Tuple[int, Descriptor]]:
        """Snapshot of (address, descriptor) pairs — used by crash
        recovery to find forwarding entries that did not survive."""
        return list(self._table.items())

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, address: int) -> bool:
        return address in self._table
