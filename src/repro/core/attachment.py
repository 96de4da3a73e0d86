"""Attachment groups (paper section 2.3).

``Attach(a, b)`` declares that object ``a`` is attached to object ``b``:
attached structures "move together and are always guaranteed to be
co-located".  Unlike Emerald, where attachment is fixed at compile time,
Amber attachments are created and dissolved dynamically.

We model attachments as an undirected-for-grouping, directed-for-bookkeeping
graph: edges remember their direction (so ``Unattach(a)`` can sever exactly
the edges ``a -> *``), but the unit of motion is the *weakly connected
component* — moving any member moves every object transitively attached in
either direction.  That is the strongest reading of the co-location
guarantee and the one the mobility protocols in both backends enforce.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Set

from repro.errors import AttachmentError


class AttachmentGraph:
    """Tracks which objects are attached to which.

    Keys are opaque hashable object identifiers (virtual addresses in both
    backends).  The graph only stores objects that participate in at least
    one attachment; everything else is implicitly a singleton group.
    """

    def __init__(self) -> None:
        #: out[a] = set of objects a is attached to (a -> b edges).
        self._out: Dict[Hashable, Set[Hashable]] = {}
        #: incoming[b] = set of objects attached to b.
        self._in: Dict[Hashable, Set[Hashable]] = {}

    def attach(self, obj: Hashable, to: Hashable) -> None:
        """Attach ``obj`` to ``to``.  Idempotent; self-attachment is an
        error."""
        if obj == to:
            raise AttachmentError(f"cannot attach object {obj!r} to itself")
        self._out.setdefault(obj, set()).add(to)
        self._in.setdefault(to, set()).add(obj)

    def unattach(self, obj: Hashable) -> None:
        """Sever every attachment *made by* ``obj`` (edges ``obj -> *``).

        Attachments other objects made *to* ``obj`` are unaffected, matching
        the paper's pairing of ``Attach`` (one direction) with ``Unattach``.
        Raises if ``obj`` has no outgoing attachments.
        """
        targets = self._out.pop(obj, None)
        if not targets:
            raise AttachmentError(f"object {obj!r} is not attached")
        for target in targets:
            incoming = self._in.get(target)
            if incoming is not None:
                incoming.discard(obj)
                if not incoming:
                    del self._in[target]
        if obj in self._out and not self._out[obj]:
            del self._out[obj]

    def is_attached(self, obj: Hashable) -> bool:
        """True if ``obj`` has any outgoing attachment."""
        return bool(self._out.get(obj))

    def attachments_of(self, obj: Hashable) -> Set[Hashable]:
        """The objects ``obj`` is directly attached to."""
        return set(self._out.get(obj, ()))

    def directly_attached(self, a: Hashable, b: Hashable) -> bool:
        """True if an attachment edge joins ``a`` and ``b`` in either
        direction — co-location settled without walking the group."""
        return b in self._out.get(a, ()) or a in self._out.get(b, ())

    def group(self, obj: Hashable) -> List[Hashable]:
        """The co-location group of ``obj``: its weakly connected component.

        Always contains ``obj`` itself; returned in deterministic BFS order
        (ties broken by ``repr`` for heterogeneous keys, numerically for the
        integer addresses both backends use).
        """
        seen: Set[Hashable] = {obj}
        order: List[Hashable] = [obj]
        queue = deque([obj])
        while queue:
            current = queue.popleft()
            neighbors = set(self._out.get(current, ()))
            neighbors |= self._in.get(current, set())
            for neighbor in _sorted(neighbors):
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    queue.append(neighbor)
        return order

    def members(self) -> Set[Hashable]:
        """Every object participating in at least one attachment."""
        return set(self._out) | set(self._in)

    def drop(self, obj: Hashable) -> None:
        """Remove ``obj`` and every edge touching it (object destroyed)."""
        for target in self._out.pop(obj, set()):
            incoming = self._in.get(target)
            if incoming is not None:
                incoming.discard(obj)
                if not incoming:
                    del self._in[target]
        for source in self._in.pop(obj, set()):
            outgoing = self._out.get(source)
            if outgoing is not None:
                outgoing.discard(obj)
                if not outgoing:
                    del self._out[source]


def _sorted(items: Iterable[Hashable]) -> List[Hashable]:
    try:
        return sorted(items)  # type: ignore[type-var]
    except TypeError:
        return sorted(items, key=repr)
