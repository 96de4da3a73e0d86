"""A live node's share of the object space (§3.1-3.3): resident objects,
their descriptors, the attachment graph, bind counts, and the heap and
region map that place objects and name their home nodes.  No frames
here; a caller that must not wait (``may_wait=False``) gets
:class:`MustWait` where going on would mean waiting."""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.address_space import NodeHeap, RegionMap
from repro.core.attachment import AttachmentGraph
from repro.core.descriptor import DescriptorTable
from repro.core.invocation import operation_of
from repro.errors import (
    AmberError,
    AttachmentError,
    ImmutabilityError,
    MobilityError,
    ObjectNotFoundError,
)
from repro.recovery.config import peer_timeout_s
from repro.runtime.objects import AmberObject, activation
from repro.runtime.programtext import run_program_text


class MustWait(Exception):
    """Going on would mean waiting, which a mesh reader never does."""


class ObjectTable:
    """:meth:`execute` holds a bind count on its object while the
    operation runs; :meth:`take_group` waits for a group's to drain, and
    is woken only while it waits."""

    def __init__(self, node_id: int, coordinator_client,
                 stats: Dict[str, int]):
        self.node_id = node_id
        self._coord = coordinator_client
        self._stats = stats
        self._state = threading.RLock()
        self._drained = threading.Condition(self._state)
        #: Drains waiting on ``_drained``; read and written under
        #: ``_state``, so an invocation that ends finds every waiter.
        self._draining = 0
        #: vaddr -> the object, for every object resident here.
        self.objects: Dict[int, AmberObject] = {}
        #: Written under ``_state``.  The kernel asks it for a next hop
        #: without the lock (one dict read), so that the home node's
        #: region query, which may wait on the coordinator, holds none.
        self.descriptors = DescriptorTable(node_id)
        self._attachments = AttachmentGraph()
        self._bind: Dict[int, int] = {}
        #: vaddr -> the requests held for it while a move from here is
        #: in flight: one list per move, shared by the group's members.
        self._held: Dict[int, List[Any]] = {}
        self._regions = RegionMap()
        self._heap = NodeHeap(node_id, coordinator_client,
                              on_grant=self._regions.add)

    def create(self, cls: type, args: Tuple, kwargs: dict) -> int:
        obj = cls(*args, **kwargs)
        if not isinstance(obj, AmberObject):
            from repro.sim.objects import SimObject   # loads the simulator
            if not isinstance(obj, SimObject):
                raise AmberError(f"{cls.__name__} derives from neither "
                                 f"AmberObject nor SimObject")
        with self._state:
            vaddr = self._heap.allocate(64)
            obj._amber_init(vaddr, self.node_id, 64)
            self.objects[vaddr] = obj
            self.descriptors.set_resident(vaddr)
        return vaddr

    def execute(self, obj: AmberObject, method: str, args: Tuple,
                kwargs: dict, thread: Optional[Tuple[int, int]] = None
                ) -> Any:
        """Run the operation for the logical ``thread`` (``None``: the
        caller's, a local invoke)."""
        fn = operation_of(obj, method)
        vaddr = obj._vaddr
        with self._state:
            self._bind[vaddr] = self._bind.get(vaddr, 0) + 1
        if thread is not None:
            outer, activation.thread = activation.thread, thread
        try:
            self._stats["invocations_executed"] += 1
            if isinstance(obj, AmberObject):
                return fn(*args, **kwargs)
            return run_program_text(fn, args, kwargs)
        finally:
            if thread is not None:
                activation.thread = outer
            with self._state:
                self._bind[vaddr] -= 1
                if self._bind[vaddr] == 0:
                    del self._bind[vaddr]
                    if self._draining:
                        self._drained.notify_all()

    def resident(self, vaddr: int) -> Optional[AmberObject]:
        with self._state:
            if self.descriptors.is_resident(vaddr):
                return self.objects.get(vaddr)
        return None

    def home_node(self, vaddr: int, may_wait: bool = True) -> int:
        region = self._regions.lookup(vaddr)
        if region is None:
            if not may_wait:
                raise MustWait()        # for the coordinator's answer
            region = self._coord.query_region(vaddr)
            if region is None:
                raise ObjectNotFoundError(
                    f"address {vaddr:#x} lies in no granted region")
            self._regions.add(region)
        return region.owner_node

    def hint(self, vaddr: int, node: int) -> None:
        with self._state:
            self.descriptors.update_hint(vaddr, node)
        self._stats["hints"] += 1

    def take_group(self, vaddr: int, dest: int,
                   may_wait: bool) -> Tuple[dict, tuple, List[Any]]:
        """Drain the attachment group of ``vaddr``, take it out of this
        node and leave forwarding addresses to ``dest``; the list
        :meth:`hold` fills until the move's :meth:`release`.  The drain
        waits at most the peer timeout."""
        deadline = None
        with self._state:
            group = self._attachments.group(vaddr)
            # Wait for active invocations of every member to drain.
            while any(self._bind.get(member, 0) for member in group):
                if not may_wait:
                    raise MustWait()
                if deadline is None:
                    bound_s = peer_timeout_s()
                    deadline = time.monotonic() + bound_s
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MobilityError(
                        f"move of {vaddr:#x}: active invocations did not "
                        f"drain within {bound_s:g}s")
                self._draining += 1
                try:
                    self._drained.wait(remaining)
                finally:
                    self._draining -= 1
            if any(member not in self.objects for member in group):
                raise MobilityError(
                    f"attachment group of {vaddr:#x} is not fully "
                    f"resident here")
            shipment = {member: self.objects.pop(member)
                        for member in group}
            edges = tuple((member, target) for member in group
                          for target in
                          self._attachments.attachments_of(member))
            held: List[Any] = []
            for member in group:
                self._attachments.drop(member)
                self.descriptors.set_forwarding(member, dest)
                self._held[member] = held
        return shipment, edges, held

    def hold(self, vaddr: int, message: Any) -> bool:
        """Keep ``message`` until the move of ``vaddr`` from here gets
        its outcome; false when no such move is in flight."""
        with self._state:
            held = self._held.get(vaddr)
            if held is None:
                return False
            held.append(message)
            return True

    def release(self, held: List[Any]) -> List[Any]:
        """End the holding into ``held``, and return it.  By identity: a
        newer move from here may hold for the same members."""
        with self._state:
            self._held = {member: other for member, other
                          in self._held.items() if other is not held}
        return held

    def adopt(self, objects: Dict[int, AmberObject], edges,
              replica: bool = False) -> None:
        """Make ``objects`` resident here, attached by ``edges``."""
        with self._state:
            for vaddr, obj in objects.items():
                if replica and self.descriptors.is_resident(vaddr):
                    continue   # already have a replica
                self.objects[vaddr] = obj
                self.descriptors.set_resident(vaddr)
            for source, target in edges:
                self._attachments.attach(source, target)

    def control(self, obj: AmberObject, op: str, extra: Any) -> None:
        """``set_immutable``, ``attach`` (to ``extra``), ``unattach`` or
        ``delete`` the resident ``obj``."""
        vaddr = obj._vaddr
        with self._state:
            if op == "set_immutable":
                if self._attachments.group(vaddr) != [vaddr]:
                    raise ImmutabilityError(
                        "detach objects before marking them immutable")
                obj._immutable = True
            elif op == "attach":
                if not self.descriptors.is_resident(extra):
                    raise AttachmentError(
                        "Attach requires co-located objects; "
                        f"{extra:#x} is not resident here")
                if obj._immutable or self.objects[extra]._immutable:
                    raise AttachmentError(
                        "immutable (replicated) objects cannot be attached")
                self._attachments.attach(vaddr, extra)
            elif op == "unattach":
                self._attachments.unattach(vaddr)
            elif op == "delete":
                if self._bind.get(vaddr, 0):
                    raise MobilityError(
                        f"cannot delete {vaddr:#x} during an invocation")
                self.objects.pop(vaddr, None)
                self.descriptors.clear(vaddr)
                self._attachments.drop(vaddr)
            else:
                raise AmberError(f"unknown control op {op!r}")
