"""Simulated Amber objects.

Every piece of data a simulated program shares between threads is a
:class:`SimObject`: a passive entity with private state and public
operations, referenced by a virtual address that means the same thing on
every node (section 3.1).  Operations are ordinary methods — generator
methods may yield kernel requests (see :mod:`repro.sim.syscalls`);
non-generator methods execute atomically.

Objects are created with the ``New`` request, never by calling the class
directly, so the kernel can assign the virtual address, charge the creation
cost, and install the resident descriptor (section 3.2).  That request and
the others that change an object in place are :class:`ObjectManager`'s rows.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Tuple

from repro.analyze import runtime as _analysis
from repro.errors import (
    AmberError,
    AttachmentError,
    InvocationError,
    MobilityError,
)
from repro.sim import syscalls as sc


class SimObject:
    """Base class for all simulated Amber objects.

    Subclasses declare their nominal size (heap footprint and transfer
    size) with the ``SIZE_BYTES`` class attribute or per-instance via
    ``New(..., size_bytes=...)``.

    Kernel-managed fields (all underscore-prefixed) are installed when the
    object is created through ``New``:

    ``_vaddr``
        The object's global virtual address (also its identity).
    ``_home_node``
        The node whose heap region contains ``_vaddr``.
    ``_location``
        Authoritative current residence.  *Semantics never read this* — the
        kernel routes through descriptors and forwarding chains — but it
        anchors internal assertions and statistics.
    ``_immutable``
        Set by ``SetImmutable``; enables replication.
    """

    #: Default nominal object size in bytes (descriptor + representation).
    SIZE_BYTES = 256

    #: Whether AmberSan (:mod:`repro.analyze.sanitizer`) tracks this
    #: class's public instance fields for race/residency checking during
    #: sanitized runs.  Kernel-internal object kinds (threads, the
    #: synchronization classes) opt out: their state is synchronization
    #: machinery, not user data.
    SANITIZE_FIELDS = True

    _vaddr: int
    _home_node: int
    _location: Optional[int]
    _size_bytes: int
    _immutable: bool

    @property
    def vaddr(self) -> int:
        """The object's global virtual address."""
        return self._vaddr

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def immutable(self) -> bool:
        return self._immutable

    @property
    def home_node(self) -> int:
        return self._home_node

    def _amber_init(self, vaddr: int, home_node: int, size_bytes: int) -> None:
        """Called by the kernel (either backend's) when the object is
        created."""
        self._vaddr = vaddr
        self._home_node = home_node
        self._location = home_node
        self._size_bytes = size_bytes
        self._immutable = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vaddr = getattr(self, "_vaddr", None)
        where = getattr(self, "_location", "?")
        tag = f"{vaddr:#x}" if isinstance(vaddr, int) else "unregistered"
        return f"<{type(self).__name__} {tag} @node {where}>"


class ObjectManager:
    """Objects from creation to deletion, reached as
    ``kernel.object_manager``; its rows sit in the kernel's one table."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cluster = kernel.cluster
        self.costs = kernel.costs

    def create_object(self, cls: type, args: Tuple, kwargs: dict,
                      node_id: int, size_bytes: Optional[int]) -> SimObject:
        """Allocate, construct, and register an object on ``node_id``."""
        node = self.cluster.node(node_id)
        obj = cls(*args, **kwargs)
        if not isinstance(obj, SimObject):
            raise InvocationError(
                f"{cls.__name__} does not derive from SimObject")
        self.install_new(obj, node, size_bytes if size_bytes is not None
                         else type(obj).SIZE_BYTES)
        san = _analysis.ACTIVE
        if san is not None:
            san.on_create(obj)
        rec = self.kernel.recovery
        if rec is not None:
            rec.object_created(obj, node_id)
        return obj

    def install_new(self, obj: SimObject, node, size: int) -> None:
        """Give a new object (or thread) its address and residency on
        ``node``."""
        vaddr = node.heap.allocate(size)
        obj._amber_init(vaddr, node.id, size)
        self.cluster.objects[vaddr] = obj
        node.descriptors.set_resident(vaddr)

    def delete_object(self, obj: SimObject, node_id: int) -> None:
        vaddr = obj.vaddr
        node = self.cluster.node(node_id)
        if not node.descriptors.is_resident(vaddr):
            raise MobilityError(
                f"cannot delete {obj!r}: not resident on node {node_id}")
        for other in self.cluster.nodes:
            other.descriptors.clear(vaddr)
        self.cluster.node(obj.home_node).heap.free(vaddr)
        self.cluster.attachments.drop(vaddr)
        self.cluster.objects.pop(vaddr, None)
        obj._location = None

    def _kernel_op(self, thread, us: float,
                   operation: Callable[[], Any]) -> None:
        """Charge ``us``, then run one table operation in
        :meth:`_finish_op`."""
        self.kernel.charge(thread, us,
                           partial(self._finish_op, thread, operation))

    def _finish_op(self, thread, operation: Callable[[], Any]) -> None:
        """Run ``operation`` and resume the thread with its value — or
        with the :class:`AmberError` it raised, delivered into the
        generator so the program can catch it."""
        try:
            thread.send_value = operation()
        except AmberError as error:
            thread.send_exc = error
        self.kernel.advance(thread)

    # --- The object requests ----------------------------------------------

    def _handle_new(self, thread, request: sc.New) -> None:
        node_id = (thread.location if request.on_node is None
                   else request.on_node)
        self._kernel_op(
            thread, self.costs.object_create_us(),
            partial(self.create_object, request.cls, request.args,
                    request.kwargs, node_id, request.size_bytes))

    def _handle_delete(self, thread, request: sc.Delete) -> None:
        self.kernel.validate_target(request.target)
        self._kernel_op(
            thread, self.costs.descriptor_init_us,
            partial(self.delete_object, request.target, thread.location))

    def _handle_attach(self, thread, request: sc.Attach) -> None:
        self.kernel.validate_target(request.target)
        self.kernel.validate_target(request.to)
        node = self.cluster.nodes[thread.location]
        a, b = request.target, request.to
        if a.immutable or b.immutable:
            raise AttachmentError(
                "immutable (replicated) objects cannot be attached")
        if not (node.descriptors.is_resident(a.vaddr)
                and node.descriptors.is_resident(b.vaddr)):
            raise AttachmentError(
                "Attach requires both objects resident on the current node "
                f"(node {node.id}): {a!r}, {b!r}")
        self._kernel_op(
            thread, self.costs.descriptor_init_us,
            partial(self.cluster.attachments.attach, a.vaddr, b.vaddr))

    def _handle_unattach(self, thread, request: sc.Unattach) -> None:
        self.kernel.validate_target(request.target)
        self._kernel_op(
            thread, self.costs.descriptor_init_us,
            partial(self.cluster.attachments.unattach,
                    request.target.vaddr))

    def _handle_set_immutable(self, thread,
                              request: sc.SetImmutable) -> None:
        self.kernel.validate_target(request.target)
        self._kernel_op(thread, self.costs.descriptor_init_us,
                        partial(self._freeze, request.target))

    def _freeze(self, target: SimObject) -> None:
        """Mark ``target`` immutable, replicated from where it lives."""
        from repro.sim.thread import SimThread  # it imports this module

        if isinstance(target, SimThread):
            raise MobilityError("threads cannot be marked immutable")
        if self.cluster.attachments.is_attached(target.vaddr) or \
                target.vaddr in self.cluster.attachments.members():
            raise MobilityError(
                "detach objects before marking them immutable")
        target._immutable = True
        target._replica_nodes = {target._location}

    #: This module's rows of the kernel's request table.
    HANDLERS = {
        sc.New: _handle_new,
        sc.Delete: _handle_delete,
        sc.Attach: _handle_attach,
        sc.Unattach: _handle_unattach,
        sc.SetImmutable: _handle_set_immutable,
    }
