"""Handles: the uniform object references of the live runtime.

A :class:`Handle` is what programs hold instead of raw objects — the
analogue of an Amber virtual address.  Attribute access returns a bound
remote method, so ``handle.add(5)`` invokes ``add`` wherever the object
currently lives (function shipping).  Handles pickle to just their
address and rebind to the local kernel when unpickled, which is what
makes references transmissible across node boundaries with uniform
semantics (section 3.1).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runtime import objects as _objects


class Handle:
    """A location-transparent reference to an Amber object."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int):
        self.vaddr = vaddr

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return _RemoteMethod(self, name)

    def __reduce__(self):
        return (Handle, (self.vaddr,))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Handle) and other.vaddr == self.vaddr

    def __hash__(self) -> int:
        return hash(("amber-handle", self.vaddr))

    def __repr__(self) -> str:
        return f"<Handle {self.vaddr:#x}>"


class _RemoteMethod:
    __slots__ = ("_handle", "_name")

    def __init__(self, handle: Handle, name: str):
        self._handle = handle
        self._name = name

    def __call__(self, *args, **kwargs):
        kernel = _objects.process_kernel()
        return kernel.invoke(self._handle.vaddr, self._name, args, kwargs)

    def __repr__(self) -> str:
        return f"<remote {self._name} of {self._handle!r}>"


class ThreadHandle:
    """A started Amber thread: an outstanding shipped activation."""

    __slots__ = ("_kernel", "_entry", "_method", "_vaddr")

    def __init__(self, kernel: Any, entry: Any, method: str, vaddr: int):
        self._kernel = kernel
        #: The kernel's entry for the request: the reply waits in it, so
        #: an answered thread lives as long as its handle.
        self._entry = entry
        self._method = method
        self._vaddr = vaddr

    @property
    def description(self) -> str:
        return f"{self._method}@{self._vaddr:#x}"

    def join(self, timeout: Optional[float] = None):
        """Wait for the thread to finish; returns its result or re-raises
        its exception (like the Join primitive)."""
        return self._kernel.wait_reply(self._entry, timeout)

    def __repr__(self) -> str:
        return f"<ThreadHandle {self.description}>"
