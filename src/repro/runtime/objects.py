"""Base class and ambient context for live-runtime Amber objects.

Live-runtime operations are ordinary Python methods — no generators, no
``ctx`` argument.  Objects must derive from :class:`AmberObject`: the
kernel refuses anything else, because the whole distribution model rests
on data being reachable only through invocations (section 3.6's warning
about C++ escape hatches applies verbatim to Python attribute access —
inside a node Python will happily let you touch a resident neighbour, and
across nodes there is simply no object there to touch).

Inside an operation, :func:`current_node` reports where it is executing
and :func:`current_kernel` exposes the node kernel (used by the sync
classes to block/wake worker threads).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AmberError

_process_kernel: Optional[object] = None


class AmberObject:
    """Base class for all distributable objects in the live runtime.

    Kernel-managed attributes (never touch them from user code):
    ``_amber_vaddr`` (global address), ``_amber_home`` (home node),
    ``_amber_immutable``.
    """

    _amber_vaddr: int = -1
    _amber_home: int = -1
    _amber_immutable: bool = False


def set_process_kernel(kernel) -> None:
    """Install the (single) kernel of this OS process; Handles bind to it
    when unpickled."""
    global _process_kernel
    _process_kernel = kernel


def process_kernel():
    if _process_kernel is None:
        raise AmberError("no Amber kernel is running in this process")
    return _process_kernel


def current_node() -> int:
    """The node this code is executing on."""
    return process_kernel().node_id


def current_kernel():
    return process_kernel()
