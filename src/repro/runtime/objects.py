"""Base class and ambient context for live-runtime Amber objects.

A live object is an :class:`AmberObject`, whose operations are ordinary
Python methods (no generators, no ``ctx`` argument), or simulator
program text (:mod:`repro.runtime.programtext`).  The kernel refuses
anything else, because the whole distribution model rests on data being
reachable only through invocations (section 3.6's warning about C++
escape hatches applies verbatim to Python attribute access — inside a
node Python will happily let you touch a resident neighbour, and across
nodes there is simply no object there to touch).

Inside an operation, :func:`current_node` reports where it is executing
and :func:`process_kernel` is the node kernel.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import AmberError

_process_kernel: Optional[object] = None
_segment = threading.Lock()


class AmberObject:
    """Base class for all distributable objects in the live runtime.

    Kernel-managed attributes (never touch them from user code):
    ``_amber_vaddr`` (global address) and ``_amber_immutable``.
    """

    _amber_vaddr: int = -1
    _amber_immutable: bool = False


def set_process_kernel(kernel) -> None:
    """Install the (single) kernel of this OS process, and a new segment
    lock with it (a forked node must not inherit one held)."""
    global _process_kernel, _segment
    _process_kernel = kernel
    _segment = threading.Lock()


def process_kernel():
    if _process_kernel is None:
        raise AmberError("no Amber kernel is running in this process")
    return _process_kernel


def segment_lock() -> threading.Lock:
    """The node's lock around program text between two yields."""
    return _segment


def current_node() -> int:
    """The node this code is executing on."""
    return process_kernel().node_id
