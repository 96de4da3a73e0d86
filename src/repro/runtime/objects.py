"""Base class and ambient context for live-runtime Amber objects.

A live object is an :class:`AmberObject`, whose operations are ordinary
Python methods (no generators, no ``ctx`` argument), or simulator
program text (:mod:`repro.runtime.programtext`).  The kernel refuses
anything else, because the whole distribution model rests on data being
reachable only through invocations (section 3.6's warning about C++
escape hatches applies verbatim to Python attribute access — inside a
node Python will happily let you touch a resident neighbour, and across
nodes there is simply no object there to touch).

Inside an operation, :func:`current_node` reports where it is executing,
:func:`process_kernel` is the node kernel and :func:`current_thread` the
logical thread the operation runs for.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.errors import AmberError
from repro.obs.metrics import MetricsRegistry

_process_kernel: Optional[object] = None
_segment = threading.Lock()
_metrics = MetricsRegistry()


class _Activation(threading.local):
    #: The logical thread of the activation this OS thread runs, if any
    #: (the object table sets it around an operation).
    thread: Optional[Tuple[int, int]] = None


activation = _Activation()


class AmberObject:
    """Base class for all distributable objects in the live runtime.

    Kernel-managed attributes (never touch them from user code):
    ``_vaddr`` (global address) and ``_immutable``, the names a
    simulator object keeps the same two facts under.
    """

    _vaddr: int = -1
    _immutable: bool = False

    def _amber_init(self, vaddr: int, home_node: int,
                    size_bytes: int) -> None:
        """Called by the node kernel when the object is created."""
        self._vaddr = vaddr


def set_process_kernel(kernel) -> None:
    """Install the (single) kernel of this OS process, and a new segment
    lock (a forked node must not inherit one held) and metrics registry
    with it."""
    global _process_kernel, _segment, _metrics
    _process_kernel = kernel
    _segment = threading.Lock()
    _metrics = MetricsRegistry()


def process_kernel():
    if _process_kernel is None:
        raise AmberError("no Amber kernel is running in this process")
    return _process_kernel


def segment_lock() -> threading.Lock:
    """The node's lock around program text between two yields."""
    return _segment


def node_metrics() -> MetricsRegistry:
    """The node's registry: program text's ``ctx.metrics``, observed
    into under the segment lock."""
    return _metrics


def current_thread() -> Tuple[int, int]:
    """The logical thread this OS thread runs for: ``(node, request
    id)`` of the fork that started it, or outside any activation, the
    OS thread itself (a negative number, which no request id is)."""
    thread = activation.thread
    if thread is None:
        return (process_kernel().node_id, -threading.get_ident())
    return thread


def current_node() -> int:
    """The node this code is executing on."""
    return process_kernel().node_id
