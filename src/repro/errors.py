"""Exception hierarchy for the Amber reproduction.

All errors raised by this package derive from :class:`AmberError` so callers
can catch library failures without catching unrelated bugs.
:func:`finite` decides which numbers a setting accepts, raising the
caller's error type.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Any, Callable


class AmberError(Exception):
    """Base class for all errors raised by the repro package."""


class AddressSpaceError(AmberError):
    """Violation of the global virtual address space rules."""


class AddressExhaustedError(AddressSpaceError):
    """The address-space server has no regions left to hand out."""


class HeapError(AddressSpaceError):
    """Invalid heap operation (bad free, double free, misaligned address)."""


class DescriptorError(AmberError):
    """Inconsistent object-descriptor state transition."""


class ObjectNotFoundError(AmberError):
    """An object reference could not be resolved to a resident object."""


class AttachmentError(AmberError):
    """Invalid attachment operation (self-attach, unknown edge, ...)."""


class ImmutabilityError(AmberError):
    """Attempt to mutate or illegally move an immutable object."""


class MobilityError(AmberError):
    """An object or thread move could not be performed."""


class InvocationError(AmberError):
    """A malformed invocation (unknown method, non-generator operation...)."""


class SynchronizationError(AmberError):
    """Misuse of a synchronization object (release without hold, waiting
    on a condition without entering its monitor, ...)."""


class SimulationError(AmberError):
    """Internal inconsistency detected by the discrete-event engine."""


class DeadlockError(SimulationError):
    """The simulation cannot make progress but live threads remain."""


class NodeFailure(AmberError):
    """A node died and took unrecoverable state down with it.

    Raised into ``Join`` (and delivered to waiting callers) when a thread
    was lost with a confirmed-dead node and no checkpointed state exists
    to replay its work against — the typed alternative to hanging
    forever on a peer that will never answer.
    """


class UsageError(AmberError):
    """Input from the command line that cannot be acted on: a path that
    does not exist, a choice trace that is not integers, a bench file
    that does not load.  ``python -m repro`` prints it as one
    ``error:`` line and exits 2."""


class RuntimeTransportError(AmberError):
    """Failure in the live runtime's socket transport."""


class FrameSizeError(RuntimeTransportError):
    """A message whose frame would exceed the transport's size limit:
    no retry can send it."""


class ClusterError(AmberError):
    """Failure while bootstrapping or shutting down a live cluster."""


class RemoteInvocationError(AmberError):
    """An exception was raised by remote user code during an invocation.

    The original traceback text is preserved in ``remote_traceback``.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback


def finite(name: str, value: Any, error: Callable[[str], Exception],
           low: float = 0, high: float = math.inf, *,
           integral: bool = False, open_low: bool = False,
           allow_inf: bool = False) -> Any:
    """Return ``value`` if the setting ``name`` may take it, else raise
    ``error`` with a message that starts with ``name``.

    The rule for every number that configures a run: a real number, not
    a bool; an integer where ``integral`` (what :func:`operator.index`
    takes: numpy integers, not ``2.0``); inside ``[low, high]``, or
    ``(low, high]`` with ``open_low``; finite, unless ``allow_inf``
    admits ``+inf``.  NaN lies inside no range."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok and integral:
        try:
            operator.index(value)
        except TypeError:
            ok = False
    elif ok:
        try:
            ok = math.isfinite(value) or (allow_inf and value == math.inf)
        except OverflowError:      # an integer past the largest float
            ok = False
    if ok and (low < value if open_low else low <= value) \
            and value <= high:
        return value
    kind = ("an integer" if integral else
            "a number" if allow_inf else "a finite number")
    bounds = (f"{name} {'>' if open_low else '>='} {low}"
              if high == math.inf else
              f"{low} {'<' if open_low else '<='} {name} <= {high}")
    raise error(f"{name} must be {kind} with {bounds}, got {value!r}")
