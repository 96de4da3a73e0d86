"""Exception hierarchy for the Amber reproduction.

All errors raised by this package derive from :class:`AmberError` so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


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
