"""Wire messages for the live runtime.

Every message is a small named tuple.  On the wire it is the pair
``(code, fields)`` — ``code`` the class's index in :data:`KINDS`,
``fields`` a plain tuple — pickled and length-framed by
:mod:`repro.runtime.transport`, which checks the arity and rebuilds it
with ``tuple.__new__(KINDS[code], fields)``; no class travels by name.
``reply_to`` is always a node id; replies are matched by ``request_id``
(unique per sending node).
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

#: 5: the coordinator is a mesh peer, so its messages name no node:
#: ``Heartbeat`` carries the node's mesh address and registers it,
#: ``RegisterNode`` is gone, and a grant is a ``RegionAnswer``
#: (``RegionGrant`` is gone); 4: ``InvokeMsg`` carries the caller's
#: logical ``thread``; 3: ``FetchReplicaMsg`` (never sent) is gone and
#: the codes after it moved down; 2: frames are ``(code, fields)``; 1
#: pickled the message instance.
PROTOCOL_VERSION = 5


class Hello(NamedTuple):
    """First message on every dialed connection: who is calling."""

    node: int
    version: int = PROTOCOL_VERSION


# --- invocation --------------------------------------------------------


class InvokeMsg(NamedTuple):
    """Ship an activation to (we believe) the object's node.

    ``trace`` accumulates the nodes that forwarded this request along a
    forwarding chain; the node that finally executes it sends each of
    them a :class:`LocationHint` (path caching, section 3.3).  ``thread``
    is the logical thread the activation continues; a fork names none."""

    request_id: int
    reply_to: int
    vaddr: int
    method: str
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    trace: Tuple[int, ...] = ()
    thread: Optional[Tuple[int, int]] = None

    @property
    def logical_thread(self) -> Tuple[int, int]:
        """The thread the activation runs for: ``thread``, or the one a
        fork starts, ``(reply_to, request_id)``."""
        return self.thread or (self.reply_to, self.request_id)


class ResultMsg(NamedTuple):
    request_id: int
    ok: bool
    value: Any = None
    #: Pickled exception (or a RemoteInvocationError fallback).
    error: Optional[BaseException] = None


class LocationHint(NamedTuple):
    """Advisory: ``vaddr`` was last seen resident on ``node``."""

    vaddr: int
    node: int


# --- object management --------------------------------------------------


class CreateMsg(NamedTuple):
    """Create an instance of ``cls`` on the receiving node."""

    request_id: int
    reply_to: int
    cls: type
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]


class MoveMsg(NamedTuple):
    """Request that ``vaddr`` (and its attachment group) move to
    ``dest``.  Routed along the forwarding chain like an invocation."""

    request_id: int
    reply_to: int
    vaddr: int
    dest: int
    trace: Tuple[int, ...] = ()


class InstallMsg(NamedTuple):
    """Carry a moved (or replicated) group's state to its new node.

    ``objects`` maps vaddr -> the object itself (pickled by the framing
    layer; embedded Handles stay handles).  ``attach_edges`` are the
    attachment edges internal to the group.
    """

    request_id: int
    reply_to: int
    objects: Dict[int, Any]
    attach_edges: Tuple[Tuple[int, int], ...]
    #: True when this is an immutable replica rather than a move.
    replica: bool = False


class LocateMsg(NamedTuple):
    request_id: int
    reply_to: int
    vaddr: int
    trace: Tuple[int, ...] = ()


class ControlMsg(NamedTuple):
    """Routed kernel-to-kernel request on an object: set-immutable,
    attach, unattach, delete.  ``op`` selects the action."""

    request_id: int
    reply_to: int
    vaddr: int
    op: str
    extra: Any = None
    trace: Tuple[int, ...] = ()


# --- coordinator traffic -------------------------------------------------
#
# The coordinator is a mesh peer like any node: the Hello of a
# connection names its sender, so none of these does.


class Heartbeat(NamedTuple):
    """Node -> coordinator: still alive, at this mesh address (sent
    every grace/3 seconds; the first registers the node)."""

    address: Tuple[str, int]


class PeerStatus(NamedTuple):
    """Coordinator -> everyone: a failure-detector verdict.

    ``alive=False`` means the node has been silent past the grace
    window and should be treated as suspect; ``alive=True`` retracts an
    earlier suspicion (the node's heartbeats resumed).  Detection only:
    the live runtime reports the verdict, it does not (yet) recover the
    dead node's objects — that is the simulator's job (see
    ``docs/RECOVERY.md``).
    """

    node: int
    alive: bool
    silence_s: float = 0.0


class NodeDirectory(NamedTuple):
    """Coordinator -> everyone: the full node address map."""

    addresses: Dict[int, Tuple[str, int]]


class RegionRequest(NamedTuple):
    """Grant the sender a fresh region."""

    request_id: int


class RegionQuery(NamedTuple):
    """Who owns the region containing this address?"""

    request_id: int
    address: int


class RegionAnswer(NamedTuple):
    """The reply to either: the region, or ``owner`` -1 for none."""

    request_id: int
    base: int
    size: int
    owner: int


class Shutdown(NamedTuple):
    reason: str = "normal shutdown"


#: Every message class; a class's index here is its code on the wire,
#: so an entry is appended, never inserted — and a removal, like a
#: change of shape, takes a new PROTOCOL_VERSION.
KINDS: Tuple[type, ...] = (
    Hello, InvokeMsg, ResultMsg, LocationHint, CreateMsg, MoveMsg,
    InstallMsg, LocateMsg, ControlMsg, Heartbeat, PeerStatus,
    NodeDirectory, RegionRequest, RegionQuery, RegionAnswer, Shutdown,
)
