"""Wire messages for the live runtime.

Every message is a small dataclass, pickled and length-framed by
:mod:`repro.runtime.transport`.  ``reply_to`` is always a node id; replies
are matched by ``request_id`` (unique per sending node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Hello:
    """First message on every dialed connection: who is calling."""

    node: int
    version: int = PROTOCOL_VERSION


# --- invocation --------------------------------------------------------


@dataclass(frozen=True)
class InvokeMsg:
    """Ship an activation to (we believe) the object's node.

    ``trace`` accumulates the nodes that forwarded this request along a
    forwarding chain; the node that finally executes it sends each of
    them a :class:`LocationHint` (path caching, section 3.3)."""

    request_id: int
    reply_to: int
    vaddr: int
    method: str
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    trace: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ResultMsg:
    request_id: int
    ok: bool
    value: Any = None
    #: Pickled exception (or a RemoteInvocationError fallback).
    error: Optional[BaseException] = None


@dataclass(frozen=True)
class LocationHint:
    """Advisory: ``vaddr`` was last seen resident on ``node``."""

    vaddr: int
    node: int


# --- object management --------------------------------------------------


@dataclass(frozen=True)
class CreateMsg:
    """Create an instance of ``cls`` on the receiving node."""

    request_id: int
    reply_to: int
    cls: type
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]


@dataclass(frozen=True)
class MoveMsg:
    """Request that ``vaddr`` (and its attachment group) move to
    ``dest``.  Routed along the forwarding chain like an invocation."""

    request_id: int
    reply_to: int
    vaddr: int
    dest: int
    trace: Tuple[int, ...] = ()


@dataclass(frozen=True)
class InstallMsg:
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


@dataclass(frozen=True)
class LocateMsg:
    request_id: int
    reply_to: int
    vaddr: int
    trace: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FetchReplicaMsg:
    """Ask a (believed) holder of an immutable object for a copy."""

    request_id: int
    reply_to: int
    vaddr: int
    trace: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ControlMsg:
    """Routed kernel-to-kernel request on an object: set-immutable,
    attach, unattach, delete.  ``op`` selects the action."""

    request_id: int
    reply_to: int
    vaddr: int
    op: str
    extra: Any = None
    trace: Tuple[int, ...] = ()


# --- coordinator traffic -------------------------------------------------


@dataclass(frozen=True)
class RegisterNode:
    node: int
    address: Tuple[str, int]


@dataclass(frozen=True)
class Heartbeat:
    """Node -> coordinator: still alive (sent every grace/3 seconds)."""

    node: int


@dataclass(frozen=True)
class PeerStatus:
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


@dataclass(frozen=True)
class NodeDirectory:
    """Coordinator -> everyone: the full node address map."""

    addresses: Dict[int, Tuple[str, int]]


@dataclass(frozen=True)
class RegionRequest:
    request_id: int
    node: int


@dataclass(frozen=True)
class RegionGrant:
    request_id: int
    base: int
    size: int
    owner: int


@dataclass(frozen=True)
class RegionQuery:
    """Who owns the region containing this address?"""

    request_id: int
    node: int
    address: int


@dataclass(frozen=True)
class RegionAnswer:
    request_id: int
    base: int
    size: int
    owner: int


@dataclass(frozen=True)
class Shutdown:
    reason: str = "normal shutdown"
