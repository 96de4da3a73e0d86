"""The coordinator: the address-space server plus cluster bootstrap.

One coordinator runs (as a thread) in the driver process.  It plays the
role of the paper's *address-space server* (section 3.1): the single
authority handing out disjoint regions of the global address space, and
answering "who owns the region containing this address?" queries (the
home-node derivation of section 3.3).  It also brokers startup — a
node's first heartbeat registers its mesh address, and every node gets
the full directory once everyone has arrived — and fans out shutdown.

The kernels reach it over the network they use for each other: the
coordinator is a :class:`~repro.runtime.transport.Mesh` endpoint under
the reserved node id :data:`COORDINATOR`, and :class:`CoordinatorClient`
talks to it through its own node's mesh (:meth:`Mesh.control
<repro.runtime.transport.Mesh.control>`).  The control plane's traffic
(a beat per node every ``grace/3``, a grant per region of heap, a query
per unknown region) bypasses the chaos layer and the data plane's
counters.

It is additionally the live runtime's *failure detector*: every node
heartbeats, and a monitor thread broadcasts
:class:`~repro.runtime.messages.PeerStatus` verdicts when a node falls
silent past the grace window (``REPRO_PEER_TIMEOUT_S / 10``) or comes
back.  Detection only — recovery of a dead node's objects is
implemented in the deterministic simulator (``docs/RECOVERY.md``).

The coordinator is *restartable*: a successor can adopt the old
incarnation's address-space ``server`` (so regions granted before the
outage stay authoritative) and bind the old ``port``; every node's next
beat registers it there.  Requests made while a client's link to the
coordinator is down fail with a typed :class:`~repro.errors.ClusterError`
instead of deadlocking (see ``docs/CHAOS.md``).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.address_space import (
    DEFAULT_REGION_BYTES,
    AddressSpaceServer,
    Region,
)
from repro.errors import (
    AddressExhaustedError,
    AddressSpaceError,
    ClusterError,
    RuntimeTransportError,
)
from repro.recovery.config import heartbeat_grace_s, peer_timeout_s
from repro.runtime import messages as m
from repro.runtime.transport import Mesh

#: The coordinator's node id on the mesh; no node has it.
COORDINATOR = -1


class Coordinator:
    """Serves registration, region grants, and region queries."""

    def __init__(self, expected_nodes: int,
                 region_bytes: int = DEFAULT_REGION_BYTES,
                 port: int = 0,
                 grace_s: Optional[float] = None,
                 server: Optional[AddressSpaceServer] = None):
        self.expected_nodes = expected_nodes
        #: A restarted coordinator adopts its predecessor's server so
        #: regions granted before the outage stay authoritative.
        self.server = AddressSpaceServer(region_bytes) \
            if server is None else server
        #: Heartbeat silence tolerated before a node is declared suspect.
        self.grace_s = heartbeat_grace_s() if grace_s is None else grace_s
        self._lock = threading.Lock()
        #: node -> the mesh address its latest heartbeat gave.
        self._registered: Dict[int, Tuple[str, int]] = {}
        #: node -> monotonic clock of its last heartbeat: a node is
        #: monitored from the beat that registers it, so one that dies
        #: before its second is still suspected.
        self._last_heard: Dict[int, float] = {}
        self._suspected: set = set()
        self._closing = threading.Event()
        self.mesh = Mesh(COORDINATOR, self._on_message, port=port)
        self.address: Tuple[str, int] = self.mesh.address
        threading.Thread(target=self._monitor_loop, daemon=True,
                         name="coordinator-monitor").start()

    def _on_message(self, node: int, message) -> None:
        """A mesh reader's frame from ``node``."""
        kind = type(message)
        if kind is m.Heartbeat:
            self._heard(node, message.address)
            return
        try:
            if kind is m.RegionRequest:
                region = self.server.grant_region(node)
            elif kind is m.RegionQuery:
                region = self.server.region_for(message.address)
            else:
                return
            answer = m.RegionAnswer(message.request_id, region.base,
                                    region.size, region.owner_node)
        except AddressSpaceError:
            answer = m.RegionAnswer(message.request_id, 0, 0, -1)
        self._send(node, answer)

    def _send(self, node: int, message) -> None:
        try:
            self.mesh.send(node, message)
        except RuntimeTransportError:
            pass    # a node gone (or not yet registered): its deadline

    # -- registration and failure detection ---------------------------------

    def _heard(self, node: int, address: Tuple[str, int]) -> None:
        """A heartbeat: the first one (or one from a new address — the
        node restarted) registers ``node``, and once every expected node
        has, the directory goes to all of them."""
        with self._lock:
            self._last_heard[node] = time.monotonic()
            rejoined = node in self._suspected
            self._suspected.discard(node)
            moved = self._registered.get(node) != address
            if moved:
                # Reachable before any broadcast can name it.
                self.mesh.set_directory({node: address})
                self._registered[node] = address
            # A re-registration after completion rebroadcasts, so
            # survivors learn the replacement address.
            directory = dict(self._registered) if moved and len(
                self._registered) == self.expected_nodes else None
        if directory is not None:
            self._broadcast(m.NodeDirectory(directory))
        if rejoined:
            self._broadcast(m.PeerStatus(node, alive=True))

    def _monitor_loop(self) -> None:
        """Declare suspect any registered node silent past the grace
        window; retraction happens in :meth:`_heard`."""
        interval = max(self.grace_s / 4.0, 0.01)
        while not self._closing.wait(interval):
            now = time.monotonic()
            verdicts = []
            with self._lock:
                for node, last in self._last_heard.items():
                    silence = now - last
                    if silence > self.grace_s \
                            and node not in self._suspected:
                        self._suspected.add(node)
                        verdicts.append(
                            m.PeerStatus(node, alive=False,
                                         silence_s=silence))
            for verdict in verdicts:
                self._broadcast(verdict, verdict.node)

    def suspected_nodes(self) -> set:
        """Current verdicts (for tests and the driver)."""
        with self._lock:
            return set(self._suspected)

    def _broadcast(self, message, *also: int) -> None:
        """Send ``message`` to every registered node not suspected, then
        to ``also``.  A suspect is skipped otherwise: a write to a dead
        node waits out the mesh's retry ladder."""
        with self._lock:
            nodes = [node for node in self._registered
                     if node not in self._suspected]
        for node in nodes + list(also):
            self._send(node, message)

    def broadcast_shutdown(self) -> None:
        self._broadcast(m.Shutdown())

    def close(self) -> None:
        """Stop, and drop every connection: clients see the outage, and
        a successor can bind the port."""
        self._closing.set()
        self.mesh.close()


class CoordinatorClient:
    """Per-process client, bound to its node's mesh by :meth:`join`;
    also duck-types the address-space server interface
    :class:`~repro.core.address_space.NodeHeap` expects
    (``grant_region`` / ``region_bytes``)."""

    def __init__(self, address: Tuple[str, int],
                 region_bytes: int = DEFAULT_REGION_BYTES):
        self.region_bytes = region_bytes
        self._address = address
        self._mesh: Optional[Mesh] = None
        self._pending: Dict[int, "queue.SimpleQueue"] = {}
        self._request_ids = itertools.count(1)
        self._directory: "queue.SimpleQueue" = queue.SimpleQueue()
        self.shutdown_event = threading.Event()
        self._closed = threading.Event()
        #: Cleared while the coordinator link is down: requests started
        #: then fail fast and typed instead of waiting out a deadline
        #: nobody will answer.  A heartbeat that gets through sets it.
        self._connected = threading.Event()
        self._connected.set()
        #: The nodes the last PeerStatus of each said were suspected
        #: dead: a snapshot, replaced (never changed) by the reader.
        self._suspected: FrozenSet[int] = frozenset()
        #: Set the first time any peer is suspected (tests/wait hooks).
        self.peer_failure_event = threading.Event()

    @property
    def stats(self) -> Dict[str, int]:
        """``coordinator_reconnects``: redials of the coordinator."""
        reconnects = self._mesh.control_stats["reconnects"] \
            if self._mesh is not None else 0
        return {"coordinator_reconnects": reconnects}

    def join(self, node: int, mesh: Mesh) -> None:
        """Reach the coordinator through ``mesh``: register ``node``
        with a first heartbeat, then beat every third of the grace
        window, so a single dropped beat never triggers suspicion."""
        self._mesh = mesh
        mesh.control(COORDINATOR, self._address, self._on_message,
                     self._lost)
        try:
            self._beat()
        except RuntimeTransportError as error:
            raise ClusterError(f"coordinator unreachable: {error}") \
                from error
        threading.Thread(target=self._beat_loop, daemon=True,
                         name=f"heartbeat-{node}").start()

    def _on_message(self, peer: int, message) -> None:
        """A frame of the coordinator's, on a mesh reader."""
        kind = type(message)
        if kind is m.RegionAnswer:
            box = self._pending.pop(message.request_id, None)
            if box is not None:
                box.put(message)
        elif kind is m.PeerStatus:
            if message.alive:
                self._suspected -= {message.node}
            else:
                self._suspected |= {message.node}
                self.peer_failure_event.set()
        elif kind is m.NodeDirectory:
            # Every directory, mid-run rebroadcasts included (a peer
            # restarted at a new address), reaches the mesh first.
            self._mesh.set_directory(message.addresses)
            self._directory.put(message.addresses)
        elif kind is m.Shutdown:
            self.shutdown_event.set()

    def _lost(self) -> None:
        """The coordinator's connection ended: fail what waits on it
        (typed, not a deadlock) and refuse requests until a heartbeat
        gets through again."""
        self._connected.clear()
        while self._pending:
            try:
                _, box = self._pending.popitem()
            except KeyError:    # pragma: no cover - racing requester
                break
            box.put(ClusterError("coordinator connection lost"))

    def _beat(self) -> None:
        self._mesh.send(COORDINATOR, m.Heartbeat(self._mesh.address))

    def _beat_loop(self) -> None:
        """Beat until closed.  Through an outage the mesh redials on
        each beat and the first that gets through registers the node
        with the successor; a coordinator away for the whole peer-timeout
        budget ends the node."""
        interval_s = heartbeat_grace_s() / 3.0
        last = time.monotonic()
        while not self._closed.wait(interval_s) \
                and not self.shutdown_event.is_set():
            try:
                self._beat()
            except RuntimeTransportError:
                self._connected.clear()
                if time.monotonic() - last > peer_timeout_s():
                    self.shutdown_event.set()
                continue
            last = time.monotonic()
            self._connected.set()

    def _request(self, build) -> Optional[Region]:
        if not self._connected.is_set():
            raise ClusterError(
                "coordinator unreachable (reconnecting)")
        request_id = next(self._request_ids)
        box: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pending[request_id] = box
        try:
            self._mesh.send(COORDINATOR, build(request_id))
        except RuntimeTransportError as error:
            self._pending.pop(request_id, None)
            raise ClusterError(
                f"coordinator unreachable: {error}") from error
        try:
            answer = box.get(timeout=peer_timeout_s())
        except queue.Empty:
            self._pending.pop(request_id, None)
            raise ClusterError("coordinator did not answer") from None
        if isinstance(answer, Exception):
            raise answer
        if answer.owner < 0:
            return None
        return Region(answer.base, answer.size, answer.owner)

    def wait_directory(self, timeout: Optional[float] = None
                       ) -> Dict[int, Tuple[str, int]]:
        if timeout is None:
            timeout = peer_timeout_s()
        try:
            return self._directory.get(timeout=timeout)
        except queue.Empty:
            raise ClusterError(
                "cluster did not finish registering in time") from None

    def failed_peers(self) -> FrozenSet[int]:
        """Nodes currently suspected dead by the coordinator: a frozen
        snapshot, which a later verdict does not change."""
        return self._suspected

    # -- AddressSpaceServer interface for NodeHeap ------------------------

    def grant_region(self, node: int) -> Region:
        region = self._request(m.RegionRequest)
        if region is None:
            raise AddressExhaustedError(
                f"the coordinator has no region left for node {node}")
        return region

    def query_region(self, address: int) -> Optional[Region]:
        return self._request(lambda rid: m.RegionQuery(rid, address))

    def close(self) -> None:
        self._closed.set()
