"""The coordinator: the address-space server plus cluster bootstrap.

One coordinator runs (as a thread) in the driver process.  It plays the
role of the paper's *address-space server* (section 3.1): the single
authority handing out disjoint regions of the global address space, and
answering "who owns the region containing this address?" queries (the
home-node derivation of section 3.3).  It also brokers startup — nodes
register their mesh addresses and receive the full directory once
everyone has arrived — and fans out shutdown.

It is additionally the live runtime's *failure detector*: every node
heartbeats over its coordinator connection, and a monitor thread
broadcasts :class:`~repro.runtime.messages.PeerStatus` verdicts when a
node falls silent past the grace window (``REPRO_PEER_TIMEOUT_S / 10``)
or comes back.  Detection only — recovery of a dead node's objects is
implemented in the deterministic simulator (``docs/RECOVERY.md``).

The coordinator is *restartable*: a successor can adopt the old
incarnation's address-space ``server`` (so regions granted before the
outage stay authoritative) and bind the old ``port``.
:class:`CoordinatorClient` survives the outage — it reconnects with
backoff, re-registers, and resumes heartbeats; requests in flight
during the outage fail with a typed
:class:`~repro.errors.ClusterError` instead of deadlocking (see
``docs/CHAOS.md``).
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
import weakref
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.address_space import (
    DEFAULT_REGION_BYTES,
    AddressSpaceServer,
    Region,
)
from repro.errors import AddressSpaceError, ClusterError
from repro.recovery.config import heartbeat_grace_s, peer_timeout_s
from repro.runtime import messages as m
from repro.runtime.transport import recv_frame, send_frame


def _close_listener_at_fork(coordinator: "Coordinator") -> None:
    """Close this coordinator's listening socket in forked children.

    ``os.register_at_fork`` handlers cannot be unregistered, so hold the
    coordinator only weakly: a dead one costs a no-op per fork."""
    ref = weakref.ref(coordinator)

    def _in_child() -> None:
        owner = ref()
        if owner is not None:
            try:
                owner._listener.close()
            except OSError:
                pass

    os.register_at_fork(after_in_child=_in_child)


class Coordinator:
    """Serves registration, region grants, and region queries."""

    def __init__(self, expected_nodes: int,
                 region_bytes: int = DEFAULT_REGION_BYTES,
                 host: str = "127.0.0.1",
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
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(expected_nodes + 4)
        # Forked node processes inherit this listening fd; unless they
        # close it, the port stays in LISTEN after our close() and a
        # successor coordinator cannot rebind it (chaos scenario:
        # coordinator restart on its old port, docs/CHAOS.md).
        _close_listener_at_fork(self)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._lock = threading.Lock()
        self._registered: Dict[int, Tuple[str, int]] = {}
        self._connections: Dict[int, socket.socket] = {}
        #: Every accepted connection, registered or not — close() must
        #: sever them all so no serve thread outlives the incarnation.
        self._serve_conns: set = set()
        #: node -> monotonic clock of its registration or last
        #: heartbeat, whichever is later: a node is monitored from the
        #: moment it registers, so one that dies before its first beat
        #: is still suspected.
        self._last_heard: Dict[int, float] = {}
        self._suspected: set = set()
        #: Serializes all outbound frames: replies come from per-node
        #: serve threads, verdicts from the monitor thread — interleaved
        #: writes to one socket would corrupt the framing.
        self._send_guard = threading.Lock()
        self._closing = threading.Event()
        threading.Thread(target=self._accept_loop, daemon=True,
                         name="coordinator-accept").start()
        threading.Thread(target=self._monitor_loop, daemon=True,
                         name="coordinator-monitor").start()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                if self._closing.is_set():
                    # Raced a dial against close(): a dying incarnation
                    # must not adopt clients (they should reconnect to
                    # the successor instead).
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                self._serve_conns.add(conn)
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True, name="coordinator-serve").start()

    def _serve(self, conn: socket.socket) -> None:
        node: Optional[int] = None
        try:
            while not self._closing.is_set():
                message = recv_frame(conn)
                if isinstance(message, m.RegisterNode):
                    node = message.node
                    with self._lock:
                        stale = self._connections.get(node)
                        if stale is not None and stale is not conn:
                            # The node came back (restart): adopt the
                            # new connection, drop the dead one.
                            try:
                                stale.close()
                            except OSError:
                                pass
                        self._registered[node] = message.address
                        self._connections[node] = conn
                        self._last_heard[node] = time.monotonic()
                        complete = (len(self._registered)
                                    == self.expected_nodes)
                        directory = dict(self._registered)
                        connections = list(self._connections.values())
                    if complete:
                        # A re-registration after completion rebroadcasts
                        # so survivors learn the replacement address.
                        for peer in connections:
                            try:
                                with self._send_guard:
                                    send_frame(peer,
                                               m.NodeDirectory(directory))
                            except OSError:
                                # One dead peer must not starve the rest
                                # of the directory update.
                                continue
                elif isinstance(message, m.Heartbeat):
                    self._heard(message.node)
                elif isinstance(message, m.RegionRequest):
                    region = self.server.grant_region(message.node)
                    with self._send_guard:
                        send_frame(conn, m.RegionGrant(
                            message.request_id, region.base, region.size,
                            region.owner_node))
                elif isinstance(message, m.RegionQuery):
                    try:
                        region = self.server.region_for(message.address)
                        answer = m.RegionAnswer(
                            message.request_id, region.base, region.size,
                            region.owner_node)
                    except AddressSpaceError:
                        answer = m.RegionAnswer(message.request_id,
                                                0, 0, -1)
                    with self._send_guard:
                        send_frame(conn, answer)
        except (ConnectionError, OSError, EOFError):
            return
        finally:
            with self._lock:
                self._serve_conns.discard(conn)
            conn.close()

    # -- failure detection ------------------------------------------------

    def _heard(self, node: int) -> None:
        with self._lock:
            self._last_heard[node] = time.monotonic()
            rejoined = node in self._suspected
            if rejoined:
                self._suspected.discard(node)
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
                self._broadcast(verdict)

    def suspected_nodes(self) -> set:
        """Current verdicts (for tests and the driver)."""
        with self._lock:
            return set(self._suspected)

    def _broadcast(self, message) -> None:
        with self._lock:
            connections = list(self._connections.values())
        for conn in connections:
            try:
                with self._send_guard:
                    send_frame(conn, message)
            except OSError:
                continue

    def broadcast_shutdown(self) -> None:
        self._broadcast(m.Shutdown())

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
        # Drop the serve connections too — every accepted socket, not
        # just the registered ones: clients must *see* the outage (and a
        # successor must be able to rebind the port) rather than staying
        # adopted by a dead incarnation's serve threads.
        with self._lock:
            connections = list(self._serve_conns
                               | set(self._connections.values()))
            self._serve_conns.clear()
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


#: Client reconnect backoff (doubles per attempt, capped).
RECONNECT_BACKOFF_BASE_S = 0.05
RECONNECT_BACKOFF_CAP_S = 1.0


class CoordinatorClient:
    """Per-process client; also duck-types the address-space server
    interface :class:`~repro.core.address_space.NodeHeap` expects
    (``grant_region`` / ``region_bytes``)."""

    def __init__(self, address: Tuple[str, int],
                 region_bytes: int = DEFAULT_REGION_BYTES):
        self.region_bytes = region_bytes
        self._address = address
        self._sock = socket.create_connection(address, timeout=10)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._pending: Dict[int, "queue.SimpleQueue"] = {}
        self._next_request = 1
        self._request_lock = threading.Lock()
        self._directory: "queue.SimpleQueue" = queue.SimpleQueue()
        #: Optional callback for *every* NodeDirectory (including
        #: mid-run rebroadcasts after a node restart) — the live node
        #: wires it to ``Mesh.set_directory``.
        self.on_directory: Optional[Callable[[Dict], None]] = None
        self.shutdown_event = threading.Event()
        self._closed = threading.Event()
        #: Cleared while the coordinator link is down (reconnecting):
        #: requests started in that window fail fast and typed instead
        #: of waiting out a deadline nobody will answer.
        self._connected = threading.Event()
        self._connected.set()
        #: The nodes the last PeerStatus of each said were suspected
        #: dead: a snapshot, replaced (never changed) by the reader.
        self._suspected: FrozenSet[int] = frozenset()
        #: Set the first time any peer is suspected (tests/wait hooks).
        self.peer_failure_event = threading.Event()
        self._heartbeat_stop = threading.Event()
        #: Remembered for automatic re-registration after a reconnect.
        self._registration: Optional[Tuple[int, Tuple[str, int]]] = None
        self.stats: Dict[str, int] = {"coordinator_reconnects": 0}
        threading.Thread(target=self._reader, daemon=True,
                         name="coordinator-client").start()

    def _reader(self) -> None:
        while True:
            try:
                while True:
                    message = recv_frame(self._sock)
                    if isinstance(message, m.NodeDirectory):
                        self._directory.put(message.addresses)
                        callback = self.on_directory
                        if callback is not None:
                            try:
                                callback(message.addresses)
                            except Exception:   # pragma: no cover
                                pass
                    elif isinstance(message,
                                    (m.RegionGrant, m.RegionAnswer)):
                        box = self._pending.pop(message.request_id, None)
                        if box is not None:
                            box.put(message)
                    elif isinstance(message, m.PeerStatus):
                        if message.alive:
                            self._suspected -= {message.node}
                        else:
                            self._suspected |= {message.node}
                            self.peer_failure_event.set()
                    elif isinstance(message, m.Shutdown):
                        self.shutdown_event.set()
            except (ConnectionError, OSError, EOFError):
                pass
            if self._closed.is_set() or self.shutdown_event.is_set():
                self.shutdown_event.set()
                return
            # The coordinator went away mid-run: fail what is waiting
            # (typed, not a deadlock), then try to come back.
            self._connected.clear()
            self._fail_pending(
                ClusterError("coordinator connection lost"))
            if not self._reconnect():
                self.shutdown_event.set()
                return

    def _fail_pending(self, error: Exception) -> None:
        while self._pending:
            try:
                _, box = self._pending.popitem()
            except KeyError:    # pragma: no cover - racing reader
                break
            box.put(error)

    def _reconnect(self) -> bool:
        """Redial the coordinator with backoff until it answers (then
        re-register) or the peer-timeout budget is exhausted."""
        deadline = time.monotonic() + peer_timeout_s()
        backoff = RECONNECT_BACKOFF_BASE_S
        while not self._closed.is_set() \
                and not self.shutdown_event.is_set():
            if time.monotonic() > deadline:
                return False
            try:
                sock = socket.create_connection(self._address,
                                                timeout=2.0)
            except OSError:
                if self._closed.wait(backoff):
                    return False
                backoff = min(backoff * 2.0, RECONNECT_BACKOFF_CAP_S)
                continue
            sock.settimeout(None)
            with self._send_lock:
                old, self._sock = self._sock, sock
            try:
                old.close()
            except OSError:
                pass
            self.stats["coordinator_reconnects"] += 1
            registration = self._registration
            if registration is not None:
                try:
                    self.register(*registration)
                except OSError:
                    continue   # died again mid-handshake; keep dialing
            self._connected.set()
            return True
        return False

    def _request(self, build) -> object:
        if not self._connected.is_set():
            raise ClusterError(
                "coordinator unreachable (reconnecting)")
        with self._request_lock:
            request_id = self._next_request
            self._next_request += 1
        box: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pending[request_id] = box
        try:
            with self._send_lock:
                send_frame(self._sock, build(request_id))
        except OSError as error:
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
        return answer

    def register(self, node: int, address: Tuple[str, int]) -> None:
        self._registration = (node, address)
        with self._send_lock:
            send_frame(self._sock, m.RegisterNode(node, address))

    def wait_directory(self, timeout: Optional[float] = None
                       ) -> Dict[int, Tuple[str, int]]:
        if timeout is None:
            timeout = peer_timeout_s()
        try:
            return self._directory.get(timeout=timeout)
        except queue.Empty:
            raise ClusterError(
                "cluster did not finish registering in time") from None

    # -- failure detection ------------------------------------------------

    def start_heartbeats(self, node: int) -> None:
        """Send :class:`~repro.runtime.messages.Heartbeat` for ``node``
        every third of the grace window, so a single dropped beat never
        triggers suspicion."""
        interval_s = heartbeat_grace_s() / 3.0
        self._beat(node)

        def loop() -> None:
            while not self._heartbeat_stop.wait(interval_s) \
                    and not self.shutdown_event.is_set():
                try:
                    self._beat(node)
                except OSError:
                    # Coordinator outage: the reader thread is already
                    # reconnecting; skip this beat and keep the loop
                    # alive so heartbeats *resume* once it succeeds.
                    continue

        threading.Thread(target=loop, daemon=True,
                         name=f"heartbeat-{node}").start()

    def _beat(self, node: int) -> None:
        with self._send_lock:
            send_frame(self._sock, m.Heartbeat(node))

    def failed_peers(self) -> FrozenSet[int]:
        """Nodes currently suspected dead by the coordinator: a frozen
        snapshot, which a later verdict does not change."""
        return self._suspected

    # -- AddressSpaceServer interface for NodeHeap ------------------------

    def grant_region(self, node: int) -> Region:
        answer = self._request(lambda rid: m.RegionRequest(rid, node))
        return Region(answer.base, answer.size, answer.owner)

    def query_region(self, address: int) -> Optional[Region]:
        answer = self._request(
            lambda rid: m.RegionQuery(rid, -1, address))
        if answer.owner < 0:
            return None
        return Region(answer.base, answer.size, answer.owner)

    def close(self) -> None:
        self._closed.set()
        self._heartbeat_stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
