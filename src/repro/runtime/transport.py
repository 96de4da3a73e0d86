"""Length-framed pickle over TCP, plus the per-node connection mesh.

Framing: 4-byte big-endian length, then the pickle.  Each node keeps one
outgoing connection per peer (dialed lazily) and accepts any number of
incoming connections, each drained by a reader thread that hands decoded
messages to a callback.  A reader fills one reusable buffer per
connection and decodes every complete frame it holds before the next
``recv``, so pipelined frames cost one syscall, not two each.  The first
frame on a dialed connection is a
:class:`~repro.runtime.messages.Hello`; a connection that opens with
anything else is rejected and closed, and so is one that carries a frame
that does not decode (``bad_frames``) — the sender's resend ladder
redials.

Sends are retried: a broken connection is torn down and redialed with
exponential backoff plus jitter, up to :data:`SEND_RETRIES` attempts, so
a peer that restarts (same address) is transparently reconnected to.
Errors retrying cannot fix — an unknown peer, an oversized or
unpicklable frame — propagate immediately.  A mesh that is closing
raises :class:`~repro.errors.RuntimeTransportError` instead of
pretending the send was delivered (``dropped_on_close`` counts them).

A mesh may carry a chaos layer
(:class:`~repro.faults.live.LiveFaultInjector`): every outbound frame is
then subject to seeded drop / duplicate / delay / connection-reset
decisions *before* it reaches the wire — see ``docs/CHAOS.md``.
"""

from __future__ import annotations

import logging
import pickle
import random
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import RuntimeTransportError
from repro.runtime.messages import PROTOCOL_VERSION, Hello

logger = logging.getLogger(__name__)

_LENGTH = struct.Struct(">I")

#: Ceiling on a single frame (a moved object group); prevents a corrupt
#: length prefix from triggering a giant allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Size of a reader's reusable receive buffer.  A frame that does not
#: fit is read into a buffer of its own, dropped once decoded.
READ_BUFFER_BYTES = 16 * 1024

#: Attempts beyond the first for one :meth:`Mesh.send`.
SEND_RETRIES = 5
#: First retry backoff; doubles per attempt, capped, plus up to 25% jitter.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: Connect/handshake timeout for one dial attempt.
DIAL_TIMEOUT_S = 10.0


def send_frame(sock: socket.socket, payload: Any) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise RuntimeTransportError(
            f"frame of {len(data)} bytes exceeds limit")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> Any:
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RuntimeTransportError(f"oversized frame: {length} bytes")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_into_exact(sock: socket.socket, view: memoryview) -> None:
    while view:
        received = sock.recv_into(view)
        if not received:
            raise ConnectionError("peer closed the connection")
        view = view[received:]


def _decode(frame: memoryview) -> Any:
    """Unpickle one frame body.  Bytes that do not decode can raise
    nearly anything (``UnpicklingError``, ``AttributeError``,
    ``ImportError``, ``IndexError``, ``EOFError``...), so all of it is
    reported as one typed transport error."""
    try:
        return pickle.loads(frame)
    except Exception as error:
        raise RuntimeTransportError(
            f"undecodable frame of {len(frame)} bytes: "
            f"{type(error).__name__}: {error}") from error


def _read_frames(conn: socket.socket) -> Iterator[Any]:
    """Decoded frames of one inbound connection, in order, until the
    peer closes it.  One ``recv_into`` a reusable buffer per batch:
    every complete frame already held is yielded before the next
    syscall."""
    view = memoryview(bytearray(READ_BUFFER_BYTES))
    start = end = 0            # unread bytes are view[start:end]
    while True:
        while end - start >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(view, start)
            if length > MAX_FRAME_BYTES:
                raise RuntimeTransportError(
                    f"oversized frame: {length} bytes")
            body = start + _LENGTH.size
            if body + length <= end:
                frame = view[body:body + length]
                start = body + length
            elif _LENGTH.size + length > len(view):
                # Larger than the buffer: give it one of its own,
                # read exactly to its end, and carry on in ours.
                frame = memoryview(bytearray(length))
                frame[:end - body] = view[body:end]
                _recv_into_exact(conn, frame[end - body:])
                start = end = 0
            else:
                break
            yield _decode(frame)
        if start == end:
            start = end = 0
        elif start:
            # A partial frame at the tail: slide it to the front so
            # the rest of it has room.
            view[:end - start] = view[start:end]
            start, end = 0, end - start
        received = conn.recv_into(view[end:])
        if not received:
            return
        end += received


class Mesh:
    """One node's connections: a listener for inbound traffic and a lazy
    dial-out table for outbound sends."""

    def __init__(self, node: int,
                 on_message: Callable[[int, Any], None],
                 host: str = "127.0.0.1",
                 port: int = 0,
                 chaos: Optional[Any] = None):
        self.node = node
        self._on_message = on_message
        #: Optional LiveFaultInjector deciding per-frame fates.
        self._chaos = chaos
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._out: Dict[int, socket.socket] = {}
        #: Accepted inbound connections and their reader threads,
        #: closed/joined with the mesh so the listening port is
        #: actually released.
        self._in: set = set()
        self._readers: list = []
        #: Per-peer lock serializing dial + handshake + frame writes, so
        #: no data frame can beat the Hello onto a fresh connection.
        self._peer_locks: Dict[int, threading.Lock] = {}
        #: Peers we connected to at least once: a later dial is a reconnect.
        self._connected_once: set = set()
        self._lock = threading.Lock()
        self._closing = threading.Event()
        #: Jitter source; seeded per node so test runs are reproducible.
        self._rng = random.Random(node)
        self.stats: Dict[str, int] = {"sends": 0, "retries": 0,
                                      "reconnects": 0,
                                      "handshake_rejects": 0,
                                      "bad_frames": 0,
                                      "dropped_on_close": 0}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"mesh-accept-{node}",
            daemon=True)
        self._accept_thread.start()

    # -- outbound ---------------------------------------------------------

    def set_directory(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Install (or refresh) peer addresses.  A peer whose address
        changed — it died and a replacement re-registered elsewhere —
        has its cached connection torn down so the next send redials."""
        with self._lock:
            changed = [node for node, address in addresses.items()
                       if self._peers.get(node) not in (None, address)]
            self._peers.update(addresses)
        for node in changed:
            self._invalidate(node)

    def send(self, node: int, message: Any) -> None:
        """Send one message to ``node``, dialing on first use and
        redialing (with backoff) when the connection has broken."""
        if node == self.node:
            # Local delivery without touching the network.
            self._on_message(self.node, message)
            return
        copies = 1
        if self._chaos is not None:
            decision = self._chaos.on_send(node, message)
            if decision.drop:
                # Consumed by the chaos layer: to the caller this looks
                # exactly like loss on the wire.
                return
            if decision.delay_s:
                time.sleep(decision.delay_s)
            if decision.reset:
                self._chaos_reset(node)
            if decision.duplicate:
                copies = 2
        lock = self._peer_lock(node)
        attempt = 0
        while True:
            try:
                with lock:
                    sock = self._connection_locked(node)
                    for _ in range(copies):
                        send_frame(sock, message)
                with self._lock:
                    self.stats["sends"] += 1
                return
            except (RuntimeTransportError, pickle.PicklingError,
                    TypeError, AttributeError):
                # Unknown peer, oversized or unpicklable frame: a retry
                # cannot change the outcome.
                raise
            except OSError as error:
                self._invalidate(node)
                if self._closing.is_set():
                    # Pretending this was delivered would let a caller
                    # mistake a swallowed send for success; fail typed.
                    with self._lock:
                        self.stats["dropped_on_close"] += 1
                    raise RuntimeTransportError(
                        f"node {self.node}: send to node {node} aborted: "
                        f"mesh is closing") from error
                attempt += 1
                if attempt > SEND_RETRIES:
                    raise RuntimeTransportError(
                        f"node {self.node}: send to node {node} failed "
                        f"after {attempt} attempts: {error}") from error
                with self._lock:
                    self.stats["retries"] += 1
                backoff = min(BACKOFF_BASE_S * 2 ** (attempt - 1),
                              BACKOFF_CAP_S)
                time.sleep(backoff * (1.0 + 0.25 * self._rng.random()))

    def _chaos_reset(self, node: int) -> None:
        """Poison the current connection to ``node`` with a truncated
        frame, then tear it down: the receiver sees a broken frame and
        drops the connection, the next send here redials."""
        with self._lock:
            sock = self._out.get(node)
        if sock is None:
            return
        try:
            # Header promising 64 bytes, followed by silence.
            sock.sendall(_LENGTH.pack(64) + b"\x00" * 7)
        except OSError:
            pass
        self._invalidate(node)

    def _peer_lock(self, node: int) -> threading.Lock:
        with self._lock:
            lock = self._peer_locks.get(node)
            if lock is None:
                lock = self._peer_locks[node] = threading.Lock()
            return lock

    def _connection_locked(self, node: int) -> socket.socket:
        """The live connection to ``node``, dialing if needed.  Caller
        holds the peer lock; the Hello handshake completes *before* the
        socket is published, so no concurrent send can put a data frame
        on the wire first."""
        with self._lock:
            sock = self._out.get(node)
            address = self._peers.get(node)
        if sock is not None:
            return sock
        if address is None:
            raise RuntimeTransportError(
                f"node {self.node}: no address for node {node}")
        sock = socket.create_connection(address, timeout=DIAL_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_frame(sock, Hello(self.node))
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)
        with self._lock:
            self._out[node] = sock
            if node in self._connected_once:
                self.stats["reconnects"] += 1
            else:
                self._connected_once.add(node)
        return sock

    def _invalidate(self, node: int) -> None:
        """Tear down a broken outgoing connection so the next send
        redials."""
        with self._lock:
            sock = self._out.pop(node, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- inbound ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(target=self._reader_loop,
                                      args=(conn,),
                                      name=f"mesh-reader-{self.node}",
                                      daemon=True)
            with self._lock:
                self._in.add(conn)
                # Reconnect churn (peer restarts, chaos resets) retires
                # readers continuously; prune the finished ones instead
                # of accumulating every thread ever started until
                # close().
                self._readers = [thread for thread in self._readers
                                 if thread.is_alive()]
                self._readers.append(reader)
            reader.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            frames = _read_frames(conn)
            hello = next(frames, None)
            if hello is None:
                return
            if not isinstance(hello, Hello) or \
                    hello.version != PROTOCOL_VERSION:
                # A connection that does not open with a current-version
                # Hello is not a mesh peer: drop it loudly rather than
                # attributing its frames to a made-up node id.
                with self._lock:
                    self.stats["handshake_rejects"] += 1
                logger.warning(
                    "node %d: %s", self.node,
                    RuntimeTransportError(
                        f"rejected inbound connection: first frame was "
                        f"{hello!r}, expected Hello(version="
                        f"{PROTOCOL_VERSION})"))
                return
            peer = hello.node
            for message in frames:
                self._on_message(peer, message)
        except RuntimeTransportError as error:
            # An oversized or undecodable frame: the stream cannot be
            # trusted past it.  Dropping the connection turns it into
            # loss, which the sender's resend ladder recovers from.
            with self._lock:
                self.stats["bad_frames"] += 1
            logger.warning("node %d: dropping inbound connection: %s",
                           self.node, error)
        except OSError:
            return      # peer reset, or the mesh is closing
        finally:
            with self._lock:
                self._in.discard(conn)
            conn.close()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=1.0)
        with self._lock:
            for sock in list(self._out.values()) + list(self._in):
                try:
                    # shutdown (not just close) wakes any reader thread
                    # blocked in recv, so the kernel socket is actually
                    # released and the port is free for a restart.
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
            self._out.clear()
            self._in.clear()
            readers = list(self._readers)
            self._readers.clear()
        # A blocked recv holds the kernel socket until the thread
        # returns; wait for the readers so a successor can rebind.
        for reader in readers:
            if reader is not threading.current_thread():
                reader.join(timeout=1.0)
