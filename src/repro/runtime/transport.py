"""Length-framed pickle over TCP, plus the per-node connection mesh.

The frame format is :mod:`repro.runtime.frames`.  Each node keeps one
outgoing connection per peer (dialed lazily) and accepts any number of
incoming connections, each drained by a reader thread that hands decoded
messages to a callback.  The first frame on a dialed connection is a
:class:`~repro.runtime.messages.Hello`; a connection that opens with
anything else is rejected and closed, and so is one that carries a frame
that does not decode (``bad_frames``) — the sender's resend ladder
redials.  The coordinator is a mesh peer too: :meth:`Mesh.control`
names a *control peer*, whose frames bypass the chaos layer and the
``stats`` and whose connections' frames go to a handler of their own.

The write side batches as a reader does (one ``recv`` serves every
frame it completes).  Every outbound frame is encoded by
the thread that sends it and appended to its peer's *outbox*; whichever
thread holds that peer's write lock takes everything queued and writes
it as one batch.  :meth:`Mesh.send` queues and then writes;
:meth:`Mesh.post` only queues, and the frame leaves with the next write
to that peer (any ``send``, or :meth:`Mesh.flush`).  A sender that finds
the write lock held leaves its frame to the holder, which looks at the
outbox again after releasing the lock, so no frame is stranded.

A write begins with one ``send`` that does not wait, and for a thread
that may wait goes on from there (below).  A *reader* thread — the
receiver's callback may send — never waits in a write: once
:attr:`Mesh.on_unwritten` is set, whatever such a thread could not write
at once (no connection yet, the socket full, a batch past the byte
bound, something owed to the chaos layer) stays at the head of the
outbox, in order, and ``on_unwritten(node)`` is called — after the
write lock is released — for some other thread to :meth:`Mesh.flush`.
A frame cut short is never continued: its connection ends with it and
the frame is written again, whole, on the next.

Writes are retried: a broken connection is torn down and redialed with
exponential backoff plus jitter, up to :data:`SEND_RETRIES` attempts, so
a peer that restarts (same address) is transparently reconnected to.  A
batch that still fails is dropped and counted (``dropped_frames``), with
whatever was queued behind it, and the thread that was writing it raises
:class:`~repro.errors.RuntimeTransportError`; the threads whose frames
it carried are not told — loss is owned by the request layer's resend
ladder and reply cache.  Errors retrying cannot fix — an unknown peer,
an oversized or unpicklable frame — are raised where the frame was
handed in.  A mesh that is closing raises
:class:`~repro.errors.RuntimeTransportError` instead of pretending the
send was delivered (``dropped_on_close`` counts the frames).

A mesh may carry a chaos layer
(:class:`~repro.faults.live.LiveFaultInjector`): every outbound frame is
then subject to seeded drop / duplicate / delay / connection-reset
decisions, drawn where the frame is handed in, *before* it reaches the
outbox (a reset or a delay is then owed by the outbox and served by the
thread that next writes it) — see ``docs/CHAOS.md``.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
import weakref
from contextlib import suppress
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RuntimeTransportError
from repro.runtime.frames import (
    _LENGTH,
    _body_length,
    _decode,
    _encode,
    _read_frames,
)
from repro.runtime.messages import PROTOCOL_VERSION, Hello

logger = logging.getLogger(__name__)

#: Queued bytes at which an outbox stops growing: a sender that finds
#: this much waiting writes it (waiting its turn for the write lock if
#: it must) instead of leaving its frame for a later write.
OUTBOX_MAX_BYTES = 64 * 1024

#: Attempts beyond the first to write one batch.
SEND_RETRIES = 5
#: First retry backoff; doubles per attempt, capped, plus up to 25% jitter.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: Connect/handshake timeout for one dial attempt.
DIAL_TIMEOUT_S = 10.0


def send_frame(sock: socket.socket, payload: Any) -> None:
    sock.sendall(_encode(payload))


def recv_frame(sock: socket.socket) -> Any:
    header = _recv_exact(sock, _LENGTH.size)
    return _decode(_recv_exact(sock, _body_length(header)))


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


def _close_listener_at_fork(mesh: "Mesh") -> None:
    """Close ``mesh``'s listening socket in forked children.

    ``os.register_at_fork`` handlers cannot be unregistered, so hold the
    mesh only weakly: a dead one costs a no-op per fork."""
    ref = weakref.ref(mesh)

    def _in_child() -> None:
        owner = ref()
        if owner is not None:
            with suppress(OSError):
                owner._listener.close()

    os.register_at_fork(after_in_child=_in_child)


class _Outbox:
    """Frames encoded and waiting to be written to one peer, and the
    lock that serializes dial + handshake + writes to it (so no data
    frame can beat the Hello onto a fresh connection).  Everything but
    the lock changes under the mesh lock only."""

    __slots__ = ("lock", "stats", "chaos", "frames", "nbytes", "reset",
                 "delay_s")

    def __init__(self, stats: Dict[str, int], chaos: Optional[Any]) -> None:
        self.lock = threading.Lock()
        #: The counters this peer's frames add to, and the chaos layer
        #: they pass (none for a control peer).
        self.stats = stats
        self.chaos = chaos
        self.frames: List[bytes] = []
        self.nbytes = 0
        #: A chaos reset is owed: the next write first poisons the
        #: current connection and redials.
        self.reset = False
        #: Chaos delay owed: the next write first sleeps this long.
        self.delay_s = 0.0


class Mesh:
    """One node's connections: a listener for inbound traffic and, per
    peer, an outbox in front of a lazily dialed outbound connection."""

    def __init__(self, node: int,
                 on_message: Callable[[int, Any], None],
                 port: int = 0,
                 chaos: Optional[Any] = None):
        self.node = node
        self._on_message = on_message
        #: Optional LiveFaultInjector deciding per-frame fates.
        self._chaos = chaos
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", port))
        self._listener.listen(64)
        # A forked child keeps the listening fd open unless it closes
        # it: the port would stay in LISTEN after close(), and a
        # successor could not bind it (a restarted coordinator).
        _close_listener_at_fork(self)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._out: Dict[int, socket.socket] = {}
        #: One outbox per peer in the directory.
        self._outboxes: Dict[int, _Outbox] = {}
        #: Accepted inbound connections and their reader threads,
        #: closed/joined with the mesh so the listening port is
        #: actually released.
        self._in: set = set()
        self._readers: list = []
        #: Peers we connected to at least once: a later dial is a reconnect.
        self._connected_once: set = set()
        self._lock = threading.Lock()
        self._closing = False
        #: Idents of the reader threads, and what a reader calls with a
        #: peer whose outbox it had to leave for another thread to
        #: write.  While unset, a reader writes like any other thread.
        self.reader_ids: set = set()
        self.on_unwritten: Optional[Callable[[int], None]] = None
        #: Jitter source; seeded per node so test runs are reproducible.
        self._rng = random.Random(node)
        #: ``sends``: frames accepted for a peer, one per message.
        #: ``writes``: batches taken off an outbox and written, one
        #: ``sendall`` each (a retried batch adds to ``retries`` only).
        self.stats: Dict[str, int] = {"sends": 0, "writes": 0,
                                      "retries": 0, "reconnects": 0,
                                      "handshake_rejects": 0,
                                      "bad_frames": 0,
                                      "dropped_frames": 0,
                                      "dropped_on_close": 0}
        #: The same counters for control peers' frames, so that
        #: ``stats`` counts the data plane alone.
        self.control_stats: Dict[str, int] = dict.fromkeys(self.stats, 0)
        #: Control peer -> what takes the frames of a connection it
        #: dials here, and what is told when that connection ends.
        self._control: Dict[int, Tuple[Callable[[int, Any], None],
                                       Callable[[], None]]] = {}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"mesh-accept-{node}",
            daemon=True)
        self._accept_thread.start()

    # -- outbound ---------------------------------------------------------

    def set_directory(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Install (or refresh) peer addresses.  A peer whose address
        changed — it died and a replacement re-registered elsewhere —
        has its cached connection torn down so the next write redials."""
        with self._lock:
            changed = [node for node, address in addresses.items()
                       if self._peers.get(node) not in (None, address)]
            self._peers.update(addresses)
            for node in addresses:
                if node not in self._outboxes:
                    self._outboxes[node] = _Outbox(self.stats, self._chaos)
        for node in changed:
            self._invalidate(node)

    def control(self, peer: int, address: Tuple[str, int],
                on_message: Callable[[int, Any], None],
                on_end: Callable[[], None]) -> None:
        """Reach ``peer`` at ``address`` as a control-plane endpoint
        (the coordinator).  Frames to it bypass the chaos layer and are
        counted in :attr:`control_stats`.  A connection it dials here
        hands its frames to ``on_message`` instead of the mesh's
        callback, chosen once at the Hello; when that connection ends,
        this mesh's own connection to ``peer`` is torn down too, so the
        next frame redials, and ``on_end()`` is called."""
        with self._lock:
            self._peers[peer] = address
            self._outboxes[peer] = _Outbox(self.control_stats, None)
            self._control[peer] = (on_message, on_end)

    def send(self, node: int, message: Any) -> None:
        """Send one message to ``node``: queue it, then write what is
        queued — dialing on first use and redialing (with backoff) when
        the connection has broken — unless another thread is already
        writing to ``node`` and will take this frame with it."""
        self.post(node, message)
        if node != self.node:
            self.flush(node)

    def post(self, node: int, message: Any) -> bool:
        """Encode ``message`` and queue it for ``node`` without writing:
        it leaves, in order, with the next write to that peer.  True
        when the outbox was empty, so nothing else is yet bound to
        write it and the caller owes a :meth:`flush`.  Every outbound
        frame passes through here, on the thread that sends it."""
        if node == self.node:
            # Local delivery without touching the network.
            self._on_message(self.node, message)
            return False
        outbox = self._outboxes.get(node)
        if outbox is None:
            raise RuntimeTransportError(
                f"node {self.node}: no address for node {node}")
        duplicate = reset = False
        delay_s = 0.0
        if outbox.chaos is not None:
            decision = outbox.chaos.on_send(node, message)
            if decision.drop:
                # Consumed by the chaos layer: to the caller this looks
                # exactly like loss on the wire.
                return False
            duplicate, reset = decision.duplicate, decision.reset
            delay_s = decision.delay_s
        data = _encode(message)
        with self._lock:
            if self._closing:
                # Pretending this was delivered would let a caller
                # mistake a swallowed send for success; fail typed.
                outbox.stats["dropped_on_close"] += 1
                raise RuntimeTransportError(
                    f"node {self.node}: send to node {node} aborted: "
                    f"mesh is closing")
            was_empty = not outbox.frames
            outbox.frames.append(data)
            outbox.nbytes += len(data)
            if duplicate:
                outbox.frames.append(data)
                outbox.nbytes += len(data)
            if reset:
                outbox.reset = True
            if delay_s:
                outbox.delay_s += delay_s
            outbox.stats["sends"] += 1
        if outbox.nbytes >= OUTBOX_MAX_BYTES:
            self.flush(node)
        return was_empty

    def flush(self, node: int) -> None:
        """Write everything queued for ``node``, unless another thread
        holds its write lock: that thread re-checks the outbox after
        releasing, as this one does, so a frame queued at any moment is
        taken by one of them.  Raises when a batch this thread was
        writing could not be delivered.  A reader thread never waits
        here: what it cannot write at once it leaves queued, and says so
        through ``on_unwritten`` — after it has let go of the write
        lock, or the thread that call wakes could find the lock held and
        leave the frames to this one."""
        outbox = self._outboxes[node]
        failure = None
        written = True
        # Past the byte bound a sender waits for its turn to write (the
        # back-pressure every send used to get from the peer lock).
        while written and outbox.frames and outbox.lock.acquire(
                blocking=outbox.nbytes >= OUTBOX_MAX_BYTES
                and not self._reading()):
            try:
                if failure is None:
                    written = self._write(node, outbox)
                else:
                    # Queued behind a batch that just failed its whole
                    # ladder: lost with it, not retried on this thread.
                    with self._lock:
                        self._discard_locked(outbox, "dropped_frames")
            except RuntimeTransportError as error:
                failure = error
            finally:
                outbox.lock.release()
        if not written:
            self.on_unwritten(node)
        if failure is not None:
            raise failure

    def connected(self, node: int) -> bool:
        """Whether a connection to ``node`` stands (advisory)."""
        return node in self._out

    def _reading(self) -> bool:
        """Whether the calling thread is a reader that must not wait:
        asked only at the points where a write would."""
        return self.on_unwritten is not None \
            and threading.get_ident() in self.reader_ids

    def _write(self, node: int, outbox: _Outbox) -> bool:
        """Take what ``outbox`` holds and write it as one batch.  Caller
        holds the outbox's write lock.  The first ``send`` takes what
        the socket accepts at once; whatever has to be waited for — the
        rest of it, a dial, a retry's backoff, what is owed to the chaos
        layer, a batch past the byte bound — a thread that may wait
        goes through, under the dial → Hello → retry/backoff ladder,
        and a reader leaves queued (False)."""
        with self._lock:
            sock = self._out.get(node)
            if (sock is None or outbox.reset or outbox.delay_s
                    or outbox.nbytes >= OUTBOX_MAX_BYTES) \
                    and self._reading():
                return False
            batch, outbox.frames = outbox.frames, []
            outbox.nbytes = 0
            reset, outbox.reset = outbox.reset, False
            delay_s, outbox.delay_s = outbox.delay_s, 0.0
            if batch:
                outbox.stats["writes"] += 1
        if not batch:
            return True     # another writer took it first
        if delay_s:
            time.sleep(delay_s)
        if reset and sock is not None:
            self._poison(node, sock)
            sock = None
        data = b"".join(batch)
        attempt = 0
        while True:
            sent = 0
            try:
                if sock is None:
                    sock = self._dial(node, outbox)
                try:
                    sent = sock.send(data, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    pass
                if sent < len(data):
                    if self._reading():
                        return self._put_back(node, outbox, batch, sent)
                    sock.sendall(memoryview(data)[sent:])
                return True
            except OSError as error:
                self._invalidate(node)
                if self._reading():
                    return self._put_back(node, outbox, batch, 0)
                sock = None
                attempt += 1
                closing = self._closing
                if closing or attempt > SEND_RETRIES:
                    # Lost here, recovered (or not) by whoever owns the
                    # frames' loss; this thread says so, typed.
                    with self._lock:
                        outbox.stats["dropped_on_close" if closing
                                     else "dropped_frames"] += len(batch)
                    raise RuntimeTransportError(
                        f"node {self.node}: {len(batch)} frame(s) to node "
                        f"{node} dropped: " + (
                            "mesh is closing" if closing else
                            f"{attempt} attempts failed: {error}")
                    ) from error
                with self._lock:
                    outbox.stats["retries"] += 1
                backoff = min(BACKOFF_BASE_S * 2 ** (attempt - 1),
                              BACKOFF_CAP_S)
                time.sleep(backoff * (1.0 + 0.25 * self._rng.random()))

    def _put_back(self, node: int, outbox: _Outbox, batch: List[bytes],
                  sent: int) -> bool:
        """A reader's unfinished write: back to the head of the queue,
        in order, goes every frame that is not out whole.  One cut short
        is never continued, here or on another connection: this one ends
        with it, and the frame is written again whole.  Caller holds the
        outbox's write lock."""
        whole = 0
        while whole + len(batch[0]) <= sent:
            whole += len(batch.pop(0))
        if sent > whole:
            self._invalidate(node)
        with self._lock:
            outbox.frames[:0] = batch
            outbox.nbytes += sum(map(len, batch))
        return False

    def _discard_locked(self, outbox: _Outbox, counter: str) -> None:
        """Drop what ``outbox`` holds, counted.  Caller holds the mesh
        lock."""
        outbox.stats[counter] += len(outbox.frames)
        outbox.frames = []
        outbox.nbytes = 0

    def _poison(self, node: int, sock: socket.socket) -> None:
        """A chaos reset: poison the connection to ``node`` with a
        truncated frame, then tear it down — the receiver sees a broken
        frame and drops the connection, the write in hand redials."""
        with suppress(OSError):
            # Header promising 64 bytes, followed by silence.
            sock.sendall(_LENGTH.pack(64) + b"\x00" * 7)
        self._invalidate(node)

    def _dial(self, node: int, outbox: _Outbox) -> socket.socket:
        """A fresh connection to ``node``.  Caller holds the outbox's
        write lock; the Hello handshake completes *before* the socket
        is published, so no data frame can be on the wire first."""
        with self._lock:
            address = self._peers[node]
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
                outbox.stats["reconnects"] += 1
            else:
                self._connected_once.add(node)
        return sock

    def _invalidate(self, node: int) -> None:
        """Tear down a broken outgoing connection so the next write
        redials."""
        with self._lock:
            sock = self._out.pop(node, None)
        if sock is not None:
            with suppress(OSError):
                sock.close()

    # -- inbound ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
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
        self.reader_ids.add(threading.get_ident())
        on_end = None
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
            on_message, on_end = self._control.get(
                peer, (self._on_message, None))
            for message in frames:
                on_message(peer, message)
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
            self.reader_ids.discard(threading.get_ident())
            with self._lock:
                self._in.discard(conn)
            conn.close()
            if on_end is not None:
                self._invalidate(peer)
                on_end()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._closing = True
        with suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with suppress(OSError):
            self._listener.close()
        if self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=1.0)
        with self._lock:
            for sock in list(self._out.values()) + list(self._in):
                # shutdown (not just close) wakes any reader thread
                # blocked in recv, so the kernel socket is actually
                # released and the port is free for a restart.
                with suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
                with suppress(OSError):
                    sock.close()
            self._out.clear()
            self._in.clear()
            for outbox in self._outboxes.values():
                self._discard_locked(outbox, "dropped_on_close")
            readers = list(self._readers)
            self._readers.clear()
        # A blocked recv holds the kernel socket until the thread
        # returns; wait for the readers so a successor can rebind.
        for reader in readers:
            if reader is not threading.current_thread():
                reader.join(timeout=1.0)
