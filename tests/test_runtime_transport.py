"""Unit tests for the live runtime's transport and message layer."""

import dataclasses
import pickle
import queue
import socket
import sys
import threading
import time

import pytest

from repro.errors import RuntimeTransportError
from repro.faults.live import LiveDecision, LiveFaultInjector, decide_frame
from repro.faults.plan import FaultPlan
from repro.runtime import messages as m
from repro.runtime.messages import Hello, InvokeMsg, ResultMsg
from repro.runtime.frames import (
    _LENGTH,
    MAX_FRAME_BYTES,
    READ_BUFFER_BYTES,
    _decode,
    _encode as _frame,
    _read_frames,
)
from repro.runtime.transport import Mesh, recv_frame, send_frame
from repro.runtime.workers import _WorkerPool


def socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    conn, _ = server.accept()
    server.close()
    return client, conn


class TestFraming:
    def test_roundtrip(self):
        a, b = socket_pair()
        try:
            send_frame(a, {"x": [1, 2, 3], "y": "hello"})
            assert recv_frame(b) == {"x": [1, 2, 3], "y": "hello"}
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_order(self):
        a, b = socket_pair()
        try:
            for i in range(10):
                send_frame(a, i)
            assert [recv_frame(b) for _ in range(10)] == list(range(10))
        finally:
            a.close()
            b.close()

    def test_large_frame(self):
        a, b = socket_pair()
        payload = b"x" * (4 << 20)
        try:
            writer = threading.Thread(target=send_frame, args=(a, payload))
            writer.start()
            assert recv_frame(b) == payload
            writer.join()
        finally:
            a.close()
            b.close()

    def test_peer_close_raises(self):
        a, b = socket_pair()
        a.close()
        with pytest.raises((ConnectionError, OSError)):
            recv_frame(b)
        b.close()

    def test_message_dataclasses_roundtrip(self):
        a, b = socket_pair()
        message = InvokeMsg(7, 0, 0x1000, "add", (5,), {}, trace=(1, 2))
        try:
            send_frame(a, message)
            got = recv_frame(b)
            assert got == message
        finally:
            a.close()
            b.close()


#: One instance of every message class, defaults left to default, and
#: an invocation that names its thread.
SAMPLES = [
    m.Hello(3),
    m.InvokeMsg(7, 0, 0x1100000, "add", (1, "two"), {"k": [3]}, trace=(0, 2)),
    m.InvokeMsg(8, 1, 0x1100000, "add", (1,), {}, (1,), (0, -4242)),
    m.ResultMsg(7, True, {"value": 1}),
    m.ResultMsg(8, False, None, KeyError("gone")),
    m.LocationHint(0x1100000, 2),
    m.CreateMsg(9, 0, dict, ((("a", 1),),), {}),
    m.MoveMsg(10, 0, 0x1100000, 2),
    m.InstallMsg(11, 1, {0x1100000: [1, 2, 3]}, ((0x1100000, 0x1100040),),
                 replica=True),
    m.LocateMsg(12, 0, 0x1100000, trace=(0,)),
    m.ControlMsg(14, 0, 0x1100000, "attach", 0x1100040),
    m.Heartbeat(("127.0.0.1", 4000)),
    m.PeerStatus(2, alive=False, silence_s=1.5),
    m.NodeDirectory({0: ("127.0.0.1", 4000), 1: ("127.0.0.1", 4001)}),
    m.RegionRequest(1),
    m.RegionQuery(2, 0x1100000),
    m.RegionAnswer(2, 0x1000000, 0x100000, 2),
    m.Shutdown(),
]


def _same(got, sent) -> bool:
    """Equal and of the same type (a named tuple equals any tuple with
    its fields; exceptions compare by identity)."""
    if isinstance(sent, m.ResultMsg) and sent.error is not None:
        return type(got) is type(sent) and got[:3] == sent[:3] \
            and repr(got.error) == repr(sent.error)
    return type(got) is type(sent) and got == sent


@dataclasses.dataclass(frozen=True)
class ResultMsgV1:
    """What protocol version 1 put on the wire: the pickled instance of
    a dataclass."""

    request_id: int
    ok: bool
    value: object = None
    error: object = None


@dataclasses.dataclass(frozen=True)
class HelloV1:
    node: int
    version: int = 1


#: Frame bodies that unpickle but are not frames of this protocol.
MALFORMED = {
    "bare object": pickle.dumps({"any": "object"}),
    "bare message": pickle.dumps(ResultMsg(9, True, "x")),
    "v1 dataclass": pickle.dumps(ResultMsgV1(9, True, "x")),
    "not a tuple": pickle.dumps([2, (9, True, "x", None)]),
    "three items": pickle.dumps((2, (9, True, "x", None), 0)),
    "code past the end": pickle.dumps((len(m.KINDS), ())),
    "code below raw": pickle.dumps((-2, ())),
    "code not an int": pickle.dumps(("2", (9, True, "x", None))),
    "code a bool": pickle.dumps((True, (9, True, "x", None))),
    "too few fields": pickle.dumps((2, (9, True, "x"))),
    "too many fields": pickle.dumps((2, (9, True, "x", None, 0))),
    "fields a list": pickle.dumps((2, [9, True, "x", None])),
    "fields a message": pickle.dumps((2, ResultMsg(9, True, "x"))),
}


class TestWireForm:
    def test_samples_cover_every_kind(self):
        assert {type(sample) for sample in SAMPLES} == set(m.KINDS)
        assert len(set(m.KINDS)) == len(m.KINDS)

    def test_every_kind_roundtrips_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            for sample in SAMPLES:
                send_frame(a, sample)
                assert _same(recv_frame(b), sample)
        finally:
            a.close()
            b.close()

    def test_every_kind_roundtrips_dribbled_through_the_reader(self):
        a, b = socket.socketpair()
        stream = b"".join(_frame(sample) for sample in SAMPLES)

        def dribble():
            for index in range(len(stream)):
                a.sendall(stream[index:index + 1])
            a.close()

        writer = threading.Thread(target=dribble, daemon=True)
        writer.start()
        try:
            b.settimeout(10)
            got = list(_read_frames(b))
        finally:
            writer.join(timeout=10)
            b.close()
        assert len(got) == len(SAMPLES)
        assert all(_same(*pair) for pair in zip(got, SAMPLES))

    def test_a_message_travels_as_its_code_and_plain_fields(self):
        """No class goes by name: the body is ``(code, fields)``."""
        for sample in SAMPLES:
            body = pickle.loads(_frame(sample)[_LENGTH.size:])
            assert type(body) is tuple and type(body[1]) is tuple
            assert m.KINDS[body[0]] is type(sample)
            assert b"repro" not in _frame(sample)
        reply = _frame(ResultMsg(7, True, 1))
        assert len(reply) < 4 + len(pickle.dumps(ResultMsg(7, True, 1)))

    @pytest.mark.parametrize("payload", [
        "ping", {"any": "object"}, bytes(64 * 1024), 7, None, (1, 2),
        (0, (5, 2)), [ResultMsg(1, True)]],
        ids=lambda payload: type(payload).__name__)
    def test_a_payload_that_is_no_message_still_travels(self, payload):
        a, b = socket.socketpair()
        try:
            writer = threading.Thread(target=send_frame, args=(a, payload))
            writer.start()
            got = recv_frame(b)
            writer.join(timeout=10)
            assert type(got) is type(payload) and got == payload
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("name", MALFORMED)
    def test_decode_rejects_what_is_not_a_frame_of_this_protocol(
            self, name):
        with pytest.raises(RuntimeTransportError):
            _decode(MALFORMED[name])
        a, b = socket.socketpair()
        try:
            a.sendall(_raw_frame(MALFORMED[name]))
            with pytest.raises(RuntimeTransportError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestMesh:
    def test_two_meshes_exchange_messages(self):
        inbox_a, inbox_b = queue.SimpleQueue(), queue.SimpleQueue()
        mesh_a = Mesh(0, lambda peer, msg: inbox_a.put((peer, msg)))
        mesh_b = Mesh(1, lambda peer, msg: inbox_b.put((peer, msg)))
        try:
            directory = {0: mesh_a.address, 1: mesh_b.address}
            mesh_a.set_directory(directory)
            mesh_b.set_directory(directory)
            mesh_a.send(1, ResultMsg(1, True, "ping"))
            peer, message = inbox_b.get(timeout=5)
            assert peer == 0
            assert message.value == "ping"
            mesh_b.send(0, ResultMsg(2, True, "pong"))
            peer, message = inbox_a.get(timeout=5)
            assert peer == 1
            assert message.value == "pong"
        finally:
            mesh_a.close()
            mesh_b.close()

    def test_bare_payloads_cross_a_mesh(self):
        """What AmberBench's transport stage sends: not a message."""
        inbox = queue.SimpleQueue()
        mesh_a = Mesh(0, lambda peer, msg: None)
        mesh_b = Mesh(1, lambda peer, msg: inbox.put((peer, msg)))
        try:
            mesh_a.set_directory({0: mesh_a.address, 1: mesh_b.address})
            for payload in ("ping", {"any": "object"}, bytes(64 * 1024)):
                mesh_a.send(1, payload)
                assert inbox.get(timeout=5) == (0, payload)
        finally:
            mesh_a.close()
            mesh_b.close()

    def test_self_send_is_local(self):
        inbox = queue.SimpleQueue()
        mesh = Mesh(0, lambda peer, msg: inbox.put((peer, msg)))
        try:
            mesh.send(0, "loopback")
            peer, message = inbox.get(timeout=1)
            assert (peer, message) == (0, "loopback")
        finally:
            mesh.close()

    def test_unknown_peer_rejected(self):
        mesh = Mesh(0, lambda peer, msg: None)
        try:
            with pytest.raises(RuntimeTransportError):
                mesh.send(7, "nope")
        finally:
            mesh.close()

    def test_many_concurrent_sends(self):
        inbox = queue.SimpleQueue()
        mesh_a = Mesh(0, lambda peer, msg: None)
        mesh_b = Mesh(1, lambda peer, msg: inbox.put(msg))
        try:
            directory = {0: mesh_a.address, 1: mesh_b.address}
            mesh_a.set_directory(directory)
            mesh_b.set_directory(directory)
            threads = [threading.Thread(
                target=lambda base=i: [mesh_a.send(1, base * 100 + j)
                                       for j in range(20)])
                for i in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            got = {inbox.get(timeout=5) for _ in range(100)}
            assert len(got) == 100
        finally:
            mesh_a.close()
            mesh_b.close()


class TestMeshHandshake:
    def test_hello_precedes_data_under_concurrent_sends(self):
        """Regression: the dialer used to publish the socket before
        sending Hello, so a concurrent send() could put a data frame on
        the wire first and the receiver would misattribute the whole
        connection.  Hammer a fresh dial from many threads: every
        message must arrive attributed to the true peer."""
        for _ in range(5):
            inbox = queue.SimpleQueue()
            mesh_a = Mesh(3, lambda peer, msg: None)
            mesh_b = Mesh(1, lambda peer, msg: inbox.put((peer, msg)))
            try:
                directory = {3: mesh_a.address, 1: mesh_b.address}
                mesh_a.set_directory(directory)
                mesh_b.set_directory(directory)
                barrier = threading.Barrier(8)

                def blast(tag):
                    barrier.wait()
                    for j in range(10):
                        mesh_a.send(1, (tag, j))

                threads = [threading.Thread(target=blast, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for _ in range(80):
                    peer, _ = inbox.get(timeout=5)
                    assert peer == 3
            finally:
                mesh_a.close()
                mesh_b.close()

    def test_non_hello_first_frame_rejected(self):
        """Regression: a connection whose first frame is not a Hello
        used to be kept open with its messages attributed to peer -1;
        now it is rejected and closed."""
        inbox = queue.SimpleQueue()
        mesh = Mesh(0, lambda peer, msg: inbox.put((peer, msg)))
        try:
            raw = socket.create_connection(mesh.address, timeout=5)
            send_frame(raw, ResultMsg(1, True, "sneaky"))
            send_frame(raw, ResultMsg(2, True, "more"))
            # The mesh must close the connection (EOF, or RST if our
            # second frame was still unread)...
            raw.settimeout(5)
            try:
                assert raw.recv(1) == b""
            except ConnectionError:
                pass
            raw.close()
            # ...deliver nothing from it, and count the reject.
            with pytest.raises(queue.Empty):
                inbox.get(timeout=0.2)
            assert mesh.stats["handshake_rejects"] == 1
        finally:
            mesh.close()

    def test_v1_hello_rejected(self):
        """A version 1 peer opens with the pickled instance of a Hello
        dataclass: not a frame of this protocol, so the connection ends
        before anything is attributed to it."""
        inbox = queue.SimpleQueue()
        mesh = Mesh(0, lambda peer, msg: inbox.put((peer, msg)))
        try:
            raw = socket.create_connection(mesh.address, timeout=5)
            raw.sendall(_raw_frame(pickle.dumps(HelloV1(9)))
                        + _frame(ResultMsg(1, True, "sneaky")))
            _assert_dropped(raw)
            raw.close()
            with pytest.raises(queue.Empty):
                inbox.get(timeout=0.2)
            assert mesh.stats["bad_frames"] == 1
            # The same fields in a current frame: a version mismatch.
            raw = socket.create_connection(mesh.address, timeout=5)
            raw.sendall(_frame(Hello(9, version=1)))
            _assert_dropped(raw)
            raw.close()
            assert mesh.stats["handshake_rejects"] == 1
        finally:
            mesh.close()

    def test_a_version_3_hello_rejected(self):
        """Protocol 4 added ``InvokeMsg.thread``: a version 3 peer is
        turned away at the handshake."""
        mesh = Mesh(0, lambda peer, msg: None)
        try:
            raw = socket.create_connection(mesh.address, timeout=5)
            raw.sendall(_frame(Hello(9, version=3)))
            _assert_dropped(raw)
            raw.close()
            assert mesh.stats["handshake_rejects"] == 1
        finally:
            mesh.close()

    def test_version_mismatch_rejected(self):
        inbox = queue.SimpleQueue()
        mesh = Mesh(0, lambda peer, msg: inbox.put((peer, msg)))
        try:
            raw = socket.create_connection(mesh.address, timeout=5)
            send_frame(raw, Hello(9, version=999))
            raw.settimeout(5)
            try:
                assert raw.recv(1) == b""
            except ConnectionError:
                pass
            raw.close()
            assert mesh.stats["handshake_rejects"] == 1
        finally:
            mesh.close()


def _raw_frame(body: bytes) -> bytes:
    return _LENGTH.pack(len(body)) + body


def _assert_dropped(raw: socket.socket) -> None:
    """The mesh closed its end (EOF, or RST if bytes were unread)."""
    raw.settimeout(5)
    try:
        assert raw.recv(1) == b""
    except ConnectionError:
        pass


class TestReaderFraming:
    """The batched reader against a hand-driven socket: however the
    bytes are cut up, frames come out whole and in order.  Frames are
    built by the transport's own ``_encode``."""

    @pytest.fixture
    def inbound(self):
        inbox = queue.SimpleQueue()
        mesh = Mesh(0, lambda peer, msg: inbox.put((peer, msg)))
        raw = socket.create_connection(mesh.address, timeout=5)
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            yield mesh, raw, inbox
        finally:
            raw.close()
            mesh.close()

    def test_frames_dribbled_one_byte_at_a_time(self, inbound):
        _, raw, inbox = inbound
        stream = _frame(Hello(5)) + b"".join(
            _frame(ResultMsg(i, True, f"v{i}")) for i in range(5))
        for index in range(len(stream)):
            raw.sendall(stream[index:index + 1])
        for i in range(5):
            peer, message = inbox.get(timeout=5)
            assert (peer, message.request_id, message.value) == \
                (5, i, f"v{i}")

    def test_many_frames_in_one_sendall(self, inbound):
        """More than one buffer's worth, so frames straddle refills."""
        _, raw, inbox = inbound
        one = len(_frame(ResultMsg(0, True, "x" * 40)))
        count = 3 * READ_BUFFER_BYTES // one
        raw.sendall(_frame(Hello(5)) + b"".join(
            _frame(ResultMsg(i, True, "x" * 40)) for i in range(count)))
        got = [inbox.get(timeout=5)[1].request_id for _ in range(count)]
        assert got == list(range(count))

    def test_frame_larger_than_the_buffer(self, inbound):
        """A 64 KiB argument between small frames, all in one write:
        the big frame's tail must not swallow its successor."""
        _, raw, inbox = inbound
        blob = bytes(range(256)) * 256
        assert len(blob) > READ_BUFFER_BYTES
        raw.sendall(_frame(Hello(5))
                    + _frame(ResultMsg(1, True, "before"))
                    + _frame(InvokeMsg(2, 5, 0x1000, "put", (blob,), {}))
                    + _frame(ResultMsg(3, True, "after")))
        assert inbox.get(timeout=5)[1].value == "before"
        assert inbox.get(timeout=5)[1].args == (blob,)
        assert inbox.get(timeout=5)[1].value == "after"

    def test_oversized_length_prefix_mid_stream(self, inbound):
        mesh, raw, inbox = inbound
        raw.sendall(_frame(Hello(5))
                    + _frame(ResultMsg(1, True, "before"))
                    + _LENGTH.pack(MAX_FRAME_BYTES + 1)
                    + _frame(ResultMsg(2, True, "after")))
        assert inbox.get(timeout=5)[1].value == "before"
        _assert_dropped(raw)
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.2)
        assert mesh.stats["bad_frames"] == 1

    @pytest.mark.parametrize("body", [
        b"not a pickle",                        # UnpicklingError
        b"cos\nno_such_function\n.",            # AttributeError
        b"cno_such_module_xyz\nthing\n.",       # ImportError
        b"coperator\ngetitem\n(]K\x05tR.",      # IndexError
        pickle.dumps(ResultMsg(9, True, "x"))[:-5],   # truncated
        b"",                                    # EOFError
    ])
    def test_undecodable_frame_drops_the_connection(self, inbound, body):
        """Frames before the bad one are delivered; none after it."""
        self._bad_frame_drops_the_connection(inbound, body)

    def test_a_version_3_invoke_is_a_bad_frame(self, inbound):
        """A version 3 ``InvokeMsg`` had seven fields (no ``thread``)."""
        code = m.KINDS.index(InvokeMsg)
        self._bad_frame_drops_the_connection(inbound, pickle.dumps(
            (code, (2, 5, 0x1000, "put", (1,), {}, ()))))

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_frame_drops_the_connection(self, inbound, name):
        """It unpickles, but it is not ``(code, fields)`` of a known
        message: same verdict as bytes that do not."""
        self._bad_frame_drops_the_connection(inbound, MALFORMED[name])

    def _bad_frame_drops_the_connection(self, inbound, body):
        mesh, raw, inbox = inbound
        raw.sendall(_frame(Hello(5))
                    + _frame(ResultMsg(1, True, "before"))
                    + _raw_frame(body)
                    + _frame(ResultMsg(2, True, "after")))
        assert inbox.get(timeout=5)[1].value == "before"
        _assert_dropped(raw)
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.2)
        assert mesh.stats["bad_frames"] == 1
        deadline = time.monotonic() + 5
        while mesh._in and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not mesh._in

    def test_truncated_frame_then_close_is_silent(self, inbound):
        """What a chaos reset leaves behind: a header promising more
        than ever arrives.  A broken connection, not a bad frame."""
        mesh, raw, inbox = inbound
        raw.sendall(_frame(Hello(5)) + _frame(ResultMsg(1, True, "ok"))
                    + _LENGTH.pack(64) + b"\x00" * 7)
        raw.shutdown(socket.SHUT_WR)
        assert inbox.get(timeout=5)[1].value == "ok"
        _assert_dropped(raw)
        assert mesh.stats["bad_frames"] == 0


class TestMeshReconnect:
    def test_send_redials_after_peer_restart(self):
        """A peer that dies and comes back on the same address is
        transparently redialed by the retry loop."""
        inbox = queue.SimpleQueue()
        mesh_a = Mesh(0, lambda peer, msg: None)
        mesh_b = Mesh(1, lambda peer, msg: inbox.put((peer, msg)))
        port = mesh_b.address[1]
        directory = {0: mesh_a.address, 1: mesh_b.address}
        mesh_a.set_directory(directory)
        try:
            mesh_a.send(1, "before")
            assert inbox.get(timeout=5) == (0, "before")
            mesh_b.close()
            mesh_b = Mesh(1, lambda peer, msg: inbox.put((peer, msg)),
                          port=port)
            # Early sends may vanish into the dead socket's buffer (TCP
            # cannot flag that); keep sending — the retry loop must
            # invalidate, redial, and start delivering.
            delivered = None
            for i in range(40):
                mesh_a.send(1, f"after-{i}")
                try:
                    delivered = inbox.get(timeout=0.25)
                    break
                except queue.Empty:
                    continue
            assert delivered is not None
            assert delivered[0] == 0
            assert mesh_a.stats["reconnects"] >= 1
        finally:
            mesh_a.close()
            mesh_b.close()

    def test_send_fails_cleanly_when_peer_stays_dead(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.transport.SEND_RETRIES", 2)
        monkeypatch.setattr("repro.runtime.transport.BACKOFF_BASE_S", 0.01)
        mesh_b = Mesh(1, lambda peer, msg: None)
        dead_address = mesh_b.address
        mesh_b.close()
        mesh_a = Mesh(0, lambda peer, msg: None)
        mesh_a.set_directory({1: dead_address})
        try:
            with pytest.raises(RuntimeTransportError):
                mesh_a.send(1, "into the void")
            assert mesh_a.stats["retries"] == 2
        finally:
            mesh_a.close()


class _Scripted:
    """A chaos layer whose fates are given, one per outbound frame."""

    def __init__(self, *decisions):
        self._decisions = list(decisions)

    def on_send(self, dst, message):
        return self._decisions.pop(0) if self._decisions else LiveDecision()


@pytest.fixture
def pair():
    """Mesh 0 with mesh 1 in its directory; what mesh 1 receives."""
    made = []

    def make(chaos=None):
        inbox = queue.SimpleQueue()
        mesh_a = Mesh(0, lambda peer, msg: None, chaos=chaos)
        mesh_b = Mesh(1, lambda peer, msg: inbox.put(msg))
        made.extend((mesh_a, mesh_b))
        mesh_a.set_directory({0: mesh_a.address, 1: mesh_b.address})
        return mesh_a, mesh_b, inbox

    try:
        yield make
    finally:
        for mesh in made:
            mesh.close()


def _received(inbox, count):
    return [inbox.get(timeout=5) for _ in range(count)]


def _nothing_queued(mesh, node=1):
    outbox = mesh._outboxes[node]
    return not outbox.frames and outbox.nbytes == 0


class TestOutbox:
    """The write side: frames queue per peer and whoever holds the
    peer's write lock writes everything queued with one ``sendall``."""

    def test_posts_then_one_flush_is_one_write_in_order(self, pair):
        mesh, _, inbox = pair()
        assert mesh.post(1, 0) is True          # empty -> non-empty
        for i in range(1, 64):
            assert mesh.post(1, i) is False
        assert mesh.stats["sends"] == 64 and mesh.stats["writes"] == 0
        mesh.flush(1)
        assert _received(inbox, 64) == list(range(64))
        assert mesh.stats["sends"] == 64 and mesh.stats["writes"] == 1
        assert _nothing_queued(mesh)

    def test_posted_frame_leaves_first_with_the_next_send(self, pair):
        mesh, _, inbox = pair()
        mesh.send(1, "dial")
        mesh.post(1, "posted")
        mesh.send(1, "sent")
        assert _received(inbox, 3) == ["dial", "posted", "sent"]
        assert mesh.stats["writes"] == 2
        assert _nothing_queued(mesh)

    def test_post_to_self_is_delivered_inline(self):
        inbox = queue.SimpleQueue()
        mesh = Mesh(0, lambda peer, msg: inbox.put((peer, msg)))
        try:
            assert mesh.post(0, "loopback") is False
            assert inbox.get(timeout=1) == (0, "loopback")
        finally:
            mesh.close()

    def test_encode_errors_raise_where_the_frame_is_handed_in(
            self, pair, monkeypatch):
        mesh, _, inbox = pair()
        mesh.post(1, "good")
        outbox = mesh._outboxes[1]
        before = (list(outbox.frames), outbox.nbytes, dict(mesh.stats))
        for call in (mesh.post, mesh.send):
            with pytest.raises((pickle.PicklingError, TypeError,
                                AttributeError)):
                call(1, lambda: None)           # unpicklable
        with monkeypatch.context() as patch:
            patch.setattr("repro.runtime.frames.MAX_FRAME_BYTES", 64)
            with pytest.raises(RuntimeTransportError):
                mesh.post(1, b"x" * 65)         # oversized
        with pytest.raises(RuntimeTransportError):
            mesh.post(7, "no such peer")
        assert (outbox.frames, outbox.nbytes, mesh.stats) == before
        mesh.flush(1)
        assert _received(inbox, 1) == ["good"]

    def test_outbox_past_its_byte_bound_is_written_inline(
            self, pair, monkeypatch):
        monkeypatch.setattr("repro.runtime.transport.OUTBOX_MAX_BYTES", 512)
        mesh, _, inbox = pair()
        posted = 0
        while mesh.stats["writes"] == 0:
            mesh.post(1, posted)
            posted += 1
            assert mesh._outboxes[1].nbytes < 512
        assert 1 < posted < 512
        assert _received(inbox, posted) == list(range(posted))
        assert _nothing_queued(mesh)

    def test_held_write_lock_takes_the_frame_not_the_sender(self, pair):
        """A sender that finds the peer's write lock held leaves its
        frame queued and returns; the next writer carries it."""
        mesh, _, inbox = pair()
        mesh.send(1, "dial")
        lock = mesh._outboxes[1].lock
        assert lock.acquire(timeout=5)
        try:
            mesh.send(1, "left behind")         # must not block
            assert mesh.stats["writes"] == 1
            assert len(mesh._outboxes[1].frames) == 1
        finally:
            lock.release()
        mesh.send(1, "carrier")
        assert _received(inbox, 3) == ["dial", "left behind", "carrier"]
        assert mesh.stats["writes"] == 2

    def test_chaos_fates_are_the_per_frame_decisions_in_send_order(
            self, pair):
        """Same seed, same send sequence -> the fates ``decide_frame``
        gives the link's frame ordinals, as when every frame was its
        own write: a drop never reaches the outbox, a duplicate is two
        copies in it."""
        plan = FaultPlan(seed=11, drop_rate=0.25, dup_rate=0.25)
        mesh, _, inbox = pair(chaos=LiveFaultInjector(plan, node=0))
        expected = []
        for seq in range(64):
            fate = decide_frame(plan, 0, 1, seq)
            expected += [seq] * (0 if fate.drop else
                                 2 if fate.duplicate else 1)
            # Half written at once, half posted: the fate is drawn
            # where the frame is handed in, either way.
            (mesh.send if seq % 2 else mesh.post)(1, seq)
        assert len(set(expected)) < 64 < len(expected) + 20   # both fates
        mesh.flush(1)
        assert _received(inbox, len(expected)) == expected
        assert mesh.stats["sends"] == len(set(expected))
        assert mesh._chaos.stats["chaos_frames"] == 64
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.1)

    def test_chaos_reset_poisons_then_redials_with_the_queue_intact(
            self, pair):
        mesh, mesh_b, inbox = pair(chaos=_Scripted(
            LiveDecision(), LiveDecision(), LiveDecision(reset=True)))
        mesh.send(1, "on the first connection")
        assert _received(inbox, 1) == ["on the first connection"]
        mesh.post(1, "queued before the reset")
        mesh.post(1, "drew the reset")
        mesh.post(1, "queued after it")
        assert mesh.stats["reconnects"] == 0
        mesh.flush(1)
        # One batch, whole and in order, on a fresh connection; the old
        # one ended in a truncated frame, which is not a bad frame.
        assert _received(inbox, 3) == ["queued before the reset",
                                       "drew the reset", "queued after it"]
        assert mesh.stats["reconnects"] == 1
        assert mesh.stats["writes"] == 2 and mesh.stats["retries"] == 0
        assert mesh_b.stats["bad_frames"] == 0

    def test_failed_write_is_redialled_and_the_batch_resent_whole(
            self, pair, monkeypatch):
        monkeypatch.setattr("repro.runtime.transport.BACKOFF_BASE_S", 0.001)
        mesh, _, inbox = pair()
        mesh.send(1, "dial")
        assert _received(inbox, 1) == ["dial"]
        mesh._out[1].close()                    # sendall -> OSError
        for i in range(3):
            mesh.post(1, i)
        mesh.flush(1)
        assert _received(inbox, 3) == [0, 1, 2]
        assert mesh.stats["retries"] == 1 and mesh.stats["reconnects"] == 1
        assert mesh.stats["writes"] == 2 and mesh.stats["sends"] == 4
        assert mesh.stats["dropped_frames"] == 0

    def test_exhausted_retries_drop_the_batch_counted_and_raise(
            self, pair, monkeypatch):
        monkeypatch.setattr("repro.runtime.transport.SEND_RETRIES", 2)
        monkeypatch.setattr("repro.runtime.transport.BACKOFF_BASE_S", 0.001)
        mesh, mesh_b, _ = pair()
        mesh_b.close()
        for i in range(3):
            mesh.post(1, i)
        with pytest.raises(RuntimeTransportError):
            mesh.flush(1)
        assert mesh.stats["retries"] == 2
        assert mesh.stats["dropped_frames"] == 3
        assert mesh.stats["dropped_on_close"] == 0
        assert _nothing_queued(mesh)
        with pytest.raises(RuntimeTransportError):
            mesh.send(1, "still dead")          # a ladder of its own
        assert mesh.stats["retries"] == 4
        assert mesh.stats["dropped_frames"] == 4

    def test_close_counts_queued_frames_and_later_sends_raise(self, pair):
        mesh, _, inbox = pair()
        for i in range(3):
            mesh.post(1, i)
        mesh.close()
        assert mesh.stats["dropped_on_close"] == 3
        assert _nothing_queued(mesh)
        for call in (mesh.post, mesh.send):
            with pytest.raises(RuntimeTransportError):
                call(1, "too late")
        assert mesh.stats["dropped_on_close"] == 5
        assert mesh.stats["writes"] == 0
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.1)

    def test_handoff_stress_every_frame_exactly_once(self, pair):
        """The stranded-frame race: a frame queued just as the lock
        holder finishes must be written by one of the two.  8 threads
        send at the same instant, 500 times over; whenever all of them
        have returned nothing may be left queued, because no later
        write is coming to carry a straggler.  A stranded frame also
        shows as a hang, hence the timeout on every wait."""
        threads, each = 8, 500
        mesh, _, inbox = pair()
        stranded = []

        def all_returned():
            if not _nothing_queued(mesh) or mesh._outboxes[1].lock.locked():
                stranded.append(mesh.stats["sends"])

        barrier = threading.Barrier(threads, action=all_returned)

        def blast(tag):
            for j in range(each):
                barrier.wait(timeout=30)
                mesh.send(1, (tag, j))
            barrier.wait(timeout=30)

        senders = [threading.Thread(target=blast, args=(tag,), daemon=True)
                   for tag in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=120)
            assert not any(sender.is_alive() for sender in senders)
        finally:
            sys.setswitchinterval(interval)
        assert not stranded
        got = _received(inbox, threads * each)
        assert sorted(got) == [(tag, j) for tag in range(threads)
                               for j in range(each)]
        for tag in range(threads):              # FIFO per sender
            assert [j for t, j in got if t == tag] == list(range(each))
        assert mesh.stats["sends"] == threads * each
        assert each <= mesh.stats["writes"] <= mesh.stats["sends"]
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.1)


class _FakePeer:
    """Stands in for node 1: accepts the mesh's connection and reads
    nothing until asked, through a receive buffer of 4 KiB."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.address = self.listener.getsockname()
        self.conns = []

    def accept(self, timeout=5):
        self.listener.settimeout(timeout)
        conn, _ = self.listener.accept()
        self.conns.append(conn)
        return conn

    def read_until_idle(self, conn, idle=1.0):
        """Every frame ``conn`` yields until it closes or goes quiet."""
        got = []
        conn.settimeout(idle)
        try:
            for frame in _read_frames(conn):
                got.append(frame)
        except OSError:
            pass
        return got

    def close(self):
        for sock in self.conns + [self.listener]:
            sock.close()


class TestReaderWrites:
    """A reader's write never waits: it takes the outbox only when that
    costs no waiting, and what it cannot write at once stays queued, in
    order, for the thread ``on_unwritten`` asks for."""

    @pytest.fixture
    def stalled(self):
        """A mesh whose reader answers every ``"request"`` with a frame
        to node 1 — a peer that is connected and does not read."""
        deferred, delivered = queue.SimpleQueue(), queue.SimpleQueue()
        replies = []

        def on_message(peer, message):
            if message == "request":
                replies.append(("reply", len(replies), bytes(3000)))
                mesh.send(1, replies[-1])       # on the reader thread
            delivered.put(message)              # ... which came back

        mesh = Mesh(0, on_message)
        mesh.on_unwritten = deferred.put
        peer = _FakePeer()
        raw = None
        try:
            mesh.set_directory({0: mesh.address, 1: peer.address})
            mesh.send(1, "dial")
            conn = peer.accept()
            mesh._out[1].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    4096)
            raw = socket.create_connection(mesh.address, timeout=5)
            raw.sendall(_frame(Hello(1)))
            yield mesh, peer, conn, raw, deferred, delivered, replies
        finally:
            if raw is not None:
                raw.close()
            mesh.close()
            peer.close()

    def _request(self, raw, delivered):
        raw.sendall(_frame("request"))
        assert delivered.get(timeout=5) == "request"    # did not block

    def test_reply_to_a_peer_that_does_not_read_stays_queued(
            self, stalled):
        mesh, peer, conn, raw, deferred, delivered, replies = stalled
        while deferred.empty():
            self._request(raw, delivered)
            assert len(replies) < 5000
        assert deferred.get(timeout=1) == 1
        outbox = mesh._outboxes[1]
        assert outbox.frames and not outbox.lock.locked()
        assert outbox.nbytes == sum(len(frame) for frame in outbox.frames)
        # The same reader goes on delivering, and queueing.
        raw.sendall(_frame(ResultMsg(1, True, "next")))
        assert delivered.get(timeout=5) == ResultMsg(1, True, "next")
        for _ in range(3):
            self._request(raw, delivered)
        queued = len(outbox.frames)
        assert queued >= 4
        # A frame cut short ends its connection: it is never continued,
        # and comes again, whole, on a new one.
        cut = not mesh.connected(1)
        # The thread that was asked for writes them, waiting as it must.
        writer = threading.Thread(target=mesh.flush, args=(1,), daemon=True)
        writer.start()
        got = peer.read_until_idle(conn)
        if cut:
            got += peer.read_until_idle(peer.accept())
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got[0] == Hello(0) and got.count(Hello(0)) == 1 + cut
        assert [frame for frame in got if frame != Hello(0)] == \
            ["dial"] + replies
        assert _nothing_queued(mesh)
        assert mesh.stats["reconnects"] == cut
        assert mesh.stats["dropped_frames"] == 0

    def test_full_socket_leaves_the_connection_and_the_queue_intact(
            self, stalled):
        """The buffer is full to the last byte (the test parks a 4 MiB
        frame in it, mid-way): a reader's send takes nothing, so nothing
        is cut and the connection stays."""
        mesh, peer, conn, raw, deferred, delivered, replies = stalled
        sock, outbox = mesh._out[1], mesh._outboxes[1]
        filler = _frame(bytes(4 << 20))
        out = 0
        with pytest.raises(BlockingIOError):
            while True:
                out += sock.send(filler[out:out + 65536],
                                 socket.MSG_DONTWAIT)
        assert 0 < out < len(filler)
        for _ in range(3):
            self._request(raw, delivered)
        assert [deferred.get(timeout=1) for _ in range(3)] == [1, 1, 1]
        assert len(outbox.frames) == 3 and mesh.connected(1)
        assert mesh.stats["reconnects"] == 0

        def finish_then_flush():
            with outbox.lock:               # the filler's tail goes first
                sock.sendall(filler[out:])
            mesh.flush(1)

        writer = threading.Thread(target=finish_then_flush, daemon=True)
        writer.start()
        got = peer.read_until_idle(conn)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == [Hello(0), "dial", bytes(4 << 20)] + replies
        assert mesh.stats["reconnects"] == 0 and _nothing_queued(mesh)

    def test_reader_leaves_an_undialled_peer_to_the_thread_it_asks_for(
            self, pair):
        """No connection yet, or a chaos reset or delay owed: not a
        reader's write."""
        inbox_a = queue.SimpleQueue()
        mesh_b = Mesh(1, lambda peer, msg: inbox_a.put(msg))
        deferred = queue.SimpleQueue()

        def relay(peer, message):
            mesh_a.send(1, message)
            deferred.put("returned")

        mesh_a = Mesh(0, relay, chaos=_Scripted(
            LiveDecision(), LiveDecision(), LiveDecision(reset=True),
            LiveDecision(delay_s=0.05)))
        mesh_a.on_unwritten = deferred.put
        raw = socket.create_connection(mesh_a.address, timeout=5)
        try:
            mesh_a.set_directory({0: mesh_a.address, 1: mesh_b.address})
            raw.sendall(_frame(Hello(1)))
            for step, message in enumerate(
                    ("undialled", "connected", "reset owed", "delay owed")):
                raw.sendall(_frame(message))
                if step == 1:
                    # The one a reader may write itself.
                    assert deferred.get(timeout=5) == "returned"
                    assert inbox_a.get(timeout=5) == message
                    continue
                assert deferred.get(timeout=5) == 1
                assert deferred.get(timeout=5) == "returned"
                assert len(mesh_a._outboxes[1].frames) == 1
                with pytest.raises(queue.Empty):
                    inbox_a.get(timeout=0.1)
                mesh_a.flush(1)             # the thread asked for
                assert inbox_a.get(timeout=5) == message
            assert mesh_a.stats["reconnects"] == 1      # the reset
            assert mesh_a._chaos._decisions == []
        finally:
            raw.close()
            mesh_a.close()
            mesh_b.close()

    def test_deferred_flush_stress_every_frame_exactly_once(self):
        """Eight readers answer to one peer whose connection is gone at
        the start of every round, so each must leave its frame queued
        and ask for a writer — which may find the write lock still held
        by the reader that asked.  Nothing more is sent until the round
        is complete, so a frame stranded in the outbox shows as a
        timeout.  (Asking while holding the lock strands one within a
        few rounds.)"""
        readers, rounds = 8, 300
        inbox = queue.SimpleQueue()
        mesh_b = Mesh(1, lambda peer, msg: inbox.put(msg))
        mesh_a = Mesh(0, lambda peer, msg: mesh_a.send(1, msg))
        # The kernel's own pool: a submit that finds no idle worker
        # starts a thread, which runs before ``start()`` returns.
        pool = _WorkerPool(mesh_a.flush, "test-flusher",
                           {"workers_started": 0, "worker_handoffs": 0})
        mesh_a.on_unwritten = pool.submit
        raws = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mesh_a.set_directory({0: mesh_a.address, 1: mesh_b.address})
            for tag in range(readers):
                raw = socket.create_connection(mesh_a.address, timeout=5)
                raw.sendall(_frame(Hello(2 + tag)))
                raws.append(raw)
            for index in range(rounds):
                mesh_a._invalidate(1)
                for tag, raw in enumerate(raws):
                    raw.sendall(_frame((tag, index)))
                got = sorted(inbox.get(timeout=10) for _ in raws)
                assert got == [(tag, index) for tag in range(readers)]
                assert _nothing_queued(mesh_a)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
            for raw in raws:
                raw.close()
            mesh_a.close()
            mesh_b.close()
        assert mesh_a.stats["sends"] == readers * rounds
        assert mesh_a.stats["dropped_frames"] == 0
        with pytest.raises(queue.Empty):
            inbox.get(timeout=0.1)
