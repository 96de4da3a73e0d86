"""The wire format of the live runtime: one frame per message.

Framing: 4-byte big-endian length, then the pickle of a pair — ``(code,
fields)`` for a message (its class's index in
:data:`~repro.runtime.messages.KINDS` and its fields as a plain tuple),
``(-1, payload)`` for anything else.  The receiver checks that shape
before it rebuilds the message.  A reader fills one reusable buffer per
connection and decodes every complete frame it holds before the next
``recv``, so pipelined frames cost one syscall, not two each.  The
connection is handed in; the sockets are :mod:`repro.runtime.transport`'s.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, Iterator, Tuple

from repro.errors import FrameSizeError, RuntimeTransportError
from repro.runtime.messages import KINDS

_LENGTH = struct.Struct(">I")

#: Ceiling on a single frame (a moved object group); prevents a corrupt
#: length prefix from triggering a giant allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Size of a reader's reusable receive buffer.  A frame that does not
#: fit is read into a buffer of its own, dropped once decoded.
READ_BUFFER_BYTES = 16 * 1024

#: Wire code of each message class; a payload of any other type
#: travels whole under :data:`_RAW`.
_CODES: Dict[type, int] = {kind: code for code, kind in enumerate(KINDS)}
_ARITIES: Tuple[int, ...] = tuple(len(kind._fields) for kind in KINDS)
_RAW = -1


def _encode(payload: Any) -> bytes:
    """One frame: length prefix and pickle."""
    code = _CODES.get(type(payload), _RAW)
    data = pickle.dumps(
        (code, payload if code == _RAW else tuple(payload)),
        protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise FrameSizeError(f"frame of {len(data)} bytes exceeds limit")
    return _LENGTH.pack(len(data)) + data


def _body_length(header: bytes) -> int:
    """The body length a frame's header announces, refused past
    :data:`MAX_FRAME_BYTES`."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RuntimeTransportError(f"oversized frame: {length} bytes")
    return length


def _recv_into_exact(conn: Any, view: memoryview) -> None:
    while view:
        received = conn.recv_into(view)
        if not received:
            raise ConnectionError("peer closed the connection")
        view = view[received:]


def _decode(frame) -> Any:
    """Unpickle one frame body and rebuild what it carries.  Bytes that
    do not decode can raise nearly anything (``UnpicklingError``,
    ``AttributeError``, ``ImportError``, ``IndexError``,
    ``EOFError``...), and a body that decodes need not be a frame of
    this protocol (a version 1 peer pickled the message itself), so all
    of it is reported as one typed transport error."""
    try:
        body = pickle.loads(frame)
    except Exception as error:
        raise RuntimeTransportError(
            f"undecodable frame of {len(frame)} bytes: "
            f"{type(error).__name__}: {error}") from error
    if type(body) is tuple and len(body) == 2 and type(body[0]) is int:
        code, fields = body
        if code == _RAW:
            return fields
        if 0 <= code < len(KINDS) and type(fields) is tuple \
                and len(fields) == _ARITIES[code]:
            return tuple.__new__(KINDS[code], fields)
    raise RuntimeTransportError(
        f"malformed frame of {len(frame)} bytes: not (code, fields) of a "
        f"known message, got {type(body).__name__}")


def _read_frames(conn: Any) -> Iterator[Any]:
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
