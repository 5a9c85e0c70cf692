"""GIOP message framing (the General Inter-ORB Protocol).

CORBA 2.0 defines GIOP message formats carried over any transport;
IIOP is GIOP over TCP.  We implement the messages the request/reply
path needs:

* ``Request`` — request id, response-expected flag, object key,
  operation name, CDR-encoded arguments;
* ``Reply`` — request id, reply status (NO_EXCEPTION / USER_EXCEPTION /
  SYSTEM_EXCEPTION / LOCATION_FORWARD), CDR-encoded body;
* ``LocateRequest`` / ``LocateReply`` — liveness probes for object keys;
* ``CloseConnection`` and ``MessageError``.

Every message starts with the 12-octet GIOP header: the ``GIOP`` magic,
protocol version, a flags octet (bit 0 = little-endian), the message
type, and the body size.

The framing is compiled: the header, each service context and the
request / reply head are packed and unpacked with ``struct.Struct``s
built once per byte order, at tracked offsets with bounds checks, and a
``CdrEncoder`` / ``CdrDecoder`` runs only for the arguments or body.
The bytes are those of the field-by-field framer it replaced
(``tests/orb/giop_reference.py`` is kept as the oracle).
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import MarshalError
from repro.orb.cdr import _PAD, CdrDecoder, CdrEncoder, _not_utf8

MAGIC = b"GIOP"
VERSION = (1, 0)
_MAJOR, _MINOR = VERSION
HEADER_SIZE = 12


class MessageType(enum.IntEnum):
    """GIOP message type octet."""

    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6


class ReplyStatus(enum.IntEnum):
    """Status carried in a Reply header."""

    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3
    #: Extension: the server refused the request under overload (shed
    #: from the admission queue, or its deadline budget was already
    #: spent on arrival).  Distinct from SYSTEM_EXCEPTION so clients
    #: can apply retry *budgets* instead of eager failure handling.
    BUSY = 4


class LocateStatus(enum.IntEnum):
    """Status carried in a LocateReply."""

    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1
    OBJECT_FORWARD = 2


@dataclass
class RequestMessage:
    """A GIOP Request."""

    request_id: int
    object_key: bytes
    operation: str
    arguments: list[Any] = field(default_factory=list)
    response_expected: bool = True
    #: Service context: (id, value) pairs; we use it to carry the calling
    #: ORB's product name for interop accounting, as real ORBs carry
    #: transaction/codeset contexts.
    service_context: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class ReplyMessage:
    """A GIOP Reply."""

    request_id: int
    status: ReplyStatus
    body: Any = None
    service_context: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class LocateRequestMessage:
    """A GIOP LocateRequest."""

    request_id: int
    object_key: bytes


@dataclass
class LocateReplyMessage:
    """A GIOP LocateReply."""

    request_id: int
    status: LocateStatus


Message = (RequestMessage | ReplyMessage | LocateRequestMessage
           | LocateReplyMessage)

# Every struct below by ``little_endian`` (index 0 big, 1 little).
#: magic, version, flags, message type, body size.
_HEADERS = (struct.Struct(">4sBBBBI"), struct.Struct("<4sBBBBI"))
_ULONGS = (struct.Struct(">I"), struct.Struct("<I"))
#: Two ulongs: a service context's id and string length, a reply's or
#: locate reply's request id and status, a locate request's id and key
#: length.
_PAIRS = (struct.Struct(">II"), struct.Struct("<II"))
#: A request's id, response flag, three padding octets and key length.
_REQUEST_HEADS = (struct.Struct(">IB3xI"), struct.Struct("<IB3xI"))

#: The enum member of each octet / status value, indexed by it.
_MESSAGE_TYPES = tuple(MessageType)
_REQUEST, _REPLY, _LOCATE_REQUEST, _LOCATE_REPLY = 0, 1, 3, 4
_REPLY_STATUSES = tuple(ReplyStatus)
_LOCATE_STATUSES = tuple(LocateStatus)

#: Request tails memoised: one per (byte order, response flag, object
#: key, operation, argument count) — a federation calls a few dozen.
TAIL_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=TAIL_MEMO_SIZE)
def _request_tail(little_endian: bool, response_expected: bool,
                  object_key: bytes, operation: str,
                  argument_count: int) -> bytes:
    """The octets of a request between its id and its arguments.

    They start 4-aligned, right behind the request-id ulong, so they do
    not depend on what precedes them: the response flag, the object key
    (3 padding octets bring its length to 4-alignment), the operation
    name as a CDR string and the argument count.
    """
    ulong = _ULONGS[little_endian].pack
    try:
        name = operation.encode()
    except UnicodeEncodeError as exc:
        raise _not_utf8(operation, exc) from exc
    tail = bytearray(b"\x01\x00\x00\x00" if response_expected else bytes(4))
    tail += ulong(len(object_key))
    tail += object_key
    tail += _PAD[-len(tail) & 3]
    tail += ulong(len(name) + 1)
    tail += name
    tail.append(0)
    tail += _PAD[-len(tail) & 3]
    tail += ulong(argument_count)
    return bytes(tail)


def _write_contexts(buf: bytearray, context, little_endian: bool) -> None:
    """Append *context* to the service-context list in *buf*, its count
    first: each id and string length in one pack, the UTF-8, the NUL."""
    if not context:
        return
    ulong, pair = _ULONGS[little_endian], _PAIRS[little_endian].pack
    ulong.pack_into(buf, 0, ulong.unpack_from(buf)[0] + len(context))
    for context_id, value in context:
        try:
            encoded = value.encode()
        except UnicodeEncodeError as exc:
            raise _not_utf8(value, exc) from exc
        buf += _PAD[-len(buf) & 3]
        buf += pair(context_id, len(encoded) + 1)
        buf += encoded
        buf.append(0)


def context_octets(context: list[tuple[int, str]],
                   little_endian: bool = False) -> bytes:
    """A service-context list written once, as a request body starts
    (the padding behind it included): a client ORB hands its product
    context to :func:`request_frame` this way."""
    return request_frame(0, b"", (), context, little_endian=little_endian
                         )[HEADER_SIZE:-4]


def _frame(message_type: int, little: bool, ready: bytes, context,
           head: struct.Struct, fields: tuple, tail: bytes,
           values) -> bytes:
    """A frame: the *ready* service-context list (none for a Locate) and
    *context*, *fields* packed by *head*, *tail*, each of *values* — the
    body built on its own (CDR aligns from its start), then the header."""
    buf = bytearray(ready)
    try:
        _write_contexts(buf, context, little)
        buf += _PAD[-len(buf) & 3]
        buf += head.pack(*fields)
    except struct.error as exc:
        raise MarshalError(
            f"cannot marshal GIOP head fields {fields!r}: {exc}") from exc
    buf += tail
    if values:
        write = CdrEncoder(little, buf).write_any
        for value in values:
            write(value)
    return _HEADERS[little].pack(MAGIC, _MAJOR, _MINOR, little,
                                 message_type, len(buf)) + buf


def request_frame(request_id: int, tail: bytes, arguments, context=(),
                  ready: bytes = b"\0\0\0\0", little_endian: bool = False
                  ) -> bytes:
    """A Request frame from its parts: the *ready* service-context list
    (from :func:`context_octets`) with *context* appended, the id, the
    :func:`_request_tail` octets and the arguments."""
    little = bool(little_endian)
    return _frame(_REQUEST, little, ready, context, _ULONGS[little],
                  (request_id,), tail, arguments)


def reply_frame(request_id: int, status: int, body: Any, context=(),
                little_endian: bool = False) -> bytes:
    """A Reply frame from its parts."""
    little = bool(little_endian)
    return _frame(_REPLY, little, b"\0\0\0\0", context, _PAIRS[little],
                  (request_id, status), b"", (body,))


def encode_message(message: Message, little_endian: bool = False) -> bytes:
    """Serialize *message* to GIOP bytes (header + CDR body)."""
    little = bool(little_endian)
    if isinstance(message, RequestMessage):
        return request_frame(
            message.request_id,
            _request_tail(little, bool(message.response_expected),
                          message.object_key, message.operation,
                          len(message.arguments)),
            message.arguments, message.service_context, little_endian=little)
    if isinstance(message, ReplyMessage):
        return reply_frame(message.request_id, message.status, message.body,
                           message.service_context, little)
    if isinstance(message, LocateRequestMessage):
        return _frame(_LOCATE_REQUEST, little, b"", (), _PAIRS[little],
                      (message.request_id, len(message.object_key)),
                      message.object_key, ())
    if isinstance(message, LocateReplyMessage):
        return _frame(_LOCATE_REPLY, little, b"", (), _PAIRS[little],
                      (message.request_id, message.status), b"", ())
    raise MarshalError(f"cannot encode {type(message).__name__}")


#: Cap on the body size a peeked header may announce before the stream
#: is treated as desynchronised (a frame this large is never legitimate
#: here and would otherwise stall reassembly buffering gigabytes).
MAX_FRAME_BODY = 64 * 1024 * 1024

Buffer = bytes | bytearray | memoryview


def peek_frame_size(header: Buffer) -> int:
    """Total frame length (header + body) announced by a GIOP header.

    Reads the size field straight out of *header* — which may be a
    ``memoryview`` into a receive buffer — without copying or decoding
    anything else.  Raises :class:`MarshalError` when the 12 octets are
    not a plausible GIOP header, so framing code can poison the stream
    instead of mis-slicing every frame behind it.
    """
    if len(header) < HEADER_SIZE:
        raise MarshalError(
            f"GIOP header needs {HEADER_SIZE} octets, got {len(header)}")
    if header[:4] != MAGIC:
        raise MarshalError(f"bad GIOP magic {bytes(header[:4])!r}")
    little_endian = bool(header[6] & 1)
    size = int.from_bytes(header[8:12], "little" if little_endian else "big")
    if size > MAX_FRAME_BODY:
        raise MarshalError(f"implausible GIOP body size {size}")
    return HEADER_SIZE + size


# -- decoding ------------------------------------------------------------------
#
# The readers below work on the whole frame at frame offsets.  Nothing
# in a message head is wider than a ulong, and the header's 12 octets
# are a multiple of 4, so 4-alignment at a frame offset is 4-alignment
# in the body.  The arguments or body need the body's own 8-alignment:
# their decoder gets the body and the offset the head ends at.


def _underflow(count: int, at: int, end: int) -> MarshalError:
    return MarshalError(f"GIOP underflow: need {count} octets at {at}, "
                        f"frame ends at {end}")


def _frame_head(data: Buffer) -> tuple[int, bool, int]:
    """``(message type octet, little_endian, end of the body)`` of a
    GIOP 1.0 frame of a known type whose body is all there."""
    if len(data) < HEADER_SIZE:
        raise MarshalError("GIOP message shorter than its header")
    little = bool(data[6] & 1)
    magic, major, minor, __, message_type, size = \
        _HEADERS[little].unpack_from(data)
    if magic != MAGIC:
        raise MarshalError(f"bad GIOP magic {magic!r}")
    if major != _MAJOR or minor != _MINOR:
        raise MarshalError(f"unsupported GIOP version {major}.{minor}")
    if message_type >= len(_MESSAGE_TYPES):
        raise MarshalError(f"unknown GIOP message type {message_type}")
    if len(data) - HEADER_SIZE < size:
        raise MarshalError(
            f"GIOP body truncated: header says {size}, "
            f"got {len(data) - HEADER_SIZE}")
    return message_type, little, HEADER_SIZE + size


def _text(data: Buffer, start: int, length: int, end: int) -> str:
    """The CDR string whose *length* (NUL included) was read just
    before *start*."""
    stop = start + length
    if length == 0:
        raise MarshalError("CDR string with zero length (missing NUL)")
    if stop > end:
        raise _underflow(length, start, end)
    if data[stop - 1] != 0:
        raise MarshalError("CDR string not NUL-terminated")
    try:
        return str(data[start:stop - 1], "utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"CDR string is not valid UTF-8: {exc}") from exc


def _read_contexts(data: Buffer, end: int, little: bool
                   ) -> tuple[list[tuple[int, str]], int]:
    """The service-context list at the head of a Request or Reply body,
    and the frame offset behind it."""
    if HEADER_SIZE + 4 > end:
        raise _underflow(4, HEADER_SIZE, end)
    pair = _PAIRS[little].unpack_from
    contexts = []
    pos = HEADER_SIZE + 4
    for _ in range(_ULONGS[little].unpack_from(data, HEADER_SIZE)[0]):
        pos += -pos & 3
        if pos + 8 > end:
            raise _underflow(8, pos, end)
        context_id, length = pair(data, pos)
        contexts.append((context_id, _text(data, pos + 8, length, end)))
        pos += 8 + length
    return contexts, pos + (-pos & 3)


def read_request(data: Buffer) -> tuple:
    """A Request's fields in :class:`RequestMessage`'s order, with no
    message object; a frame of another kind is a MarshalError."""
    message_type, little, end = _frame_head(data)
    if message_type != _REQUEST:
        raise MarshalError(f"not a Request: GIOP type {message_type}")
    context, pos = _read_contexts(data, end, little)
    if pos + 12 > end:
        raise _underflow(12, pos, end)
    request_id, response_flag, key_length = \
        _REQUEST_HEADS[little].unpack_from(data, pos)
    pos += 12
    if pos + key_length > end:
        raise _underflow(key_length, pos, end)
    object_key = bytes(data[pos:pos + key_length])
    pos += key_length
    pos += -pos & 3
    if pos + 4 > end:
        raise _underflow(4, pos, end)
    ulong = _ULONGS[little].unpack_from
    length = ulong(data, pos)[0]
    operation = _text(data, pos + 4, length, end)
    pos += 4 + length
    pos += -pos & 3
    if pos + 4 > end:
        raise _underflow(4, pos, end)
    count = ulong(data, pos)[0]
    arguments = []
    if count:
        read = CdrDecoder(data[HEADER_SIZE:end], little,
                          pos + 4 - HEADER_SIZE).read_any
        arguments = [read() for _ in range(count)]
    return (request_id, object_key, operation, arguments,
            response_flag != 0, context)


def read_reply(data: Buffer) -> tuple:
    """A Reply's fields in :class:`ReplyMessage`'s order, with no
    message object; a frame of another kind is a MarshalError."""
    message_type, little, end = _frame_head(data)
    if message_type != _REPLY:
        raise MarshalError(f"not a Reply: GIOP type {message_type}")
    context, pos = _read_contexts(data, end, little)
    if pos + 8 > end:
        raise _underflow(8, pos, end)
    request_id, status = _PAIRS[little].unpack_from(data, pos)
    if status >= len(_REPLY_STATUSES):
        raise MarshalError(f"unknown reply status {status}")
    body = CdrDecoder(data[HEADER_SIZE:end], little,
                      pos + 8 - HEADER_SIZE).read_any()
    return request_id, _REPLY_STATUSES[status], body, context


def decode_message(data: Buffer) -> Message:
    """Parse GIOP bytes (or a zero-copy ``memoryview``) into a message
    object."""
    message_type, little, end = _frame_head(data)
    if message_type == _REQUEST:
        return RequestMessage(*read_request(data))
    if message_type == _REPLY:
        return ReplyMessage(*read_reply(data))
    if HEADER_SIZE + 8 > end:
        raise _underflow(8, HEADER_SIZE, end)
    request_id, second = _PAIRS[little].unpack_from(data, HEADER_SIZE)
    if message_type == _LOCATE_REQUEST:
        stop = HEADER_SIZE + 8 + second
        if stop > end:
            raise _underflow(second, HEADER_SIZE + 8, end)
        return LocateRequestMessage(
            request_id=request_id,
            object_key=bytes(data[HEADER_SIZE + 8:stop]))
    if message_type == _LOCATE_REPLY:
        if second >= len(_LOCATE_STATUSES):
            raise MarshalError(f"unknown locate status {second}")
        return LocateReplyMessage(request_id=request_id,
                                  status=_LOCATE_STATUSES[second])
    raise MarshalError(
        f"unhandled GIOP message type {_MESSAGE_TYPES[message_type]!r}")


def peek_request(data: Buffer) -> tuple[Optional[int], bool]:
    """``(request_id, response_expected)`` of an outgoing frame.

    Reads just far enough into the body to find the request id — a
    BUSY reply must carry it — and the response flag, which tells the
    TCP client whether a reply will come at all (a oneway request gets
    none).  ``(None, True)`` means the frame carries no request id.
    """
    try:
        message_type, little, end = _frame_head(data)
        if message_type == _REQUEST:
            __, pos = _read_contexts(data, end, little)
            if pos + 5 <= end:
                return (_ULONGS[little].unpack_from(data, pos)[0],
                        data[pos + 4] != 0)
        elif message_type == _LOCATE_REQUEST \
                and HEADER_SIZE + 4 <= end:
            return _ULONGS[little].unpack_from(data, HEADER_SIZE)[0], True
    except MarshalError:
        pass
    return None, True


#: Service-context id we use to carry the calling ORB product (mirrors
#: how real ORBs tunnel vendor contexts).
ORB_PRODUCT_CONTEXT = 0xBEEF

#: Remaining deadline budget, in seconds, measured when the request was
#: marshalled.  Carried as a *relative* budget (not an absolute expiry)
#: so it stays meaningful across machines with unsynchronised clocks.
DEADLINE_BUDGET_CONTEXT = 0xD15C

#: Traffic class of the request ("interactive"/"background"); absent
#: means interactive.  Overloaded servers shed background first.
TRAFFIC_CLASS_CONTEXT = 0x7C1A


def peek_request_admission(data: Buffer) -> tuple[Optional[float], str]:
    """``(deadline_budget_seconds, traffic_class)`` of a Request frame.

    Decodes only the service-context list at the head of the body —
    the server's admission controller runs this on every frame *before*
    dispatch, so it must not pay for argument decoding.  Frames that
    are not requests, carry no overload contexts, or are damaged
    default to ``(None, "interactive")``: never shed what cannot be
    read.
    """
    budget: Optional[float] = None
    traffic_class = "interactive"
    try:
        message_type, little, end = _frame_head(data)
        if message_type != _REQUEST:
            return None, "interactive"
        for context_id, value in _read_contexts(data, end, little)[0]:
            if context_id == DEADLINE_BUDGET_CONTEXT:
                budget = float(value)
            elif context_id == TRAFFIC_CLASS_CONTEXT:
                traffic_class = value
    except (MarshalError, ValueError):
        return None, "interactive"
    return budget, traffic_class


def busy_reply(data: Buffer, reason: str,
               little_endian: bool = False) -> Optional[bytes]:
    """A serialized ``BUSY`` reply answering the request in *data*.

    ``None`` when the frame carries no request id or expects no
    response — there is nobody to tell, so the shed is silent.
    """
    request_id, response_expected = peek_request(data)
    if request_id is None or not response_expected:
        return None
    return encode_message(
        ReplyMessage(request_id=request_id, status=ReplyStatus.BUSY,
                     body={"reason": reason}),
        little_endian=little_endian)
