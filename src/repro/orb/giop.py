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
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder

MAGIC = b"GIOP"
VERSION = (1, 0)
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


#: magic, version, flags, message type, body size — by ``little_endian``.
_HEADERS = (struct.Struct(">4sBBBBI"), struct.Struct("<4sBBBBI"))


def _frame(encoder: CdrEncoder, message_type: MessageType) -> bytes:
    body = encoder.getvalue()
    return _HEADERS[encoder.little_endian].pack(
        MAGIC, *VERSION, encoder.little_endian, message_type,
        len(body)) + body


def _encode_service_context(encoder: CdrEncoder,
                            context: list[tuple[int, str]]) -> None:
    encoder.write_ulong(len(context))
    for context_id, value in context:
        encoder.write_ulong(context_id)
        encoder.write_string(value)


def _decode_service_context(decoder: CdrDecoder) -> list[tuple[int, str]]:
    count = decoder.read_ulong()
    return [(decoder.read_ulong(), decoder.read_string())
            for _ in range(count)]


def encode_message(message: Message, little_endian: bool = False) -> bytes:
    """Serialize *message* to GIOP bytes (header + CDR body)."""
    # Body positions are computed relative to the end of the 12-octet
    # header, which is itself 8-aligned, so alignment stays consistent.
    encoder = CdrEncoder(little_endian)
    if isinstance(message, RequestMessage):
        message_type = MessageType.REQUEST
        _encode_service_context(encoder, message.service_context)
        encoder.write_ulong(message.request_id)
        encoder.write_boolean(message.response_expected)
        encoder.write_octets(message.object_key)
        encoder.write_string(message.operation)
        encoder.write_ulong(len(message.arguments))
        for argument in message.arguments:
            encoder.write_any(argument)
    elif isinstance(message, ReplyMessage):
        message_type = MessageType.REPLY
        _encode_service_context(encoder, message.service_context)
        encoder.write_ulong(message.request_id)
        encoder.write_ulong(int(message.status))
        encoder.write_any(message.body)
    elif isinstance(message, LocateRequestMessage):
        message_type = MessageType.LOCATE_REQUEST
        encoder.write_ulong(message.request_id)
        encoder.write_octets(message.object_key)
    elif isinstance(message, LocateReplyMessage):
        message_type = MessageType.LOCATE_REPLY
        encoder.write_ulong(message.request_id)
        encoder.write_ulong(int(message.status))
    else:
        raise MarshalError(f"cannot encode {type(message).__name__}")
    return _frame(encoder, message_type)


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


def decode_message(data: Buffer) -> Message:
    """Parse GIOP bytes (or a zero-copy ``memoryview``) into a message
    object."""
    if len(data) < HEADER_SIZE:
        raise MarshalError("GIOP message shorter than its header")
    if data[:4] != MAGIC:
        raise MarshalError(f"bad GIOP magic {bytes(data[:4])!r}")
    major, minor = data[4], data[5]
    if (major, minor) != VERSION:
        raise MarshalError(f"unsupported GIOP version {major}.{minor}")
    little_endian = bool(data[6] & 1)
    try:
        message_type = MessageType(data[7])
    except ValueError as exc:
        raise MarshalError(f"unknown GIOP message type {data[7]}") from exc
    size = int.from_bytes(data[8:12], "little" if little_endian else "big")
    if len(data) - HEADER_SIZE < size:
        raise MarshalError(
            f"GIOP body truncated: header says {size}, "
            f"got {len(data) - HEADER_SIZE}")
    decoder = CdrDecoder(data[HEADER_SIZE:HEADER_SIZE + size], little_endian)
    if message_type is MessageType.REQUEST:
        context = _decode_service_context(decoder)
        request_id = decoder.read_ulong()
        response_expected = decoder.read_boolean()
        object_key = decoder.read_octets()
        operation = decoder.read_string()
        argument_count = decoder.read_ulong()
        arguments = [decoder.read_any() for _ in range(argument_count)]
        return RequestMessage(request_id=request_id, object_key=object_key,
                              operation=operation, arguments=arguments,
                              response_expected=response_expected,
                              service_context=context)
    if message_type is MessageType.REPLY:
        context = _decode_service_context(decoder)
        request_id = decoder.read_ulong()
        status_code = decoder.read_ulong()
        try:
            status = ReplyStatus(status_code)
        except ValueError as exc:
            raise MarshalError(f"unknown reply status {status_code}") from exc
        body = decoder.read_any()
        return ReplyMessage(request_id=request_id, status=status, body=body,
                            service_context=context)
    if message_type is MessageType.LOCATE_REQUEST:
        return LocateRequestMessage(request_id=decoder.read_ulong(),
                                    object_key=decoder.read_octets())
    if message_type is MessageType.LOCATE_REPLY:
        request_id = decoder.read_ulong()
        status_code = decoder.read_ulong()
        try:
            locate_status = LocateStatus(status_code)
        except ValueError as exc:
            raise MarshalError(
                f"unknown locate status {status_code}") from exc
        return LocateReplyMessage(request_id=request_id, status=locate_status)
    raise MarshalError(f"unhandled GIOP message type {message_type!r}")


def _peek_decoder(data: Buffer) -> tuple[Optional[MessageType],
                                         Optional[CdrDecoder]]:
    """Message type and a body decoder, without decoding the body.

    Returns ``(None, None)`` for frames that are not GIOP 1.0 (the
    pipelined transport falls back to serial round-trips for those).
    """
    if len(data) < HEADER_SIZE or data[:4] != MAGIC \
            or (data[4], data[5]) != VERSION:
        return None, None
    try:
        message_type = MessageType(data[7])
    except ValueError:
        return None, None
    little_endian = bool(data[6] & 1)
    size = int.from_bytes(data[8:12], "little" if little_endian else "big")
    if len(data) - HEADER_SIZE < size:
        return None, None
    return message_type, CdrDecoder(data[HEADER_SIZE:HEADER_SIZE + size],
                                    little_endian)


def peek_request(data: Buffer) -> tuple[Optional[int], bool]:
    """``(request_id, response_expected)`` of an outgoing frame.

    Reads just far enough into the CDR body to find the request id —
    the client-side pipeline needs the id to match the eventual reply,
    and the response flag to know whether a reply will come at all.
    ``(None, True)`` means the frame carries no request id (it cannot
    be pipelined and must use a dedicated serial round-trip).
    """
    message_type, decoder = _peek_decoder(data)
    if decoder is None:
        return None, True
    try:
        if message_type is MessageType.REQUEST:
            _decode_service_context(decoder)
            request_id = decoder.read_ulong()
            return request_id, decoder.read_boolean()
        if message_type is MessageType.LOCATE_REQUEST:
            return decoder.read_ulong(), True
    except MarshalError:
        return None, True
    return None, True


def peek_reply_id(data: Buffer) -> Optional[int]:
    """The request id an incoming Reply/LocateReply frame answers.

    ``None`` means the frame is not a reply (or is damaged beyond
    attribution): a pipelined connection cannot deliver it to any
    waiter and must treat the stream as broken.
    """
    message_type, decoder = _peek_decoder(data)
    if decoder is None:
        return None
    try:
        if message_type is MessageType.REPLY:
            _decode_service_context(decoder)
            return decoder.read_ulong()
        if message_type is MessageType.LOCATE_REPLY:
            return decoder.read_ulong()
    except MarshalError:
        return None
    return None


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
    message_type, decoder = _peek_decoder(data)
    if decoder is None or message_type is not MessageType.REQUEST:
        return None, "interactive"
    budget: Optional[float] = None
    traffic_class = "interactive"
    try:
        for context_id, value in _decode_service_context(decoder):
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
