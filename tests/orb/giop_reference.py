"""The GIOP framer written field by field: the oracle for ``orb/giop.py``.

Test-only.  These are the framing routines the ORB used before its
framing was compiled: every header field goes through the generic
``CdrEncoder`` / ``CdrDecoder`` primitives, one call per field, and the
enum constructors check the type and status octets.  They write the
bytes the pinned ``frames`` vectors of ``cdr_golden.json`` hold, and
``test_giop_oracle.py`` requires the compiled framer to agree with them
on every message, truncation and corruption it generates.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, HEADER_SIZE, MAGIC,
                            TRAFFIC_CLASS_CONTEXT, VERSION,
                            LocateReplyMessage, LocateRequestMessage,
                            LocateStatus, Message, MessageType, ReplyMessage,
                            ReplyStatus, RequestMessage)

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


def decode_message(data) -> Message:
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
        raise MarshalError("GIOP body truncated")
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


def _peek_decoder(data) -> tuple[Optional[MessageType], Optional[CdrDecoder]]:
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


def peek_request(data) -> tuple[Optional[int], bool]:
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


def peek_request_admission(data) -> tuple[Optional[float], str]:
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
