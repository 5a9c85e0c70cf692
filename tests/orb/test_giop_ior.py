"""GIOP framing and IOR stringification tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.orb.giop import (HEADER_SIZE, MAGIC, LocateReplyMessage,
                            LocateRequestMessage, LocateStatus, MessageType,
                            ReplyMessage, ReplyStatus, RequestMessage,
                            decode_message, encode_message, peek_request)
from repro.orb.ior import IiopProfile, Ior, make_ior


class TestGiopHeader:
    def test_header_layout(self):
        message = RequestMessage(request_id=1, object_key=b"k",
                                 operation="op")
        data = encode_message(message)
        assert data[:4] == MAGIC
        assert data[4:6] == bytes([1, 0])  # GIOP 1.0
        assert data[7] == MessageType.REQUEST
        size = int.from_bytes(data[8:12], "big")
        assert size == len(data) - HEADER_SIZE

    def test_bad_magic(self):
        with pytest.raises(MarshalError):
            decode_message(b"JUNK" + bytes(10))

    def test_short_message(self):
        with pytest.raises(MarshalError):
            decode_message(b"GIOP")

    def test_truncated_body(self):
        message = encode_message(RequestMessage(1, b"k", "op"))
        with pytest.raises(MarshalError):
            decode_message(message[:-2])

    def test_unknown_version(self):
        data = bytearray(encode_message(RequestMessage(1, b"k", "op")))
        data[5] = 9
        with pytest.raises(MarshalError):
            decode_message(bytes(data))

    def test_unknown_message_type(self):
        data = bytearray(encode_message(RequestMessage(1, b"k", "op")))
        data[7] = 99
        with pytest.raises(MarshalError):
            decode_message(bytes(data))


class TestMessages:
    def test_request_roundtrip(self):
        message = RequestMessage(
            request_id=7, object_key=b"orb/Iface/obj1",
            operation="find_coalitions",
            arguments=["Medical", 3, {"deep": [True, None]}],
            response_expected=True,
            service_context=[(0xBEEF, "Orbix")])
        decoded = decode_message(encode_message(message))
        assert decoded == message

    def test_oneway_request(self):
        message = RequestMessage(1, b"k", "notify", ["x"],
                                 response_expected=False)
        assert decode_message(encode_message(message)).response_expected \
            is False

    def test_reply_roundtrip(self):
        for status in ReplyStatus:
            message = ReplyMessage(request_id=3, status=status,
                                   body={"answer": 42})
            decoded = decode_message(encode_message(message))
            assert decoded.status is status
            assert decoded.body == {"answer": 42}

    def test_locate_roundtrip(self):
        request = LocateRequestMessage(request_id=5, object_key=b"key")
        assert decode_message(encode_message(request)) == request
        reply = LocateReplyMessage(request_id=5,
                                   status=LocateStatus.OBJECT_HERE)
        assert decode_message(encode_message(reply)) == reply

    def test_little_endian_roundtrip(self):
        message = ReplyMessage(1, ReplyStatus.NO_EXCEPTION, body=[1.5, "x"])
        decoded = decode_message(encode_message(message, little_endian=True))
        assert decoded.body == [1.5, "x"]

    @given(request_id=st.integers(0, 2**32 - 1),
           operation=st.text(min_size=1, max_size=20),
           key=st.binary(min_size=1, max_size=30),
           args=st.lists(st.one_of(st.integers(-2**31, 2**31 - 1),
                                   st.text(max_size=15), st.none(),
                                   st.booleans()), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_request_roundtrip_property(self, request_id, operation, key,
                                        args):
        message = RequestMessage(request_id=request_id, object_key=key,
                                 operation=operation, arguments=args)
        assert decode_message(encode_message(message)) == message


class TestPeekRequest:
    """``peek_request`` reads a frame's request id (a BUSY reply needs
    it) and response flag (the TCP client waits for no reply to a
    oneway request) without decoding the body."""

    @given(request_id=st.integers(min_value=0, max_value=2**32 - 1),
           response_expected=st.booleans(),
           operation=st.text(min_size=1, max_size=20),
           little_endian=st.booleans(),
           context=st.lists(st.tuples(st.integers(0, 2**16),
                                      st.text(max_size=8)), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_request_roundtrip(self, request_id, response_expected,
                               operation, little_endian, context):
        """Exactly the id and response flag that ``encode_message``
        wrote, through any service context and endianness."""
        frame = encode_message(
            RequestMessage(request_id=request_id, object_key=b"key",
                           operation=operation,
                           response_expected=response_expected,
                           service_context=context),
            little_endian=little_endian)
        assert peek_request(frame) == (request_id, response_expected)

    @given(request_id=st.integers(min_value=0, max_value=2**32 - 1),
           little_endian=st.booleans(),
           body=st.one_of(st.none(), st.integers(-100, 100),
                          st.text(max_size=16)))
    @settings(max_examples=100, deadline=None)
    def test_reply_carries_no_request(self, request_id, little_endian,
                                      body):
        frame = encode_message(
            ReplyMessage(request_id=request_id,
                         status=ReplyStatus.NO_EXCEPTION, body=body),
            little_endian=little_endian)
        assert peek_request(frame) == (None, True)

    @given(request_id=st.integers(min_value=0, max_value=2**32 - 1),
           little_endian=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_locate_request_expects_a_reply(self, request_id,
                                            little_endian):
        locate = encode_message(
            LocateRequestMessage(request_id=request_id, object_key=b"k"),
            little_endian=little_endian)
        assert peek_request(locate) == (request_id, True)

    @given(noise=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_never_raises_on_garbage(self, noise):
        """Arbitrary bytes — including truncated GIOP prefixes — peek
        as carrying no request id rather than raising."""
        assert peek_request(noise) == (None, True)


class TestIor:
    def test_roundtrip(self):
        ior = make_ior("IDL:webfindit/CoDatabase:1.0",
                       "dba.icis.qut.edu.au", 20001, b"codb-RBH")
        parsed = Ior.from_string(ior.to_string())
        assert parsed == ior
        assert parsed.primary.endpoint == ("dba.icis.qut.edu.au", 20001)

    def test_string_form_prefix(self):
        ior = make_ior("IDL:x:1.0", "h", 1, b"k")
        assert ior.to_string().startswith("IOR:")

    def test_multi_profile(self):
        ior = Ior(type_id="IDL:x:1.0", profiles=(
            IiopProfile("a", 1, b"k1"), IiopProfile("b", 2, b"k2")))
        parsed = Ior.from_string(ior.to_string())
        assert len(parsed.profiles) == 2
        assert parsed.primary.host == "a"

    def test_bad_prefix(self):
        with pytest.raises(MarshalError):
            Ior.from_string("ior:abcdef")

    def test_bad_hex(self):
        with pytest.raises(MarshalError):
            Ior.from_string("IOR:zzzz")

    def test_no_profiles_primary_raises(self):
        with pytest.raises(MarshalError):
            __ = Ior(type_id="IDL:x:1.0").primary

    @given(host=st.text(min_size=1, max_size=20).filter(str.strip),
           port=st.integers(0, 65535), key=st.binary(min_size=1, max_size=40),
           type_id=st.text(min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, host, port, key, type_id):
        ior = make_ior(type_id, host, port, key)
        assert Ior.from_string(ior.to_string()) == ior


class TestUnsupportedMessageTypes:
    def test_close_connection_and_message_error_rejected(self):
        for type_octet in (MessageType.CANCEL_REQUEST,
                           MessageType.CLOSE_CONNECTION,
                           MessageType.MESSAGE_ERROR):
            frame = bytearray(encode_message(RequestMessage(1, b"k", "op")))
            frame[7] = int(type_octet)
            with pytest.raises(MarshalError):
                decode_message(bytes(frame))
