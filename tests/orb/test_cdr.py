"""CDR marshalling tests, including hypothesis round-trip properties."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.orb.cdr import (MAX_NESTING, TAG_NULL, TAG_SEQUENCE, CdrDecoder,
                           CdrEncoder, decode_any, encode_any)


class TestPrimitives:
    def test_octet(self):
        encoder = CdrEncoder()
        encoder.write_octet(0xAB)
        assert CdrDecoder(encoder.getvalue()).read_octet() == 0xAB

    def test_boolean(self):
        encoder = CdrEncoder()
        encoder.write_boolean(True)
        encoder.write_boolean(False)
        decoder = CdrDecoder(encoder.getvalue())
        assert decoder.read_boolean() is True
        assert decoder.read_boolean() is False

    def test_long_alignment_after_octet(self):
        encoder = CdrEncoder()
        encoder.write_octet(1)
        encoder.write_long(0x01020304)
        data = encoder.getvalue()
        # 1 octet + 3 padding + 4 payload
        assert len(data) == 8
        decoder = CdrDecoder(data)
        assert decoder.read_octet() == 1
        assert decoder.read_long() == 0x01020304

    def test_double_alignment(self):
        encoder = CdrEncoder()
        encoder.write_octet(1)
        encoder.write_double(1.5)
        assert len(encoder.getvalue()) == 16
        decoder = CdrDecoder(encoder.getvalue())
        decoder.read_octet()
        assert decoder.read_double() == 1.5

    def test_big_endian_layout(self):
        encoder = CdrEncoder(little_endian=False)
        encoder.write_ulong(1)
        assert encoder.getvalue() == b"\x00\x00\x00\x01"

    def test_little_endian_layout(self):
        encoder = CdrEncoder(little_endian=True)
        encoder.write_ulong(1)
        assert encoder.getvalue() == b"\x01\x00\x00\x00"

    def test_string_includes_nul(self):
        encoder = CdrEncoder()
        encoder.write_string("ab")
        data = encoder.getvalue()
        assert data[:4] == b"\x00\x00\x00\x03"  # length counts NUL
        assert data[4:7] == b"ab\x00"

    def test_string_roundtrip_unicode(self):
        encoder = CdrEncoder()
        encoder.write_string("héllo wörld")
        assert CdrDecoder(encoder.getvalue()).read_string() == "héllo wörld"

    def test_underflow_raises(self):
        with pytest.raises(MarshalError):
            CdrDecoder(b"\x00\x00").read_long()

    def test_negative_values(self):
        encoder = CdrEncoder()
        encoder.write_long(-42)
        encoder.write_longlong(-(2**40))
        decoder = CdrDecoder(encoder.getvalue())
        assert decoder.read_long() == -42
        assert decoder.read_longlong() == -(2**40)


class TestAny:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**31 - 1, -2**31, 2**40, -2**40,
        2**100, -2**100, 1.5, -0.25, "", "hello", "quoted 'str'",
        b"", b"\x00\xff", datetime.date(1999, 3, 1),
        [], [1, 2, 3], ["a", None, True], {}, {"k": 1},
        {"nested": {"list": [1, [2, {"deep": None}]]}},
    ])
    def test_roundtrip(self, value):
        assert decode_any(encode_any(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode_any(encode_any((1, 2))) == [1, 2]

    def test_both_endiannesses(self):
        value = {"x": [1.5, "s", None]}
        for little in (False, True):
            assert decode_any(encode_any(value, little), little) == value

    def test_unsupported_type_raises(self):
        with pytest.raises(MarshalError):
            encode_any(object())

    def test_non_string_struct_key_raises(self):
        with pytest.raises(MarshalError):
            encode_any({1: "x"})

    def test_unknown_tag_raises(self):
        with pytest.raises(MarshalError):
            decode_any(b"\xfa")


def nested_sequences(levels: int, encoder: CdrEncoder = None) -> bytes:
    """*levels* one-element sequences around a null, written tag by tag
    (the encoder's own ``write_any`` refuses past MAX_NESTING): 5,000
    levels are a 40 KB frame that used to end in RecursionError."""
    encoder = encoder or CdrEncoder()
    for __ in range(levels):
        encoder.write_octet(TAG_SEQUENCE)
        encoder.write_ulong(1)
    encoder.write_octet(TAG_NULL)
    return encoder.getvalue()


class TestNestingBound:
    def test_decoding_past_the_bound_is_a_marshal_error(self):
        with pytest.raises(MarshalError, match="nested too deeply"):
            decode_any(nested_sequences(5000))
        with pytest.raises(MarshalError, match="nested too deeply"):
            decode_any(nested_sequences(MAX_NESTING + 1))

    def test_the_bound_itself_decodes_and_encodes(self):
        value = decode_any(nested_sequences(MAX_NESTING))
        assert encode_any(value) == nested_sequences(MAX_NESTING)
        for __ in range(MAX_NESTING - 1):
            value = value[0]
        assert value == [None]

    def test_the_bound_is_far_above_any_legitimate_value(self):
        # A row inside a result inside a struct inside a reply is 4.
        assert MAX_NESTING >= 8 * 4

    def test_self_referential_values_are_a_marshal_error(self):
        loop = []
        loop.append(loop)
        with pytest.raises(MarshalError, match="nested too deeply"):
            encode_any(loop)
        knot = {}
        knot["self"] = knot
        with pytest.raises(MarshalError, match="nested too deeply"):
            encode_any({"rows": [knot]})

    def test_siblings_do_not_accumulate_depth(self):
        wide = [[[index]] for index in range(10 * MAX_NESTING)]
        assert decode_any(encode_any(wide)) == wide


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2**130, max_value=2**130),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=40),
        st.binary(max_size=40),
        st.dates(min_value=datetime.date(1, 1, 10),
                 max_value=datetime.date(9999, 12, 20)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20)


@given(value=json_like)
@settings(max_examples=150, deadline=None)
def test_any_roundtrip_property(value):
    """Every supported value survives encode -> decode exactly."""
    assert decode_any(encode_any(value)) == value


@given(value=json_like, little=st.booleans())
@settings(max_examples=80, deadline=None)
def test_any_roundtrip_endianness_property(value, little):
    assert decode_any(encode_any(value, little), little) == value


@given(values=st.lists(json_like, max_size=6))
@settings(max_examples=60, deadline=None)
def test_sequential_values_share_stream(values):
    """Multiple values encoded back-to-back decode in order (alignment
    bookkeeping must be consistent across the whole stream)."""
    encoder = CdrEncoder()
    for value in values:
        encoder.write_any(value)
    decoder = CdrDecoder(encoder.getvalue())
    for value in values:
        assert decoder.read_any() == value
    assert decoder.remaining() == 0


# ----------------------------------------------------- zero-copy decoding --


@given(value=json_like)
@settings(max_examples=80, deadline=None)
def test_memoryview_decode_equals_bytes_decode(value):
    """Decoding a memoryview of the encoded bytes — as the event-loop
    transport does with frames sliced from its receive buffer — yields
    exactly what decoding the bytes themselves does."""
    encoded = encode_any(value)
    from_bytes = CdrDecoder(encoded).read_any()
    from_view = CdrDecoder(memoryview(encoded)).read_any()
    assert from_view == from_bytes == value


def test_memoryview_decode_accepts_offset_slices():
    """A decoder over a view into the middle of a larger buffer (a
    frame inside a coalesced recv) sees only its own bytes."""
    payload = encode_any(["abc", 42, {"k": b"\x00\xff"}])
    padded = b"\xde\xad" + payload + b"\xbe\xef"
    view = memoryview(padded)[2:2 + len(payload)]
    assert CdrDecoder(view).read_any() == ["abc", 42, {"k": b"\x00\xff"}]


def test_decoded_values_survive_buffer_release():
    """Escaping values (strings, octets) are materialised: they stay
    valid after the receive buffer's view is released."""
    encoded = encode_any({"name": "codb", "blob": b"xyz"})
    view = memoryview(bytearray(encoded))  # writable, releasable buffer
    decoded = CdrDecoder(view).read_any()
    view.release()
    assert decoded == {"name": "codb", "blob": b"xyz"}


def test_getvalue_is_cached_and_invalidated_on_append():
    """getvalue() is a snapshot: twice in a row the bytes are equal, and
    what is appended afterwards shows in the next one, not in those.
    (Named for the chunk-list encoder, which cached a join; the one
    bytearray has nothing to cache, so identity is no longer promised.)"""
    encoder = CdrEncoder()
    encoder.write_string("hello")
    first = encoder.getvalue()
    assert encoder.getvalue() == first
    assert type(first) is bytes
    encoder.write_ulong(7)
    second = encoder.getvalue()
    assert second != first and len(first) == 10
    assert second.startswith(first)
    decoder = CdrDecoder(second)
    assert decoder.read_string() == "hello"
    assert decoder.read_ulong() == 7


def test_getvalue_cache_preserves_length_accounting():
    encoder = CdrEncoder()
    encoder.write_ulong(1)
    assert len(encoder.getvalue()) == len(encoder) == 4
    encoder.write_double(2.5)  # 8-aligned: pads to 8 then writes 8
    assert len(encoder.getvalue()) == len(encoder) == 16


class TestEncodeBoundary:
    """The mirror of the decode boundary: whatever the encoder is handed
    it writes, or raises MarshalError — never UnicodeEncodeError or
    struct.error."""

    @pytest.mark.parametrize("value", [
        "\ud800", ["ok", "lone \udfff"], {"key": "\ud800"},
        {"\ud800": 1}, ("x", {"deep": ["\ud800"]})],
        ids=["any", "sequence", "struct value", "struct key", "nested"])
    def test_a_lone_surrogate_is_a_marshal_error(self, value):
        for little_endian in (False, True):
            with pytest.raises(MarshalError, match="CDR string"):
                encode_any(value, little_endian)

    def test_a_string_primitive_utf8_cannot_carry(self):
        with pytest.raises(MarshalError, match="CDR string"):
            CdrEncoder().write_string("\ud800")

    def test_an_operation_name_or_a_context_utf8_cannot_carry(self):
        from repro.orb.giop import RequestMessage, encode_message
        for request in (
                RequestMessage(1, b"key", "op\ud800"),
                RequestMessage(1, b"key", "op", ["\ud800"]),
                RequestMessage(1, b"key", "op",
                               service_context=[(0xBEEF, "\ud800")])):
            with pytest.raises(MarshalError, match="CDR string"):
                encode_message(request)

    @pytest.mark.parametrize("write, value", [
        ("write_short", 2**15), ("write_ushort", -1), ("write_ushort", 2**16),
        ("write_long", 2**40), ("write_long", -2**31 - 1),
        ("write_ulong", -1), ("write_ulong", 2**32),
        ("write_longlong", 2**63), ("write_double", 10**400),
        ("write_long", "7"), ("write_double", None)])
    def test_a_value_its_primitive_cannot_hold(self, write, value):
        for little_endian in (False, True):
            encoder = CdrEncoder(little_endian)
            with pytest.raises(MarshalError, match="cannot marshal"):
                getattr(encoder, write)(value)

    def test_an_array_checks_every_element(self):
        encoder = CdrEncoder()
        encoder.write_array("i", [1, 2, 3])
        assert CdrDecoder(encoder.getvalue()).read_array("i", 3) == (1, 2, 3)
        with pytest.raises(MarshalError, match="array"):
            encoder.write_array("i", [1, 2**31])
        with pytest.raises(MarshalError, match="array"):
            encoder.write_array("I", [1, None])

    def test_a_request_id_a_ulong_cannot_hold(self):
        from repro.orb.giop import ReplyMessage, ReplyStatus, encode_message
        with pytest.raises(MarshalError, match="cannot marshal"):
            encode_message(ReplyMessage(2**32, ReplyStatus.NO_EXCEPTION))


class TestArrays:
    def test_an_array_is_aligned_once_and_packed(self):
        for little_endian in (False, True):
            encoder = CdrEncoder(little_endian)
            encoder.write_octet(1)
            encoder.write_array("q", [1, -2])
            encoder.write_array("?", [True, False, True])
            encoder.write_array("d", [])
            data = encoder.getvalue()
            assert len(data) == 8 + 16 + 3 + 5   # the empty array pads too
            decoder = CdrDecoder(memoryview(data), little_endian)
            assert decoder.read_octet() == 1
            assert decoder.read_array("q", 2) == (1, -2)
            assert decoder.read_array("?", 3) == (True, False, True)
            assert decoder.read_array("d", 0) == ()
            assert decoder.remaining() == 0

    def test_an_array_longer_than_what_is_left_is_refused_unbuilt(self):
        decoder = CdrDecoder(bytes(64))
        with pytest.raises(MarshalError, match="underflow"):
            decoder.read_array("q", 0xFFFFFFFF)
        with pytest.raises(MarshalError, match="underflow"):
            decoder.read_array("B", 65)
        assert decoder.read_array("B", 64) == (0,) * 64
