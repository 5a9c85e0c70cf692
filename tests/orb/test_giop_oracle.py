"""Differential oracle for the compiled GIOP framer.

``orb/giop.py`` packs and unpacks message heads with precompiled
structs at tracked offsets; ``giop_reference.py`` is the framer it
replaced, one generic CDR call per field.  Hypothesis generates messages
of all four kinds — both byte orders, oneway requests, request ids 0 and
2**32 - 1, empty and non-ASCII object keys, zero to three service
contexts with non-ASCII values — and requires:

* both framers write identical bytes;
* for the frame, every truncation of it and every single-byte
  corruption of it (at each position, the replacement octets most
  likely to matter), ``decode_message``, ``peek_request`` and
  ``peek_request_admission`` of both return equal results, or both
  decoders raise ``MarshalError``.

Tier-1 runs a derandomised sample; CI's ``cdr-fuzz`` job loads the
``ci`` profile of ``tests/conftest.py`` (ten times the examples, drawn
from ``--hypothesis-seed``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.orb import giop
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, ORB_PRODUCT_CONTEXT,
                            TRAFFIC_CLASS_CONTEXT, LocateReplyMessage,
                            LocateRequestMessage, LocateStatus, ReplyMessage,
                            ReplyStatus, RequestMessage)
from tests.orb import giop_reference as reference

CI_PROFILE = settings.default is settings.get_profile("ci")
#: Each example sweeps a few thousand damaged frames through six calls.
EXAMPLES = 30
SETTINGS = settings(settings.default, max_examples=10 * EXAMPLES) \
    if CI_PROFILE else settings(derandomize=True, deadline=None,
                                max_examples=EXAMPLES)

ids = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)
keys = st.sampled_from([b"", "orb/CoDatabase/Ré".encode(), b"\x00\xff"]) \
    | st.binary(max_size=12)
texts = st.sampled_from(["", "0.250000", "background", "hé", "𝄞 Orbix",
                         "nan", "1e400"]) | st.text(max_size=6)
contexts = st.lists(st.tuples(
    st.sampled_from([ORB_PRODUCT_CONTEXT, DEADLINE_BUDGET_CONTEXT,
                     TRAFFIC_CLASS_CONTEXT]) | st.integers(0, 2**32 - 1),
    texts), max_size=3)
cells = st.one_of(st.none(), st.booleans(),
                  st.integers(-2**31, 2**31 - 1), st.integers(),
                  st.floats(allow_nan=False), texts, st.binary(max_size=4),
                  st.lists(texts, max_size=2))

messages = st.one_of(
    st.builds(RequestMessage, ids, keys, texts, st.lists(cells, max_size=3),
              st.booleans(), contexts),
    st.builds(ReplyMessage, ids, st.sampled_from(list(ReplyStatus)), cells,
              contexts),
    st.builds(LocateRequestMessage, ids, keys),
    st.builds(LocateReplyMessage, ids, st.sampled_from(list(LocateStatus))))


def outcomes(framer, data):
    """What each of the framer's readers makes of *data*: its result, or
    the fact of a ``MarshalError``; any other exception fails the test.
    Compared as ``repr``, so a NaN (a damaged double, a ``"nan"``
    deadline budget) equals itself."""
    try:
        decoded = framer.decode_message(data)
    except MarshalError:
        decoded = MarshalError
    return repr((decoded, framer.peek_request(data),
                 framer.peek_request_admission(data)))


def agree(data):
    assert outcomes(giop, data) == outcomes(reference, data)


def replacements(original):
    return {0x00, 0x01, 0x7F, 0x80, 0xFF,
            *(original ^ (1 << bit) for bit in range(8))} - {original}


@given(message=messages, little_endian=st.booleans())
@SETTINGS
def test_the_compiled_framer_agrees_with_the_reference(message,
                                                       little_endian):
    frame = giop.encode_message(message, little_endian)
    assert frame == reference.encode_message(message, little_endian)
    assert repr(giop.decode_message(frame)) == repr(
        reference.decode_message(frame))
    for cut in range(len(frame) + 1):
        agree(frame[:cut])
    view = memoryview(frame)
    for cut in range(0, len(frame) + 1, 7):
        agree(view[:cut])
    damaged = bytearray(frame)
    for position, original in enumerate(frame):
        for replacement in replacements(original):
            damaged[position] = replacement
            agree(bytes(damaged))
        damaged[position] = original


@pytest.mark.parametrize("message", [
    RequestMessage(2**32, b"k", "op"),
    RequestMessage(-1, b"k", "op"),
    RequestMessage(1, b"k", "op\ud800"),
    RequestMessage(1, b"k", "op", ["\ud800"]),
    RequestMessage(1, b"k", "op", service_context=[(2**32, "x")]),
    RequestMessage(1, b"k", "op", service_context=[(1, "\ud800")]),
    ReplyMessage(2**32, ReplyStatus.NO_EXCEPTION),
    ReplyMessage(1, ReplyStatus.NO_EXCEPTION, {1, 2}),
    LocateRequestMessage(-1, b"k"),
    LocateReplyMessage(2**32, LocateStatus.OBJECT_HERE),
], ids=["request id", "negative id", "operation", "argument",
        "context id", "context value", "reply id", "reply body",
        "locate id", "locate reply id"])
@pytest.mark.parametrize("little_endian", [False, True],
                         ids=["big", "little"])
def test_what_neither_framer_can_write_is_a_marshal_error(message,
                                                          little_endian):
    for framer in (giop, reference):
        with pytest.raises(MarshalError):
            framer.encode_message(message, little_endian)


def test_an_unknown_status_is_written_by_both_and_read_by_neither():
    for message in (ReplyMessage(1, 99), LocateReplyMessage(1, 3)):
        frame = giop.encode_message(message)
        assert frame == reference.encode_message(message)
        for framer in (giop, reference):
            with pytest.raises(MarshalError, match="status"):
                framer.decode_message(frame)
