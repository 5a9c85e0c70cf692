"""Property and fuzz suite for the CDR codec and the GIOP framer.

**Round trip.**  Hypothesis builds values from every ``any`` tag —
primitives, sequences, structs and the registered value types
(``SourceDescription``, ``Coalition``, ``ServiceLink``,
``EndpointKind``, ``ResultSet``), nested in sequences, in structs and
in each other — and requires ``decode_any(encode_any(v))`` to be the
same value in both byte orders: equal, node for node of the same class
(``True`` is not ``1``, a ``Coalition`` is not its struct).

**Fuzz.**  Every truncation and every single-byte corruption of a valid
encoding — standalone, and inside a whole GIOP Request and Reply frame
through ``decode_message`` — ends in a value or a ``MarshalError``:
never another exception, never a stall.  The exhaustive sweeps run over
one fixed sample that uses every tag; hypothesis repeats them at random
positions of random values.

Tier-1 runs hypothesis's default example count derandomised and, at
each position of the sweeps, the replacement octets most likely to
matter (every tag, the extremes, each single-bit flip); CI's
``cdr-fuzz`` job loads the ``ci`` profile of ``tests/conftest.py`` (ten
times the examples, ``--hypothesis-seed``) and sweeps all 256.
"""

import dataclasses
import datetime
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gateway.bridge  # noqa: F401  (registers ResultSet)
from repro.core.coalition import Coalition
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import MarshalError
from repro.orb import cdr
from repro.orb.cdr import CdrEncoder, decode_any, encode_any
from repro.orb.giop import (ReplyMessage, ReplyStatus, RequestMessage,
                            decode_message, encode_message)
from repro.sql.result import ResultSet

CI_PROFILE = settings.default is settings.get_profile("ci")
SETTINGS = settings.default if CI_PROFILE \
    else settings(derandomize=True, deadline=None)

#: No single decode of a few hundred octets may take longer (seconds).
#: Generous: it has to absorb a descheduled CI runner, not a slow codec.
STALL = 2.0

# ------------------------------------------------------------- values --

names = st.text(max_size=12)
kinds = st.sampled_from(list(EndpointKind))

primitives = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**31, max_value=2**31 - 1),       # long
    st.integers(min_value=-2**63, max_value=2**63 - 1),       # long long
    st.integers(min_value=-2**200, max_value=2**200),         # bigint
    st.floats(allow_nan=False), st.text(max_size=20),
    st.binary(max_size=20),
    st.dates(), kinds)

links = st.builds(ServiceLink, kinds, names, kinds, names, names, names,
                  names)


descriptions = st.builds(SourceDescription, names, names, names, names,
                         names, st.lists(names, max_size=3), names, names,
                         st.lists(names, max_size=3))


def coalitions(cells):
    # ``members`` is a list the model never inspects: any value nests.
    return st.builds(Coalition, names, names, st.none() | names, names,
                     st.lists(cells, max_size=3))


def result_sets(cells):
    def build(columns, rows, rowcount):
        return ResultSet(columns, [row[:len(columns)] for row in rows],
                         rowcount)
    return st.builds(build, st.lists(names, max_size=3),
                     st.lists(st.lists(cells, min_size=3, max_size=3),
                              max_size=3),
                     st.none() | st.integers(min_value=0, max_value=10**6))


#: Any value the codec carries: containers and value types hold each
#: other to any (small) depth.  Sequences are lists — a tuple is carried
#: too but, like every CDR sequence, comes back as a list.
values = st.recursive(
    primitives | links,
    lambda cells: st.one_of(
        st.lists(cells, max_size=4),
        st.dictionaries(st.text(max_size=8), cells, max_size=4),
        descriptions, coalitions(cells), result_sets(cells)),
    max_leaves=12)


def same(a, b):
    """Equal, and of the same class at every node."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ResultSet):
        return same([a.columns, a.rowcount, [list(row) for row in a.rows]],
                    [b.columns, b.rowcount, [list(row) for row in b.rows]])
    if dataclasses.is_dataclass(a):
        return same(vars(a), vars(b))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[key], b[key]) for key in a)
    return a == b


#: One compact value using every tag, value types inside containers
#: inside value types: the subject of the exhaustive sweeps.
SAMPLE = {
    "primitives": [None, True, False, -7, 2**40, -2**70, 2.5, "hé",
                   b"\x00\xff", datetime.date(1999, 3, 23)],
    "link": ServiceLink(EndpointKind.DATABASE, "ATO",
                        EndpointKind.COALITION, "Medical", contact="RBH"),
    "result": ResultSet(["cell"], [(Coalition("C", "t", members=[
        EndpointKind.COALITION]),), (None,)]),
}


def frames():
    """A Request and a Reply that each carry :data:`SAMPLE`."""
    return [
        encode_message(RequestMessage(
            request_id=9, object_key=b"orb/X/obj", operation="echo",
            arguments=[SAMPLE, "second"],
            service_context=[(0xBEEF, "Orbix")])),
        encode_message(ReplyMessage(
            request_id=9, status=ReplyStatus.NO_EXCEPTION, body=SAMPLE)),
    ]


def replacements(original):
    """The octets to try in place of *original*."""
    if CI_PROFILE:
        return range(256)
    return {*range(16), 0x7F, 0x80, 0xFE, 0xFF,
            *(original ^ (1 << bit) for bit in range(8))}


def survives(decode, data):
    """*decode* ends in a value or a MarshalError, promptly."""
    started = time.perf_counter()
    try:
        decode(data)
    except MarshalError:
        pass
    assert time.perf_counter() - started < STALL


# --------------------------------------------------------- round trip --


@given(value=values, little_endian=st.booleans())
@SETTINGS
def test_every_value_round_trips_in_both_byte_orders(value, little_endian):
    data = encode_any(value, little_endian)
    assert same(decode_any(data, little_endian), value)


@given(value=st.one_of(links, descriptions, coalitions(names),
                       result_sets(primitives), kinds),
       little_endian=st.booleans())
@SETTINGS
def test_a_model_object_arrives_as_an_equal_object_of_its_class(
        value, little_endian):
    arrived = decode_any(encode_any(value, little_endian), little_endian)
    assert type(arrived) is type(value)
    assert same(arrived, value)
    if not isinstance(value, ResultSet):  # the dataclasses define ==
        assert arrived == value
    # ...and is never the sender's object: GIOP copies.
    assert arrived is not value or isinstance(value, EndpointKind)


def test_the_sample_uses_every_tag_and_round_trips(monkeypatch):
    for little_endian in (False, True):
        data = encode_any(SAMPLE, little_endian)
        assert same(decode_any(data, little_endian), SAMPLE)
    tags = {getattr(cdr, name) for name in dir(cdr)
            if name.startswith("TAG_")}
    assert tags == set(range(13))
    written, write_octet = set(), CdrEncoder.write_octet
    monkeypatch.setattr(
        CdrEncoder, "write_octet",
        lambda self, value: (written.add(value), write_octet(self, value)))
    encode_any(SAMPLE)
    assert tags <= written


@given(value=values)
@SETTINGS
def test_a_struct_is_just_a_struct(value):
    """No key is magic: the tag conventions this codec replaced wrapped
    model objects in ``{"__kind__": ...}`` structs; a dict that happens
    to carry that key is a dict."""
    for kind in ("source", "coalition", "link", "resultset", "scalar"):
        struct = {"__kind__": kind, "value": value, "rows": [value]}
        assert same(decode_any(encode_any(struct)), struct)


def test_an_unregistered_type_id_is_a_marshal_error():
    encoder = CdrEncoder()
    encoder.write_octet(cdr.TAG_VALUE)
    encoder.write_string("NoSuchValueType")
    encoder.write_any({"name": "x"})
    with pytest.raises(MarshalError, match="NoSuchValueType"):
        decode_any(encoder.getvalue())


def test_an_unregistered_class_is_a_marshal_error():
    class Stranger:
        pass

    with pytest.raises(MarshalError, match="Stranger"):
        encode_any([Stranger()])


def test_a_type_id_names_one_class():
    with pytest.raises(MarshalError, match="already taken"):
        cdr.register_value("Coalition", dict, dict, dict)
    # Registering the owner again (a module re-import) is harmless.
    cdr.register_value("Coalition", Coalition, Coalition.to_wire,
                       Coalition.from_wire)


@pytest.mark.parametrize("payload", [
    None, 7, "text", [1, 2], {"interface": 5}, {"structure": None}])
def test_a_misshapen_value_payload_is_a_marshal_error(payload):
    """``from_wire`` validates a struct of the right shape; anything it
    raises on another shape surfaces as the codec's error."""
    for type_id in ("SourceDescription", "ServiceLink", "EndpointKind",
                    "ResultSet"):
        encoder = CdrEncoder()
        encoder.write_octet(cdr.TAG_VALUE)
        encoder.write_string(type_id)
        encoder.write_any(payload)
        try:
            decode_any(encoder.getvalue())
        except MarshalError as exc:
            assert type_id in str(exc)


# --------------------------------------------------------------- fuzz --


def test_every_truncation_of_the_sample_and_its_frames():
    for little_endian in (False, True):
        data = encode_any(SAMPLE, little_endian)
        for cut in range(len(data)):
            survives(lambda d: decode_any(d, little_endian), data[:cut])
    for frame in frames():
        for cut in range(len(frame)):
            survives(decode_message, frame[:cut])
            # The header still announces the full body: a short read.
            survives(decode_message, memoryview(frame)[:cut])


@pytest.mark.parametrize("reply", [False, True], ids=["request", "reply"])
def test_every_single_byte_corruption_of_a_frame_carrying_the_sample(reply):
    frame = bytearray(frames()[reply])
    for position, original in enumerate(bytes(frame)):
        for replacement in replacements(original):
            frame[position] = replacement
            survives(decode_message, frame)
        frame[position] = original


@given(value=values, little_endian=st.booleans(), data=st.data())
@SETTINGS
def test_random_damage_to_random_values(value, little_endian, data):
    encoded = bytearray(encode_any(value, little_endian))
    cut = data.draw(st.integers(0, len(encoded)), label="cut")
    survives(lambda d: decode_any(d, little_endian), bytes(encoded[:cut]))
    position = data.draw(st.integers(0, len(encoded) - 1), label="position")
    encoded[position] = data.draw(st.integers(0, 255), label="replacement")
    survives(lambda d: decode_any(d, little_endian), bytes(encoded))


@given(value=values, reply=st.booleans(), data=st.data())
@SETTINGS
def test_random_damage_to_random_frames(value, reply, data):
    message = ReplyMessage(request_id=3, status=ReplyStatus.NO_EXCEPTION,
                           body=value) if reply \
        else RequestMessage(request_id=3, object_key=b"k", operation="op",
                            arguments=[value])
    frame = bytearray(encode_message(
        message, little_endian=data.draw(st.booleans(), label="little")))
    decoded = decode_message(bytes(frame))
    assert same(decoded.body if reply else decoded.arguments[0], value)
    cut = data.draw(st.integers(0, len(frame)), label="cut")
    survives(decode_message, bytes(frame[:cut]))
    position = data.draw(st.integers(0, len(frame) - 1), label="position")
    frame[position] = data.draw(st.integers(0, 255), label="replacement")
    survives(decode_message, bytes(frame))


@given(junk=st.binary(max_size=96))
@SETTINGS
def test_random_octets_are_a_value_or_a_marshal_error(junk):
    survives(decode_any, junk)
    survives(decode_message, b"GIOP\x01\x00\x00\x00" + junk)
    survives(decode_message, b"GIOP\x01\x00\x01\x01" + junk)
