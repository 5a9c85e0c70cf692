"""Property and fuzz suite for the CDR codec and the GIOP framer.

**Round trip.**  Hypothesis builds values from every ``any`` tag —
primitives, sequences, structs and the registered value types
(``SourceDescription``, ``Coalition``, ``ServiceLink``,
``EndpointKind``, ``ResultSet``), nested in sequences, in structs and
in each other — and requires ``decode_any(encode_any(v))`` to be the
same value in both byte orders: equal, node for node of the same class
(``True`` is not ``1``, a ``Coalition`` is not its struct).

**Packed columns.**  A ``ResultSet`` travels column-packed
(``gateway/bridge.py``): the ``result_sets`` strategy draws every column
kind, the per-cell ``any`` fallback, nulls anywhere, ``True`` among
ints, ``long`` -> ``long long`` -> bigint promotion inside one column,
NaN and ``-0.0`` (compared bit for bit), strings with embedded NUL /
empty / astral, zero columns x n rows, n columns x zero rows, and
2,000-row results.

**Fuzz.**  Every truncation and every single-byte corruption of a valid
encoding — standalone, and inside a whole GIOP Request and Reply frame
through ``decode_message`` — ends in a value or a ``MarshalError``:
never another exception, never a stall.  The exhaustive sweeps run over
one fixed sample that uses every tag and every column kind; hypothesis
repeats them at random positions of random values.  Hostile counts
(``0xFFFFFFFF`` rows, columns, nulls, blob octets) are refused before
anything is allocated.

Tier-1 runs hypothesis's default example count derandomised and, at
each position of the sweeps, the replacement octets most likely to
matter (every tag, the extremes, each single-bit flip); CI's
``cdr-fuzz`` job loads the ``ci`` profile of ``tests/conftest.py`` (ten
times the examples, ``--hypothesis-seed``) and sweeps all 256.
"""

import dataclasses
import datetime
import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import bridge  # (importing it registers ResultSet)
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


longs = st.integers(min_value=-2**31, max_value=2**31 - 1)
#: What one packed column may hold, by kind — each also drawn with
#: nulls.  Mixing ``longs`` with wider integers promotes the column
#: (long long, then the per-cell fallback for a bigint); a boolean
#: among integers is two exact types, so the fallback again.
COLUMN_CELLS = [
    longs, longs | st.integers(min_value=-2**63, max_value=2**63 - 1),
    longs | st.integers(min_value=-2**70, max_value=2**70),
    longs | st.booleans(), st.floats() | st.sampled_from([-0.0, 0.0]),
    st.dates(), st.booleans(),
    st.text(max_size=8) | st.sampled_from(["", "\x00", "a\x00b", "𝄞😀"]),
]
rowcounts = st.none() | st.integers(min_value=0, max_value=10**6) \
    | st.just(2**40)


def result_sets(cells):
    """Results of 0-4 columns x 0-4 rows: each column homogeneous of
    one packed kind (with nulls anywhere) or of any *cells* at all."""
    def column(count):
        return st.one_of(*(
            st.lists(st.none() | kind, min_size=count, max_size=count)
            for kind in (*COLUMN_CELLS, cells)))

    def build(count, columns, names, rowcount):
        rows = list(zip(*columns)) if columns else [()] * count
        return ResultSet(names[:len(columns)], rows, rowcount)
    return st.integers(0, 4).flatmap(lambda count: st.builds(
        build, st.just(count), st.lists(column(count), max_size=4),
        st.lists(names, min_size=4, max_size=4), rowcounts))


#: 2,000 rows: a few drawn cells per column, tiled.
big_result_sets = st.builds(
    lambda pools: ResultSet(
        [str(index) for index in range(len(pools))],
        list(zip(*([pool[row % len(pool)] for row in range(2000)]
                   for pool in pools)))),
    st.lists(st.one_of(*(st.lists(st.none() | kind, min_size=1, max_size=7)
                         for kind in COLUMN_CELLS)),
             min_size=1, max_size=3))


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
    if isinstance(a, float):  # bit for bit: NaN payloads, -0.0
        return struct.pack("d", a) == struct.pack("d", b)
    return a == b


#: One compact value using every tag and every column kind, value types
#: inside containers inside value types: the subject of the exhaustive
#: sweeps.
SAMPLE = {
    "primitives": [None, True, False, -7, 2**40, -2**70, 2.5, "hé",
                   b"\x00\xff", datetime.date(1999, 3, 23)],
    "link": ServiceLink(EndpointKind.DATABASE, "ATO",
                        EndpointKind.COALITION, "Medical", contact="RBH"),
    "result": ResultSet(["cell"], [(Coalition("C", "t", members=[
        EndpointKind.COALITION]),), (None,)]),
    "packed": ResultSet(
        ["long", "long long", "double", "date", "boolean", "string", "any"],
        [(None, 2**40, -0.0, datetime.date(1999, 3, 23), True, "hé", 1),
         (-7, None, 2.5, None, None, "", True),
         (7, -1, None, datetime.date.min, False, None, None)],
        rowcount=2**40),
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
    # The tags are read back from the encoded bytes: the decoder's
    # dispatch table, indexed by tag octet, says which it met.
    met = set()
    monkeypatch.setattr(cdr, "_READERS", tuple(
        lambda decoder, tag=tag, reader=reader: (met.add(tag),
                                                 reader(decoder))[1]
        for tag, reader in enumerate(cdr._READERS)))
    assert same(decode_any(encode_any(SAMPLE)), SAMPLE)
    assert met == tags
    # ...and the packed result uses every column kind, fallback included.
    kinds = set()
    for column in zip(*SAMPLE["packed"].rows):
        encoder = CdrEncoder()
        bridge._write_column(encoder, column)
        kinds.add(encoder.getvalue()[0])
    assert kinds == set(range(7))


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
    class Stranger:
        pass

    hooks = cdr.struct_value(vars, Stranger)
    with pytest.raises(MarshalError, match="already taken"):
        cdr.register_value("Coalition", Stranger, *hooks)
    # Registering the owner again (a module re-import) is harmless.
    cdr.register_value("Coalition", Coalition, *cdr.struct_value(
        Coalition.to_wire, Coalition.from_wire))
    assert same(decode_any(encode_any(SAMPLE)), SAMPLE)
    assert Stranger not in cdr._WRITERS


@pytest.mark.parametrize("payload", [
    None, 7, "text", [1, 2], {"interface": 5}, {"structure": None}])
def test_a_misshapen_value_payload_is_a_marshal_error(payload):
    """A read hook runs on outside input: for each value type, a stream
    that is not what its write hook puts there — here the type id
    followed by some other ``any`` — is a value (the hook may accept
    it) or the codec's error naming the class, never the hook's own."""
    for type_id in ("SourceDescription", "ServiceLink", "EndpointKind",
                    "ResultSet/2"):
        name = type_id.partition("/")[0]
        encoder = CdrEncoder()
        encoder.write_octet(cdr.TAG_VALUE)
        encoder.write_string(type_id)
        encoder.write_any(payload)
        try:
            decode_any(encoder.getvalue())
        except MarshalError as exc:
            assert f"malformed {name} value" in str(exc)
            assert exc.__cause__ is not None
    # The id of the row-per-struct form this codec used to carry is
    # unknown now: a stale peer is refused, never misparsed.
    encoder = CdrEncoder()
    encoder.write_octet(cdr.TAG_VALUE)
    encoder.write_string("ResultSet")
    encoder.write_any({"columns": ["a"], "rows": [[1]], "rowcount": 1})
    with pytest.raises(MarshalError, match="unknown CDR value type"):
        decode_any(encoder.getvalue())


def test_whatever_a_write_hook_raises_is_a_marshal_error():
    ragged = ResultSet(["a", "b"], [(1, 2), (3,)])
    with pytest.raises(MarshalError, match="cannot marshal ResultSet") as info:
        encode_any([ragged])
    assert isinstance(info.value.__cause__, ValueError)  # zip(strict=True)
    with pytest.raises(MarshalError, match="not 1 cells wide"):
        encode_any(ResultSet(["a"], [(1, 2), (3, 4)]))
    with pytest.raises(MarshalError, match="cannot marshal ResultSet"):
        encode_any(ResultSet(["a"], [("\ud800",), ("x",)]))
    # Nesting is counted across hooks: values in cells in values ...
    value = 0
    for _ in range(cdr.MAX_NESTING):
        value = ResultSet(["cell"], [(value,)])
    assert same(decode_any(encode_any(value)), value)
    with pytest.raises(MarshalError, match="nested too deeply"):
        encode_any([value])


# ------------------------------------------------------ packed columns --


@given(result=big_result_sets, little_endian=st.booleans())
@settings(SETTINGS, max_examples=max(5, SETTINGS.max_examples // 10))
def test_a_2000_row_result_round_trips(result, little_endian):
    arrived = decode_any(encode_any(result, little_endian), little_endian)
    assert same(arrived, result)


@pytest.mark.parametrize("holes", [(0,), (4,), (0, 4), (0, 1, 2, 3, 4)],
                         ids=["first", "last", "both", "every"])
def test_nulls_at_any_position_of_every_packed_kind(holes):
    day = datetime.date(1999, 3, 23)
    full = [(n, 2**40 + n, n / 2 or -0.0, day, n % 2 == 0, f"s{n}\x00𝄞")
            for n in range(5)]
    rows = [(None,) * 6 if index in holes else row
            for index, row in enumerate(full)]
    result = ResultSet(list("abcdef"), rows)
    for little_endian in (False, True):
        assert same(decode_any(encode_any(result, little_endian),
                               little_endian), result)


def test_a_column_is_packed_by_exact_type_only():
    result = ResultSet(
        ["true among ints", "promoted", "bigint", "nan"],
        [(1, 1, 1, float("nan")), (True, 2**31, 2**63, -0.0),
         (0, -2**63, -1, 0.0)])
    arrived = decode_any(encode_any(result))
    assert same(arrived, result)
    assert arrived.rows[1][0] is True and arrived.rows[2][0] == 0
    assert arrived.rows[2][0] is not False


def test_a_packed_result_is_smaller_and_keeps_empty_rows():
    rows = [(n, f"Patient {n:04d}", datetime.date(1970, 1, 1), "MF"[n % 2],
             f"{n} Example St, Brisbane") for n in range(500)]
    result = ResultSet(["PatientId", "Name", "DateOfBirth", "Gender",
                        "Address"], rows)
    assert len(encode_any(result)) <= 30_000
    for empty in (ResultSet([], [(), (), ()]), ResultSet(["a", "b"], []),
                  ResultSet.empty(2**40)):
        arrived = decode_any(encode_any(empty))
        assert same(arrived, empty) and len(arrived) == len(empty)


def hostile(build):
    """``TAG_VALUE``, the ResultSet id, then whatever *build* writes."""
    encoder = CdrEncoder()
    encoder.write_octet(cdr.TAG_VALUE)
    encoder.write_string("ResultSet/2")
    build(encoder)
    return encoder.getvalue()


def header(encoder, names, rows):
    encoder.write_ulong(len(names))
    for name in names:
        encoder.write_string(name)
    encoder.write_any(0)
    encoder.write_ulong(rows)


HUGE = 0xFFFFFFFF
HOSTILE = {
    "columns": lambda e: e.write_ulong(HUGE),
    "rows": lambda e: (header(e, ["a"], HUGE), e.write_octet(bridge._LONG),
                       e.write_ulong(0)),
    "empty rows": lambda e: header(e, [], HUGE),
    "nulls": lambda e: (header(e, ["a"], 2), e.write_octet(bridge._LONG),
                        e.write_ulong(HUGE), e.write_array("i", [1, 2])),
    "blob": lambda e: (header(e, ["a"], 2), e.write_octet(bridge._STRING),
                       e.write_ulong(0), e.write_array("I", [1, 1]),
                       e.write_ulong(HUGE), e.write_octet(0x61)),
}


@pytest.mark.parametrize("count", list(HOSTILE))
def test_a_hostile_count_is_refused_before_anything_is_allocated(count):
    frame = encode_message(ReplyMessage(
        request_id=1, status=ReplyStatus.NO_EXCEPTION, body=None))[:-1] \
        + hostile(HOSTILE[count])
    frame = frame[:8] + struct.pack(">I", len(frame) - 12) + frame[12:]
    tracemalloc.start()
    try:
        for decode, data in ((decode_any, hostile(HOSTILE[count])),
                             (decode_message, frame)):
            with pytest.raises(MarshalError, match="ResultSet"):
                decode(data)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("damage, complaint", [
    (lambda e: (header(e, ["a"], 1), e.write_octet(9)), "column kind"),
    (lambda e: (header(e, ["a"], 2), e.write_octet(bridge._LONG),
                e.write_ulong(1), e.write_array("I", [2]),
                e.write_array("i", [1, 2])), "index"),
    (lambda e: (header(e, ["a"], 2), e.write_octet(bridge._STRING),
                e.write_ulong(0), e.write_array("I", [1, 2]),
                e.write_octets(b"ab")), "add up"),
    (lambda e: (header(e, ["a"], 1), e.write_octet(bridge._STRING),
                e.write_ulong(0), e.write_array("I", [1]),
                e.write_octets(b"\xff")), "utf-8"),
    (lambda e: (header(e, ["a"], 1), e.write_octet(bridge._DATE),
                e.write_ulong(0), e.write_array("i", [0])), "ordinal"),
    (lambda e: (e.write_ulong(0), e.write_any("many"), e.write_ulong(0)),
     "rowcount"),
], ids=["kind", "null index", "lengths", "blob", "date", "rowcount"])
def test_a_packed_column_that_does_not_add_up_is_a_marshal_error(
        damage, complaint):
    with pytest.raises(MarshalError, match=complaint):
        decode_any(hostile(damage))


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
