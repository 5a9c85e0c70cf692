"""``ResultSet/4``: the column-major result on the wire.

**Round trip.**  Hypothesis draws results of 0-5 columns and 0-600
rows.  A column is declared — of one ``SqlType``, its cells exactly
``STORED_AS[kind]``, with holes or without: INTEGER past 2**63 and TEXT
with NUL in a cell take their per-cell fallback — or of kind None, where
the cells are sniffed: bool beside int, int beside float, NUL in a
string, ints past 2**63, NaN and -0.0.  After ``decode_any(encode_any)``
every name, kind and cell is equal and of the same exact type (floats
bit for bit), in both byte orders.  A ``datetime`` (beside a date or
not) has no wire form: encoding it is refused, never cut to its date.

**Damage.**  Every truncation of a declared result is a
``MarshalError``; every single-octet corruption ends in a value or a
``MarshalError``; a declared kind the packing cannot carry, or an
``any`` cell that is not of its column's declared kind, is refused; and
hostile counts (rows, nulls, blob octets) under a declared kind are
refused before anything is allocated.

Tier-1 runs hypothesis's default example count derandomised; CI's
``cdr-fuzz`` job loads the ``ci`` profile (ten times the examples,
``--hypothesis-seed``).
"""

import datetime
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.sql import result as bridge  # (importing it registers ResultSet)
from repro.orb.cdr import CdrEncoder, decode_any, encode_any
from repro.sql.result import ResultSet
from repro.sql.types import STORED_AS, SqlType
from tests.orb.test_cdr_properties import (HUGE, header, hostile,
                                           refused_before_allocating,
                                           replacements, survives)

CI_PROFILE = settings.default is settings.get_profile("ci")
SETTINGS = settings.default if CI_PROFILE \
    else settings(derandomize=True, deadline=None)

#: The cells a declared column may hold, by kind: what storage keeps
#: (exactly ``STORED_AS[kind]``), extremes and fallbacks included.
DECLARED_CELLS = {
    SqlType.INTEGER: st.integers(-2**31, 2**31 - 1)
    | st.integers(-2**63, 2**63 - 1) | st.integers(-2**70, 2**70),
    SqlType.REAL: st.floats() | st.sampled_from([-0.0, float("nan")]),
    SqlType.TEXT: st.text(max_size=8) | st.sampled_from(
        ["", "\x00", "a\x00b", "𝄞😀"]),
    SqlType.DATE: st.dates(),
    SqlType.BOOLEAN: st.booleans(),
}
#: The cells of a column of kind None: mixtures the sniff must keep
#: apart, and the exact types it packs.
SNIFFED_CELLS = [
    st.booleans() | st.integers(-5, 5),
    st.integers(-2**70, 2**70) | st.floats(),
    st.integers(2**63 - 2, 2**64),
    st.text(max_size=4) | st.just("a\x00b"),
    st.sampled_from([float("nan"), -0.0, 0.0]),
    st.dates(), st.booleans(), st.text(max_size=4),
]


@st.composite
def columns(draw, count):
    """``(kind, cells)``: a pool of drawn cells, tiled to *count*."""
    kind = draw(st.sampled_from([*SqlType, None]))
    cells = DECLARED_CELLS[kind] if kind is not None \
        else draw(st.sampled_from(SNIFFED_CELLS))
    if draw(st.booleans(), label="holes"):
        cells = st.none() | cells
    pool = draw(st.lists(cells, min_size=1, max_size=9))
    stride = draw(st.integers(1, 7), label="stride")
    return kind, tuple(pool[(row * stride) % len(pool)]
                       for row in range(count))


@st.composite
def results(draw):
    count = draw(st.integers(0, 600) | st.sampled_from([0, 1, 2]))
    drawn = draw(st.lists(columns(count), max_size=5))
    names = draw(st.lists(st.text(max_size=6), min_size=len(drawn),
                          max_size=len(drawn)))
    rowcount = draw(st.none() | st.integers(0, 2**40))
    return ResultSet.from_columns(
        names, [cells for __, cells in drawn], count,
        [kind for kind, __ in drawn], rowcount)


def exactly(a, b):
    """Equal and of the same exact type; floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("d", a) == struct.pack("d", b)
    return a == b


def same_result(a, b):
    return (type(b) is ResultSet and a.columns == b.columns
            and a.kinds == b.kinds and a.rowcount == b.rowcount
            and len(a) == len(b) and len(a.values) == len(b.values)
            and all(len(x) == len(y) and all(map(exactly, x, y))
                    for x, y in zip(a.values, b.values)))


@given(result=results(), little_endian=st.booleans())
@SETTINGS
def test_a_result_round_trips_cell_for_cell_with_its_kinds(
        result, little_endian):
    arrived = decode_any(encode_any(result, little_endian), little_endian)
    assert same_result(result, arrived)
    # Read from the columns and from the rows view alike.
    assert len(arrived.rows) == len(result.rows)
    assert all(len(x) == len(y) and all(map(exactly, x, y))
               for x, y in zip(arrived.rows, result.rows))
    first = arrived.first()
    assert first is None if not len(result) else \
        all(map(exactly, first, result.rows[0]))


@given(cells=st.lists(st.dates() | st.datetimes() | st.none(), min_size=1,
                      max_size=6).filter(
    lambda cells: any(isinstance(cell, datetime.datetime) for cell in cells)))
@SETTINGS
def test_a_datetime_is_refused_never_cut_to_its_date(cells):
    result = ResultSet(["when"], [(cell,) for cell in cells])
    with pytest.raises(MarshalError, match="datetime"):
        encode_any(result)


def test_a_declared_column_is_packed_by_its_kind_without_a_sniff():
    """The packing octet follows the declared kind: a declared column
    of holes only is still packed, where a sniffed one is ``any``."""
    octets = {}
    for kind in SqlType:
        encoder = CdrEncoder()
        bridge._write_column(encoder, (None, None), kind)
        octets[kind] = encoder.getvalue()[0]
    assert {kind: (octet >> 4, octet & 0x0F)
            for kind, octet in octets.items()} == {
        SqlType.INTEGER: (1, bridge._LONG), SqlType.REAL: (2, bridge._DOUBLE),
        SqlType.TEXT: (3, bridge._STRING), SqlType.DATE: (4, bridge._DATE),
        SqlType.BOOLEAN: (5, bridge._BOOLEAN)}
    encoder = CdrEncoder()
    bridge._write_column(encoder, (None, None))
    assert encoder.getvalue()[0] == bridge._ANY


#: A declared result using every kind, holes and both fallbacks.
DECLARED = ResultSet.from_columns(
    ["i", "wide", "big", "r", "t", "nul", "d", "b"],
    [(7, None), (2**40, -1), (2**63, None), (-0.0, None), ("hé", None),
     ("a\x00b", ""), (datetime.date(1999, 3, 23), None), (None, True)], 2,
    [SqlType.INTEGER, SqlType.INTEGER, SqlType.INTEGER, SqlType.REAL,
     SqlType.TEXT, SqlType.TEXT, SqlType.DATE, SqlType.BOOLEAN])


def test_every_truncation_of_a_declared_result_is_refused():
    for little_endian in (False, True):
        data = encode_any(DECLARED, little_endian)
        assert same_result(DECLARED, decode_any(data, little_endian))
        for cut in range(len(data)):
            with pytest.raises(MarshalError):
                decode_any(data[:cut], little_endian)


def test_every_single_octet_corruption_of_a_declared_result():
    data = bytearray(encode_any(DECLARED))
    for position, original in enumerate(bytes(data)):
        for replacement in replacements(original):
            data[position] = replacement
            survives(decode_any, bytes(data))
        data[position] = original


@pytest.mark.parametrize("damage, complaint", [
    (lambda e: (header(e, ["a"], 1), e.write_octet(0x60 | bridge._LONG)),
     "unknown column kind"),
    (lambda e: (header(e, ["a"], 1), e.write_octet(0x20 | bridge._LONG),
                e.write_ulong(0), e.write_array("i", [1])),
     "unknown column kind 33"),
    (lambda e: (header(e, ["a"], 1), e.write_octet(0x30 | bridge._DATE),
                e.write_ulong(0), e.write_array("i", [1])),
     "unknown column kind 52"),
    (lambda e: (header(e, ["a"], 2), e.write_octet(0x10 | bridge._ANY),
                e.write_any(1), e.write_any("one")),
     "INTEGER column holds other cells"),
    (lambda e: (header(e, ["a"], 1), e.write_octet(0x30 | bridge._ANY),
                e.write_any(True)),
     "TEXT column holds other cells"),
], ids=["kind", "real as long", "text as date", "int any", "text any"])
def test_a_declared_kind_the_cells_do_not_bear_out_is_refused(
        damage, complaint):
    with pytest.raises(MarshalError, match=complaint):
        decode_any(hostile(damage))


HOSTILE = {
    "rows": lambda e: (header(e, ["a"], HUGE),
                       e.write_octet(0x10 | bridge._LONG), e.write_ulong(0)),
    "nulls": lambda e: (header(e, ["a"], 2),
                        e.write_octet(0x10 | bridge._LONG),
                        e.write_ulong(HUGE), e.write_array("i", [1, 2])),
    "blob": lambda e: (header(e, ["a"], 2),
                       e.write_octet(0x30 | bridge._STRING),
                       e.write_ulong(0), e.write_ulong(HUGE),
                       e.write_octet(0x61)),
    "any cells": lambda e: (header(e, ["a"], HUGE),
                            e.write_octet(0x10 | bridge._ANY)),
}


@pytest.mark.parametrize("count", list(HOSTILE))
def test_a_hostile_count_under_a_declared_kind_is_refused_before_allocating(
        count):
    refused_before_allocating(hostile(HOSTILE[count]), "ResultSet")


def test_a_declared_kind_is_a_promise_about_the_cells():
    """Every non-null cell of a declared column the engine hands out is
    exactly ``STORED_AS[kind]`` — which is what lets the writer skip the
    sniff; the decoder hands out the same."""
    arrived = decode_any(encode_any(DECLARED))
    for column, kind in zip(arrived.values, arrived.kinds):
        assert all(cell is None or type(cell) is STORED_AS[kind]
                   for cell in column)


def test_the_columns_and_the_rows_view_agree():
    """Column readers never build the rows; the view, once built, is
    kept; both say the same."""
    result = decode_any(encode_any(DECLARED))
    assert (len(result), bool(result), result.scalar()) == (2, True, 7)
    assert result.first() == (7, 2**40, 2**63, -0.0, "hé", "a\x00b",
                              datetime.date(1999, 3, 23), None)
    assert result.column("NUL") == ["a\x00b", ""]
    assert result._rows is None
    rows = result.rows
    assert rows is result.rows and rows[1] == tuple(
        column[1] for column in result.values)
    assert result.to_dicts()[1]["b"] is True
    empty = ResultSet.from_columns(["a"], [()], 0, [SqlType.INTEGER])
    assert (len(empty), bool(empty), empty.first(), empty.scalar(),
            empty.rows) == (0, False, None, None, [])
