"""A :class:`~repro.sql.result.ResultSet` on the wire.

The paper's CORBA server objects use JDBC to reach relational stores;
what crosses IIOP is the result an ISI's ``execute_native`` returns.
This module registers the CDR value type that carries it
(``ResultSet/3``, column-packed).
"""

from __future__ import annotations

import datetime

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder, register_value
from repro.sql.result import ResultSet


# The ResultSet on the wire, column-packed (layout: docs/middleware.md):
# names, ``rowcount``, the row count, then per column a kind octet and —
# when every non-null cell is of exactly one of the types below — a null
# index array and ONE packed array (a string column: its cells joined by
# NUL, one UTF-8 octet sequence); any other column, and a string column
# with a NUL in a cell, is an ``any`` a cell.

_ANY, _LONG, _LONGLONG, _DOUBLE, _DATE, _BOOLEAN, _STRING = range(7)
_KINDS = {int: _LONG, float: _DOUBLE, datetime.date: _DATE, bool: _BOOLEAN,
          str: _STRING}
#: kind -> (array code, what a null cell is packed as)
_PACKING = {_LONG: ("i", 0), _LONGLONG: ("q", 0), _DOUBLE: ("d", 0.0),
            _DATE: ("i", datetime.date.min), _BOOLEAN: ("?", False),
            _STRING: ("I", "")}


def _write_result(encoder: CdrEncoder, result: ResultSet) -> None:
    width, rows = len(result.columns), result.rows
    encoder.write_ulong(width)
    for name in result.columns:
        encoder.write_string(name)
    encoder.write_any(result.rowcount)
    encoder.write_ulong(len(rows))
    # strict: a ragged row list is an error, never zip's truncation.
    columns = list(zip(*rows, strict=True)) if rows else [()] * width
    if len(columns) != width:
        raise MarshalError(f"rows are not {width} cells wide")
    if not width:
        # Every row is backed by at least one octet on the wire, so the
        # reader can refuse a row count its frame cannot hold.
        encoder.write_octets(bytes(len(rows)))
    for column in columns:
        _write_column(encoder, column)


def _write_column(encoder: CdrEncoder, column: tuple) -> None:
    types = set(map(type, column))
    holes = type(None) in types
    types.discard(type(None))
    kind = _KINDS.get(types.pop(), _ANY) if len(types) == 1 else _ANY
    cells, nulls = column, []
    if holes and kind != _ANY:
        filler = _PACKING[kind][1]
        nulls = [index for index, cell in enumerate(column) if cell is None]
        cells = [filler if cell is None else cell for cell in column]
    if kind == _LONG:
        low, high = min(cells), max(cells)
        if not -2**31 <= low <= high < 2**31:
            kind = _LONGLONG if -2**63 <= low <= high < 2**63 else _ANY
    elif kind == _STRING:
        text = "\x00".join(cells)
        if text.count("\x00") != len(cells) - 1:
            kind = _ANY  # a cell holds NUL: the separator would split it
    encoder.write_octet(kind)
    if kind == _ANY:
        for cell in column:
            encoder.write_any(cell)
        return
    encoder.write_ulong(len(nulls))
    encoder.write_array("I", nulls)
    if kind == _STRING:
        encoder.write_octets(text.encode())
        return
    if kind == _DATE:
        cells = list(map(datetime.date.toordinal, cells))
    encoder.write_array(_PACKING[kind][0], cells)


def _read_result(decoder: CdrDecoder) -> ResultSet:
    names = [decoder.read_string() for _ in range(decoder.read_ulong())]
    rowcount = decoder.read_any()
    count = decoder.read_ulong()
    if type(rowcount) is not int or count > decoder.remaining():
        raise MarshalError(f"rowcount {rowcount!r} / {count} rows in "
                           f"{decoder.remaining()} octets")
    if not names:
        if len(decoder.read_octets()) != count:
            raise MarshalError(f"{count} empty rows are not backed by octets")
        return ResultSet._adopt(names, [()] * count, rowcount)
    columns = [_read_column(decoder, count) for _ in names]
    return ResultSet._adopt(names, list(zip(*columns)), rowcount)


def _read_column(decoder: CdrDecoder, count: int) -> list:
    kind = decoder.read_octet()
    if kind == _ANY:
        return [decoder.read_any() for _ in range(count)]
    if kind not in _PACKING:
        raise MarshalError(f"unknown column kind {kind}")
    nulls = decoder.read_array("I", decoder.read_ulong())
    if kind == _STRING:
        column = _read_string_column(decoder, count)
    else:
        cells = decoder.read_array(_PACKING[kind][0], count)
        column = list(map(datetime.date.fromordinal, cells)) \
            if kind == _DATE else list(cells)
    for index in nulls:
        column[index] = None  # an index past the last row: IndexError
    return column


def _read_string_column(decoder: CdrDecoder, count: int) -> list[str]:
    """A string column's *count* cells: one octet sequence (its length
    checked against the frame before anything is built), decoded once,
    split at NUL."""
    try:
        cells = str(decoder.read_octets(), "utf-8").split("\x00")
    except UnicodeDecodeError as exc:
        raise MarshalError(
            f"a packed string column is not valid UTF-8: {exc}") from exc
    if len(cells) != count:
        raise MarshalError(
            f"a packed string column of {len(cells)} cells for {count} rows")
    return cells


# Registered here, not beside the class: repro.sql imports nothing from
# repro.orb, and the gateway is where a ResultSet first meets the wire.
# The id is neither the "ResultSet" of the row-per-struct form nor the
# "ResultSet/2" whose string columns carried a length array: a stale
# peer fails on an unknown value type, it never misparses.
register_value("ResultSet/3", ResultSet, _write_result, _read_result)
