"""A :class:`~repro.sql.result.ResultSet` on the wire.

The paper's CORBA server objects use JDBC to reach relational stores;
what crosses IIOP is the result an ISI's ``execute_native`` returns.
This module registers the CDR value type that carries it
(``ResultSet/4``, column-packed, each column by its declared kind).
"""

from __future__ import annotations

import datetime

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder, register_value
from repro.sql.result import ResultSet
from repro.sql.types import STORED_AS, SqlType


# The ResultSet on the wire, column-packed (layout: docs/middleware.md):
# names, ``rowcount``, the row count, then per column a kind octet and —
# unless the column is packed as ``any`` a cell — a null index array and
# ONE packed array (a string column: its cells joined by NUL, one UTF-8
# octet sequence).  The kind octet's low nibble is the packing, its high
# nibble the column's declared SqlType (0: none).  A declared column is
# packed by its kind: an INTEGER one as ``long`` or ``long long`` by its
# range, else ``any`` a cell; a TEXT one with a NUL in a cell as ``any``
# a cell.  An undeclared column is packed when every non-null cell is of
# exactly one of the types below, else ``any`` a cell.

_ANY, _LONG, _LONGLONG, _DOUBLE, _DATE, _BOOLEAN, _STRING = range(7)
_KINDS = {int: _LONG, float: _DOUBLE, datetime.date: _DATE, bool: _BOOLEAN,
          str: _STRING}
#: kind -> (array code, what a null cell is packed as)
_PACKING = {_LONG: ("i", 0), _LONGLONG: ("q", 0), _DOUBLE: ("d", 0.0),
            _DATE: ("i", datetime.date.min), _BOOLEAN: ("?", False),
            _STRING: ("I", "")}
#: The declared kinds by their high nibble (found with ``index``: an
#: enum member hashes in Python), the packing each is written as, and
#: the packings each may arrive as: its own or ``any``, and an INTEGER
#: column ``long long`` too.
_DECLARED = (None, *SqlType)
_DECLARED_PACKING = (_ANY, *(_KINDS[STORED_AS[kind]] for kind in SqlType))
_ARRIVES_AS = (set(range(7)),
               *({packing, _ANY} for packing in _DECLARED_PACKING[1:]))
_ARRIVES_AS[_DECLARED.index(SqlType.INTEGER)].add(_LONGLONG)


def _write_result(encoder: CdrEncoder, result: ResultSet) -> None:
    names, count = result.columns, len(result)
    encoder.write_ulong(len(names))
    for name in names:
        encoder.write_string(name)
    encoder.write_any(result.rowcount)
    encoder.write_ulong(count)
    if len(result.values) != len(names) or len(result.kinds) != len(names):
        raise MarshalError(f"a result of {len(result.values)} columns and "
                           f"{len(result.kinds)} kinds for {len(names)} names")
    if not names:
        # Every row is backed by at least one octet on the wire, so the
        # reader can refuse a row count its frame cannot hold.
        encoder.write_octets(bytes(count))
    for column, kind in zip(result.values, result.kinds):
        if len(column) != count:
            raise MarshalError(f"a column of {len(column)} cells "
                               f"for {count} rows")
        _write_column(encoder, column, kind)


def _write_column(encoder: CdrEncoder, column, declared=None) -> None:
    nibble = _DECLARED.index(declared)
    if nibble:
        kind = _DECLARED_PACKING[nibble]
    else:
        types = set(map(type, column))
        types.discard(type(None))
        kind = _KINDS.get(types.pop(), _ANY) if len(types) == 1 else _ANY
    nulls = []
    try:
        kind, body = _body(kind, column)
    except TypeError:
        # A NULL cell: the body is made again with the NULLs filled in
        # (a cell of no packing raises again).
        nulls = [index for index, cell in enumerate(column) if cell is None]
        filler = _PACKING[kind][1]
        kind, body = _body(kind, [filler if cell is None else cell
                                  for cell in column])
    encoder.write_octet(nibble << 4 | kind)
    if kind == _ANY:
        for cell in column:
            encoder.write_any(cell)
        return
    encoder.write_ulong(len(nulls))
    encoder.write_array("I", nulls)
    if kind == _STRING:
        encoder.write_octets(body)
    else:
        encoder.write_array(_PACKING[kind][0], body)


def _body(kind: int, cells):
    """``(packing, what is packed)`` for *cells*, or a TypeError when
    one of them is NULL (``join``, ``toordinal`` and ``min`` raise it
    themselves, so a column without NULLs is not searched for one)."""
    if kind == _ANY:
        return kind, cells
    if kind == _STRING:
        text = "\x00".join(cells)
        # A cell that holds NUL would be split by the separator.
        return (kind, text.encode()) \
            if text.count("\x00") == len(cells) - 1 else (_ANY, None)
    if kind == _DATE:
        return kind, list(map(datetime.date.toordinal, cells))
    if kind == _LONG and cells:
        low, high = min(cells), max(cells)
        if not -2**31 <= low <= high < 2**31:
            kind = _LONGLONG if -2**63 <= low <= high < 2**63 else _ANY
    elif None in cells:
        raise TypeError("a NULL cell")
    return kind, cells


def _read_result(decoder: CdrDecoder) -> ResultSet:
    names = [decoder.read_string() for _ in range(decoder.read_ulong())]
    rowcount = decoder.read_any()
    count = decoder.read_ulong()
    if type(rowcount) is not int or count > decoder.remaining():
        raise MarshalError(f"rowcount {rowcount!r} / {count} rows in "
                           f"{decoder.remaining()} octets")
    if not names and len(decoder.read_octets()) != count:
        raise MarshalError(f"{count} empty rows are not backed by octets")
    values, kinds = [], []
    for _ in names:
        octet = decoder.read_octet()
        nibble, kind = octet >> 4, octet & 0x0F
        if nibble >= len(_DECLARED) or kind not in _ARRIVES_AS[nibble]:
            raise MarshalError(f"unknown column kind {octet}")
        declared = _DECLARED[nibble]
        values.append(_read_column(decoder, kind, declared, count))
        kinds.append(declared)
    return ResultSet.from_columns(names, values, count, kinds, rowcount)


def _read_column(decoder: CdrDecoder, kind: int, declared, count: int):
    """The *count* cells of a column packed as *kind*, every one
    decoded."""
    if kind == _ANY:
        column = [decoder.read_any() for _ in range(count)]
        if declared is not None and not all(
                cell is None or type(cell) is STORED_AS[declared]
                for cell in column):
            raise MarshalError(f"a {declared} column holds other cells")
        return column
    nulls = decoder.read_array("I", decoder.read_ulong())
    if kind == _STRING:
        column = _read_string_column(decoder, count)
    else:
        column = decoder.read_array(_PACKING[kind][0], count)
        if kind == _DATE:
            column = list(map(datetime.date.fromordinal, column))
        elif nulls:
            column = list(column)
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
# The id is none of the forms this one replaced — the row-per-struct
# "ResultSet", "ResultSet/2" (string columns with a length array),
# "ResultSet/3" (no declared kinds): a stale peer fails on an unknown
# value type, it never misparses.
register_value("ResultSet/4", ResultSet, _write_result, _read_result)
