"""Query results returned by the relational engine, and their wire form.

The paper's CORBA server objects use JDBC to reach relational stores;
what crosses IIOP is the result an ISI's ``execute_native`` returns.
This module also registers the CDR value type that carries it
(``ResultSet/4``, column-packed, each column by its declared kind).
"""

from __future__ import annotations

import datetime
import operator
import struct
import threading
from typing import Any, Iterator, Optional, Sequence

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder, register_value
from repro.sql.types import STORED_AS, SqlType


class ResultSet:
    """An ordered, materialized query result, held column by column.

    :attr:`values` holds one sequence of cells per output column, and
    :attr:`kinds` one :class:`~repro.sql.types.SqlType` per column: the
    declared type of a column the engine read from a base table (every
    non-null cell is then exactly ``STORED_AS[kind]``), or None when
    nothing is known.  :attr:`rows` (tuples) is a view built on first
    read; :meth:`first`, :meth:`scalar`, :meth:`column` and ``len``
    read the columns.  Name-based access is :meth:`to_dicts`; the
    metadata the gateway layer needs is :attr:`columns` (the names) and
    :attr:`rowcount`.
    """

    def __init__(self, columns: list[str], rows: Sequence[Sequence],
                 rowcount: int | None = None):
        rows = [tuple(row) for row in rows]
        # strict: a ragged row list is an error, never zip's truncation.
        values = list(zip(*rows, strict=True)) if rows \
            else [()] * len(columns)
        if len(values) != len(columns):
            raise ValueError(f"rows are not {len(columns)} cells wide")
        self._set(columns, values, len(rows), None, rowcount)
        self._rows = rows

    @classmethod
    def from_columns(cls, columns: list[str], values: list[Sequence],
                     count: int,
                     kinds: Optional[Sequence[Optional[SqlType]]] = None,
                     rowcount: int | None = None) -> "ResultSet":
        """A result over *values*, one sequence of *count* cells per
        column, kept as they are (uncopied): for a producer (the
        executor, the wire decoder) that has just built them and hands
        them over.  A kind other than None is a promise about every
        non-null cell of its column."""
        result = cls.__new__(cls)
        result._set(columns, values, count, kinds, rowcount)
        result._rows = None
        return result

    def _set(self, columns: list[str], values: list[Sequence], count: int,
             kinds: Optional[Sequence[Optional[SqlType]]],
             rowcount: int | None) -> None:
        self.columns = list(columns)
        self.values = values
        self.kinds = [None] * len(self.columns) if kinds is None \
            else list(kinds)
        self._count = count
        #: Rows affected for DML; for queries this equals ``len(self)``.
        self.rowcount = rowcount if rowcount is not None else count

    @classmethod
    def empty(cls, rowcount: int = 0) -> "ResultSet":
        """A result with no columns, as produced by DML and DDL."""
        return cls.from_columns([], [], 0, rowcount=rowcount)

    @property
    def rows(self) -> list[tuple]:
        """The rows as tuples: built from the columns on first read,
        then kept."""
        if self._rows is None:
            self._rows = list(zip(*self.values)) if self.values \
                else [()] * self._count
        return self._rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def first(self) -> tuple | None:
        """The first row, or None when empty."""
        if not self._count:
            return None
        return tuple([column[0] for column in self.values])

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result (None if empty)."""
        if not self._count:
            return None
        return self.values[0][0]

    def column(self, name: str) -> list[Any]:
        """All values of the named output column."""
        return list(self.values[self._column_index(name)])

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as ``{column: value}`` dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def _column_index(self, name: str) -> int:
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.lower() == lowered:
                return index
        raise KeyError(f"no output column {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultSet(columns={self.columns!r}, rows={self._count})"


# The ResultSet on the wire, column-packed (layout: docs/middleware.md):
# names, ``rowcount``, the row count, then per column a kind octet and —
# unless the column is packed as ``any`` a cell — a null index array and
# ONE packed array (a string column: its cells joined by NUL, one UTF-8
# octet sequence).  The kind octet's low nibble is the packing, its high
# nibble the column's declared SqlType (0: none).  A declared column is
# packed by its kind: an INTEGER one as ``long``, else ``long long``,
# else ``any`` a cell, whichever the pack itself accepts; a TEXT one
# with a NUL in a cell as ``any`` a cell.  An undeclared column is
# packed when every non-null cell is of exactly one of the types below,
# else ``any`` a cell.  No step of either side runs per cell in Python.

_ANY, _LONG, _LONGLONG, _DOUBLE, _DATE, _BOOLEAN, _STRING = range(7)
_KINDS = {int: _LONG, float: _DOUBLE, datetime.date: _DATE, bool: _BOOLEAN,
          str: _STRING}
#: kind -> (array code, what a null cell is packed as)
_PACKING = {_LONG: ("i", 0), _LONGLONG: ("q", 0), _DOUBLE: ("d", 0.0),
            _DATE: ("i", datetime.date.min), _BOOLEAN: ("?", False),
            _STRING: ("I", "")}
#: What a column too wide for its packing is sent as.
_WIDER = {_LONG: _LONGLONG, _LONGLONG: _ANY}
#: The declared kinds by their high nibble (found with ``index``: an
#: enum member hashes in Python) and the packing each is written as.
_DECLARED = (None, *SqlType)
_DECLARED_PACKING = (_ANY, *(_KINDS[STORED_AS[kind]] for kind in SqlType))
#: Every kind octet a column may arrive with -> (packing, declared
#: kind): an undeclared column in any packing, a declared one in its
#: own or ``any``, and an INTEGER one in ``long long`` too.
_ARRIVES_AS = {nibble << 4 | packing: (packing, declared)
               for nibble, declared in enumerate(_DECLARED)
               for packing in range(7)
               if not nibble or packing in (_DECLARED_PACKING[nibble], _ANY)
               or declared is SqlType.INTEGER and packing == _LONGLONG}

#: The day table: decoded dates by ordinal, shared by every column read
#: (a date is immutable).  It holds at most ``_DAYS_HELD`` days (≈ 45
#: years' worth); a column whose new days would overflow it clears it.
#: Reads take no lock; what changes it holds ``_DAYS_LOCK``.
_DAYS: dict[int, datetime.date] = {}
_DAYS_HELD = 1 << 14
_DAYS_LOCK = threading.Lock()


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
    nulls = ()
    try:
        kind, body = _body(encoder, kind, column)
    except TypeError:
        # A NULL cell: the body is made again with the NULLs filled in
        # (a cell of no packing raises again).
        nulls = [index for index, cell in enumerate(column) if cell is None]
        filler = _PACKING[kind][1]
        kind, body = _body(encoder, kind, [filler if cell is None else cell
                                           for cell in column])
    encoder.write_octet(nibble << 4 | kind)
    if kind == _ANY:
        for cell in column:
            encoder.write_any(cell)
        return
    encoder.write_ulong(len(nulls))
    if nulls:  # an empty array is no octets: nothing to write
        encoder.write_array("I", nulls)
    if kind == _STRING:
        encoder.write_octets(body)
    else:
        encoder.write_packed(_PACKING[kind][0], body)


def _body(encoder: CdrEncoder, kind: int, cells):
    """``(packing, octets)`` for *cells*, or a TypeError when one of
    them is NULL (``join``, ``toordinal`` and the pack refuse it
    themselves, so a column without NULLs is not searched for one)."""
    if kind == _ANY:
        return kind, None
    if kind == _STRING:
        text = "\x00".join(cells)
        # A cell that holds NUL would be split by the separator.
        return (kind, text.encode()) \
            if text.count("\x00") == len(cells) - 1 else (_ANY, None)
    if kind == _DATE:
        cells = list(map(datetime.date.toordinal, cells))
    elif kind == _BOOLEAN and None in cells:  # "?" packs None as False
        raise TypeError("a NULL cell")
    try:
        return kind, encoder.pack_array(_PACKING[kind][0], cells)
    except struct.error:
        if None in cells:
            raise TypeError("a NULL cell") from None
        if kind not in _WIDER:
            raise
    return _body(encoder, _WIDER[kind], cells)


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
        if octet not in _ARRIVES_AS:
            raise MarshalError(f"unknown column kind {octet}")
        kind, declared = _ARRIVES_AS[octet]
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
    nulls = decoder.read_ulong()
    nulls = decoder.read_array("I", nulls) if nulls else ()
    if kind == _STRING:
        # One octet sequence (its length checked against the frame
        # before anything is built), decoded once, split at NUL.
        column = decoder.read_text().split("\x00")
        if len(column) != count:
            raise MarshalError(f"a packed string column of {len(column)} "
                               f"cells for {count} rows")
    else:
        column = decoder.read_array(_PACKING[kind][0], count)
        if kind == _DATE:
            column = _dates(column)
        if nulls:
            column = list(column)
    for index in nulls:
        column[index] = None  # an index past the last row: IndexError
    return column


def _dates(ordinals):
    """The date of each ordinal, read from the day table.  The days it
    lacks are made once per column, under a lock; when they would take
    it past ``_DAYS_HELD`` it starts again from this column's days (a
    column of more days than that keeps its own).  An ordinal no date
    has is a MarshalError and never enters the table."""
    days = _DAYS
    try:
        if len(ordinals) > 1:  # (``itemgetter`` of one key: not a tuple)
            return operator.itemgetter(*ordinals)(days)
        return [days[day] for day in ordinals]
    except KeyError:
        wanted = set(ordinals)
    with _DAYS_LOCK:
        missing = wanted.difference(days)
        if len(days) + len(missing) > _DAYS_HELD:
            days.clear()
            missing = wanted
            if len(wanted) > _DAYS_HELD:
                days = {}
        try:
            days.update(zip(missing, map(datetime.date.fromordinal, missing)))
        except (ValueError, OverflowError) as exc:
            raise MarshalError(f"a date column holds a day out of range: "
                               f"{exc}") from exc
        return list(map(days.__getitem__, ordinals))


# The id is none of the forms this one replaced — the row-per-struct
# "ResultSet", "ResultSet/2" (string columns with a length array),
# "ResultSet/3" (no declared kinds): a stale peer fails on an unknown
# value type, it never misparses.
register_value("ResultSet/4", ResultSet, _write_result, _read_result)
