"""JDBC-over-IIOP bridge.

The paper's CORBA server objects use JDBC to reach relational stores;
symmetrically, a client may reach a *remote* database through a CORBA
object.  This module provides both halves:

* :class:`DatabaseServant` — a CORBA servant wrapping an engine
  (relational :class:`~repro.sql.engine.Database` here; object stores
  get their own servants in :mod:`repro.wrappers`), exposing
  ``execute`` / ``banner`` / ``table_names``;
* :class:`RemoteDriver` — a gateway driver whose URLs
  (``jdbc:iiop:<name>``) resolve through a naming service to a servant
  IOR, yielding :class:`RemoteConnection` objects whose statements
  travel as GIOP requests.
"""

from __future__ import annotations

import datetime
from typing import Any, Optional

from repro.errors import GatewayError, MarshalError
from repro.gateway.api import Connection
from repro.gateway.drivers import parse_url
from repro.orb.cdr import CdrDecoder, CdrEncoder, register_value
from repro.orb.idl import InterfaceBuilder, InterfaceDef
from repro.orb.ior import Ior
from repro.orb.naming import NamingClient
from repro.orb.orb import Orb, Proxy
from repro.sql.engine import Database
from repro.sql.result import ResultSet

#: The CORBA interface of a remote database server object.
DATABASE_INTERFACE: InterfaceDef = (
    InterfaceBuilder("DatabaseServer", module="webfindit",
                     doc="SQL access to one wrapped database")
    .operation("execute", "sql", "params",
               doc="Run one statement; returns its ResultSet")
    .operation("banner", doc="Vendor banner of the wrapped database")
    .operation("table_names", doc="Visible table names")
    .build())


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
# repro.orb, and this bridge is where a ResultSet first meets the wire.
# The id is neither the "ResultSet" of the row-per-struct form nor the
# "ResultSet/2" whose string columns carried a length array: a stale
# peer fails on an unknown value type, it never misparses.
register_value("ResultSet/3", ResultSet, _write_result, _read_result)


class DatabaseServant:
    """CORBA servant exposing one relational database."""

    def __init__(self, database: Database):
        self._database = database

    def execute(self, sql: str, params: list[Any]) -> ResultSet:
        return self._database.execute(sql, params or None)

    def banner(self) -> str:
        return self._database.banner

    def table_names(self) -> list[str]:
        return self._database.table_names()


def serve_database(orb: Orb, database: Database,
                   object_name: Optional[str] = None) -> Ior:
    """Activate a :class:`DatabaseServant` for *database* on *orb*."""
    servant = DatabaseServant(database)
    return orb.activate(servant, DATABASE_INTERFACE,
                        object_name=object_name or database.name)


class RemoteConnection(Connection):
    """A DB-API connection whose statements cross the ORB."""

    def __init__(self, url: str, proxy: Proxy):
        super().__init__(url)
        self._proxy = proxy

    def _run(self, sql: str, params: list[Any]) -> ResultSet:
        self._check_open()
        result = self._proxy.invoke("execute", sql, params)
        if not isinstance(result, ResultSet):
            raise GatewayError(
                f"remote database returned malformed payload: {result!r}")
        return result

    @property
    def banner(self) -> str:
        return self._proxy.invoke("banner")

    def table_names(self) -> list[str]:
        return list(self._proxy.invoke("table_names"))


class RemoteDriver:
    """Resolves ``jdbc:iiop:<name>`` URLs through a naming service."""

    def __init__(self, orb: Orb, naming: NamingClient,
                 name_prefix: str = "webfindit/db/"):
        self._orb = orb
        self._naming = naming
        self._prefix = name_prefix

    def accepts(self, url: str) -> bool:
        try:
            subprotocol, __, __ = parse_url(url)
        except GatewayError:
            return False
        return subprotocol == "iiop"

    def connect(self, url: str) -> RemoteConnection:
        __, __, database_name = parse_url(url)
        ior = self._naming.resolve(self._prefix + database_name)
        proxy = self._orb.proxy(ior, DATABASE_INTERFACE)
        return RemoteConnection(url, proxy)
