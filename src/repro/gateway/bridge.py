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

from typing import Any, Optional

from repro.errors import GatewayError
from repro.gateway.api import Connection
from repro.gateway.drivers import parse_url
from repro.orb.cdr import register_value
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


def result_to_wire(result: ResultSet) -> dict[str, Any]:
    """Encode a ResultSet as a CDR-marshallable struct."""
    return {
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "rowcount": result.rowcount,
    }


def result_from_wire(payload: dict[str, Any]) -> ResultSet:
    """Decode the struct produced by :func:`result_to_wire`."""
    return ResultSet(columns=list(payload.get("columns", [])),
                     rows=[tuple(row) for row in payload.get("rows", [])],
                     rowcount=int(payload.get("rowcount", 0)))


# Registered here, not beside the class: repro.sql imports nothing from
# repro.orb, and this bridge is where a ResultSet first meets the wire.
register_value("ResultSet", ResultSet, result_to_wire, result_from_wire)


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
