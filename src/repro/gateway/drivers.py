"""Gateway drivers for in-process relational engines.

One driver class per vendor subprotocol (``jdbc:oracle:``,
``jdbc:msql:``, ``jdbc:db2:``, ``jdbc:sybase:``) plus a generic
``jdbc:repro:`` driver.  Each driver owns a registry of
:class:`~repro.sql.engine.Database` instances keyed by database name,
the way a JDBC driver resolves the database part of its URL.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import GatewayError
from repro.gateway.api import Connection
from repro.sql.engine import Database

_URL_RE = re.compile(
    r"^jdbc:(?P<subprotocol>[a-z0-9]+):(?://(?P<host>[^/]+)/)?(?P<database>.+)$")


def parse_url(url: str) -> tuple[str, Optional[str], str]:
    """Split a JDBC-style URL into (subprotocol, host, database)."""
    match = _URL_RE.match(url)
    if match is None:
        raise GatewayError(f"malformed connection URL {url!r}")
    return (match.group("subprotocol"), match.group("host"),
            match.group("database"))


class LocalDriver:
    """A driver resolving URLs to registered in-process databases."""

    def __init__(self, subprotocol: str, dialect_name: Optional[str] = None):
        self.subprotocol = subprotocol
        self.dialect_name = dialect_name
        self._databases: dict[str, Database] = {}

    def register_database(self, database: Database) -> None:
        """Make *database* reachable as ``jdbc:<subprotocol>:<name>``."""
        if self.dialect_name is not None \
                and database.dialect.name != self.dialect_name:
            raise GatewayError(
                f"driver {self.subprotocol!r} serves {self.dialect_name!r} "
                f"databases; {database.name!r} speaks "
                f"{database.dialect.name!r}")
        key = database.name.lower()
        if key in self._databases:
            raise GatewayError(
                f"database {database.name!r} already registered on "
                f"driver {self.subprotocol!r}")
        self._databases[key] = database

    def accepts(self, url: str) -> bool:
        try:
            subprotocol, __, __ = parse_url(url)
        except GatewayError:
            return False
        return subprotocol == self.subprotocol

    def connect(self, url: str) -> Connection:
        __, __, database_name = parse_url(url)
        database = self._databases.get(database_name.lower())
        if database is None:
            raise GatewayError(
                f"driver {self.subprotocol!r} knows no database "
                f"{database_name!r}")
        return Connection(url, database)

    def database_names(self) -> list[str]:
        return sorted(db.name for db in self._databases.values())


def make_vendor_drivers() -> dict[str, LocalDriver]:
    """One LocalDriver per built-in dialect, keyed by subprotocol."""
    return {
        "oracle": LocalDriver("oracle", "oracle"),
        "msql": LocalDriver("msql", "msql"),
        "db2": LocalDriver("db2", "db2"),
        "sybase": LocalDriver("sybase", "sybase"),
        "repro": LocalDriver("repro", None),
    }
