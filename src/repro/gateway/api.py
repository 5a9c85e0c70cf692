"""A DB-API-2.0-shaped connectivity layer (the role JDBC plays in the paper).

A :class:`LocalDriver` serves one vendor dialect's in-process engines:
its ``connect(url)`` hands back a :class:`Connection` whose cursors
execute SQL against the engine the URL names.

URLs follow the JDBC convention::

    jdbc:<subprotocol>:<database>            e.g.  jdbc:oracle:RBH
    jdbc:<subprotocol>://<host>/<database>   e.g.  jdbc:msql://dba.icis.qut.edu.au/Medibank
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional, Sequence

from repro.errors import ConnectionClosed, DriverNotFound, GatewayError
from repro.sql.engine import Database
from repro.sql.result import ResultSet

apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"


class Cursor:
    """A DB-API cursor over one connection."""

    arraysize = 1

    def __init__(self, connection: "Connection"):
        self._connection = connection
        self._result: Optional[ResultSet] = None
        self._position = 0
        self._closed = False

    # -- metadata ---------------------------------------------------------------

    @property
    def description(self) -> Optional[list[tuple]]:
        """DB-API 7-tuples (name, type_code, ..., null_ok) per column."""
        if self._result is None or not self._result.columns:
            return None
        return [(name, None, None, None, None, None, None)
                for name in self._result.columns]

    @property
    def result(self) -> ResultSet:
        """The whole result of the last statement, as the engine made
        it (shared, not copied; the fetch position does not move)."""
        self._check_open()
        if self._result is None:
            raise GatewayError("no query has been executed on this cursor")
        return self._result

    @property
    def rowcount(self) -> int:
        """Rows affected by the last statement (-1 before any execute)."""
        if self._result is None:
            return -1
        return self._result.rowcount

    # -- execution -------------------------------------------------------------

    def execute(self, sql: str,
                parameters: Optional[Sequence[Any]] = None) -> "Cursor":
        """Execute one SQL statement with optional ``?`` parameters."""
        self._check_open()
        self._result = self._connection.database.execute(
            sql, list(parameters) if parameters else None)
        self._position = 0
        return self

    def executemany(self, sql: str,
                    seq_of_parameters: Iterable[Sequence[Any]]) -> "Cursor":
        """Execute once per parameter sequence."""
        self._check_open()
        total = 0
        for parameters in seq_of_parameters:
            result = self._connection.database.execute(
                sql, list(parameters) if parameters else None)
            total += result.rowcount
        self._result = ResultSet.empty(total)
        self._position = 0
        return self

    # -- fetching ----------------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        """Next row, or None when exhausted."""
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        """Up to *size* rows (default :attr:`arraysize`)."""
        count = size if size is not None else self.arraysize
        rows = self._rows()
        chunk = rows[self._position:self._position + count]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        """All remaining rows."""
        rows = self._rows()
        chunk = rows[self._position:]
        self._position = len(rows)
        return chunk

    def _rows(self) -> list[tuple]:
        return self.result.rows

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._result = None

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosed("cursor is closed")
        self._connection._check_open()

    def __iter__(self):
        row = self.fetchone()
        while row is not None:
            yield row
            row = self.fetchone()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Connection:
    """A DB-API connection, produced by a driver, to one in-process
    engine."""

    def __init__(self, url: str, database: Database):
        self.url = url
        #: The engine every statement of this connection runs on.
        self.database = database
        self._closed = False

    # -- DB-API surface -------------------------------------------------------------

    def cursor(self) -> Cursor:
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str,
                parameters: Optional[Sequence[Any]] = None) -> Cursor:
        """Shortcut: create a cursor and execute in one step."""
        cursor = self.cursor()
        cursor.execute(sql, parameters)
        return cursor

    def commit(self) -> None:
        self._check_open()
        self.database.execute("COMMIT")

    def rollback(self) -> None:
        self._check_open()
        self.database.execute("ROLLBACK")

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosed(f"connection to {self.url!r} is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, *rest) -> None:
        self.close()


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
    """The driver of one vendor dialect: ``jdbc:<dialect>:<database>``
    resolves to one of the in-process engines registered with it."""

    def __init__(self, dialect_name: str):
        #: The URL subprotocol, which is the dialect's name.
        self.subprotocol = dialect_name
        self._databases: dict[str, Database] = {}

    def register_database(self, database: Database) -> None:
        """Make *database* reachable as ``jdbc:<subprotocol>:<name>``."""
        if database.dialect.name != self.subprotocol:
            raise GatewayError(
                f"driver {self.subprotocol!r} serves only its own dialect; "
                f"{database.name!r} speaks {database.dialect.name!r}")
        key = database.name.lower()
        if key in self._databases:
            raise GatewayError(
                f"database {database.name!r} already registered on "
                f"driver {self.subprotocol!r}")
        self._databases[key] = database

    def connect(self, url: str) -> Connection:
        subprotocol, __, database_name = parse_url(url)
        if subprotocol != self.subprotocol:
            raise DriverNotFound(
                f"driver {self.subprotocol!r} does not accept {url!r}")
        database = self._databases.get(database_name.lower())
        if database is None:
            raise GatewayError(
                f"driver {self.subprotocol!r} knows no database "
                f"{database_name!r}")
        return Connection(url, database)
