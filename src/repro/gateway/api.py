"""A DB-API-2.0-shaped connectivity layer (the role JDBC plays in the paper).

``connect(url)`` hands back a :class:`Connection` whose cursors execute
SQL against the in-process engine the URL names (a driver of
:mod:`repro.gateway.drivers` resolves it).

URLs follow the JDBC convention::

    jdbc:<subprotocol>:<database>            e.g.  jdbc:oracle:RBH
    jdbc:<subprotocol>://<host>/<database>   e.g.  jdbc:msql://dba.icis.qut.edu.au/Medibank
"""

from __future__ import annotations

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

    @property
    def banner(self) -> str:
        return self.database.banner

    def table_names(self) -> list[str]:
        return self.database.table_names()

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


class DriverManager:
    """Registry of drivers, mirroring ``java.sql.DriverManager``."""

    def __init__(self) -> None:
        self._drivers: list = []

    def register(self, driver) -> None:
        """Register a driver instance (checked in registration order)."""
        self._drivers.append(driver)

    def connect(self, url: str) -> Connection:
        """Open a connection using the first driver accepting *url*."""
        for driver in self._drivers:
            if driver.accepts(url):
                return driver.connect(url)
        raise DriverNotFound(f"no registered driver accepts {url!r}")

    def drivers(self) -> list:
        return list(self._drivers)


#: The default, process-wide driver manager.
default_manager = DriverManager()


def connect(url: str, manager: Optional[DriverManager] = None) -> Connection:
    """Module-level ``connect``, as DB-API prescribes."""
    return (manager or default_manager).connect(url)
