"""SQL value types and coercion rules for the relational engine.

The engine supports a compact but realistic type system: ``INTEGER``,
``REAL``, ``TEXT``, ``DATE``, and ``BOOLEAN``.  ``NULL`` is represented
by Python ``None`` and is a member of every type.  Vendor dialects map
their own spellings (``VARCHAR2``, ``NUMBER``, ...) onto these types in
:mod:`repro.sql.dialect`.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from repro.errors import SqlTypeError


class SqlType(enum.Enum):
    """Canonical column types understood by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    def __str__(self) -> str:
        return self.value


#: Spellings accepted in ``CREATE TABLE`` regardless of dialect.  The
#: vendor dialects add their own synonyms on top of these.
TYPE_SYNONYMS: dict[str, SqlType] = {
    "INT": SqlType.INTEGER,
    "INTEGER": SqlType.INTEGER,
    "SMALLINT": SqlType.INTEGER,
    "BIGINT": SqlType.INTEGER,
    "REAL": SqlType.REAL,
    "FLOAT": SqlType.REAL,
    "DOUBLE": SqlType.REAL,
    "DECIMAL": SqlType.REAL,
    "NUMERIC": SqlType.REAL,
    "TEXT": SqlType.TEXT,
    "CHAR": SqlType.TEXT,
    "VARCHAR": SqlType.TEXT,
    "STRING": SqlType.TEXT,
    "DATE": SqlType.DATE,
    "BOOLEAN": SqlType.BOOLEAN,
    "BOOL": SqlType.BOOLEAN,
}


#: The exact Python type :func:`coerce` stores for each column type.
STORED_AS: dict[SqlType, type] = {
    SqlType.INTEGER: int, SqlType.REAL: float, SqlType.TEXT: str,
    SqlType.DATE: datetime.date, SqlType.BOOLEAN: bool}


def parse_date(text: str) -> datetime.date:
    """Parse an ISO ``YYYY-MM-DD`` date literal."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise SqlTypeError(f"invalid date literal: {text!r}") from exc


def coerce(value: Any, sql_type: SqlType) -> Any:
    """Coerce *value* to *sql_type*, raising :class:`SqlTypeError` if impossible.

    ``None`` passes through untouched: NULL belongs to every type.
    Numeric widening (int -> real) is allowed; narrowing real -> integer
    is allowed only when exact.  Any other value comes back exactly of
    type ``STORED_AS[sql_type]``: a subclass instance (an ``IntEnum``, a
    ``str`` subclass) is copied to the base type with the same value.
    """
    if value is None:
        return None
    if sql_type is SqlType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value if type(value) is int else int.__int__(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        raise SqlTypeError(f"cannot coerce {value!r} to INTEGER")
    if sql_type is SqlType.REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise SqlTypeError(f"cannot coerce {value!r} to REAL")
    if sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return value if type(value) is str else str.__str__(value)
        if isinstance(value, (int, float, bool)):
            return str.__str__(str(value))
        if isinstance(value, datetime.date):
            return value.isoformat()
        raise SqlTypeError(f"cannot coerce {value!r} to TEXT")
    if sql_type is SqlType.DATE:
        if isinstance(value, datetime.date):
            return value if type(value) is datetime.date else \
                datetime.date.fromordinal(datetime.date.toordinal(value))
        if isinstance(value, str):
            return parse_date(value)
        raise SqlTypeError(f"cannot coerce {value!r} to DATE")
    if sql_type is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.upper() in ("TRUE", "FALSE"):
            return value.upper() == "TRUE"
        raise SqlTypeError(f"cannot coerce {value!r} to BOOLEAN")
    raise SqlTypeError(f"unknown SQL type: {sql_type!r}")  # pragma: no cover


def infer_type(value: Any) -> SqlType:
    """Infer the narrowest :class:`SqlType` for a Python value."""
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.REAL
    if isinstance(value, datetime.date):
        return SqlType.DATE
    if isinstance(value, str):
        return SqlType.TEXT
    raise SqlTypeError(f"no SQL type for Python value {value!r}")


def comparable(left: Any, right: Any) -> bool:
    """Return True when two non-NULL values may be compared with <, >, =."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    if isinstance(left, str) and isinstance(right, str):
        return True
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return True
    return False
