"""Vendor dialects for the relational engine.

The paper's data layer spans Oracle, mSQL, DB2 and Sybase.  The engine
core speaks one canonical SQL; a :class:`Dialect` adapts the surface
details a wrapper has to care about when it *generates* SQL for a given
backend, and registers extra type-name spellings accepted in DDL:

* extra type synonyms (``VARCHAR2``/``NUMBER`` on Oracle, ...),
* identifier quoting style,
* string-literal escaping,
* whether ``LIMIT`` is supported natively (mSQL-era engines differed),
* the product banner reported through connection metadata.

Dialects deliberately do **not** change runtime semantics — that keeps
cross-backend query results comparable, which is what the WebFINDIT
wrapper layer relies on.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SqlError
from repro.sql.types import TYPE_SYNONYMS, SqlType


@dataclass(frozen=True)
class Dialect:
    """Static description of one SQL vendor surface."""

    name: str
    product: str
    version: str
    type_synonyms: dict[str, SqlType] = field(default_factory=dict)
    identifier_quote: str = '"'
    supports_limit: bool = True
    upper_cases_unquoted: bool = False

    def resolve_type(self, type_name: str) -> SqlType:
        """Map a vendor type spelling to a canonical :class:`SqlType`."""
        upper = type_name.upper()
        if upper in self.type_synonyms:
            return self.type_synonyms[upper]
        if upper in TYPE_SYNONYMS:
            return TYPE_SYNONYMS[upper]
        raise SqlError(f"{self.product}: unknown type {type_name!r}")

    def quote_identifier(self, name: str) -> str:
        """Quote *name* for inclusion in generated SQL."""
        quote = self.identifier_quote
        if quote == "[":
            return f"[{name}]"
        escaped = name.replace(quote, quote * 2)
        return f"{quote}{escaped}{quote}"

    def format_literal(self, value: Any) -> str:
        """Render a Python value as a SQL literal in this dialect."""
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, (int, float)) and abs(value) < math.inf:
            return repr(value)  # NaN and the infinities have no literal
        if isinstance(value, datetime.date):
            return f"'{value.isoformat()}'"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        raise SqlError(f"cannot format {value!r} as a SQL literal")

    @property
    def banner(self) -> str:
        """Human-readable product banner, as JDBC metadata would expose."""
        return f"{self.product} {self.version}"


ORACLE = Dialect(
    name="oracle",
    product="Oracle",
    version="8.0.5",
    type_synonyms={
        "VARCHAR2": SqlType.TEXT,
        "NVARCHAR2": SqlType.TEXT,
        "CLOB": SqlType.TEXT,
        "LONG": SqlType.TEXT,
        "NUMBER": SqlType.REAL,
        "BINARY_INTEGER": SqlType.INTEGER,
    },
    upper_cases_unquoted=True,
)

MSQL = Dialect(
    name="msql",
    product="mSQL",
    version="2.0.11",
    type_synonyms={
        "UINT": SqlType.INTEGER,
        "MONEY": SqlType.REAL,
    },
    supports_limit=True,
)

DB2 = Dialect(
    name="db2",
    product="DB2 Universal Database",
    version="5.2",
    type_synonyms={
        "VARGRAPHIC": SqlType.TEXT,
        "LONGVARCHAR": SqlType.TEXT,
        "DOUBLE_PRECISION": SqlType.REAL,
    },
    upper_cases_unquoted=True,
)

SYBASE = Dialect(
    name="sybase",
    product="Sybase SQL Server",
    version="11.5",
    type_synonyms={
        "TINYINT": SqlType.INTEGER,
        "MONEY": SqlType.REAL,
        "NTEXT": SqlType.TEXT,
    },
    identifier_quote="[",
)

GENERIC = Dialect(name="generic", product="ReproSQL", version="1.0")

#: All built-in dialects, keyed by lower-case name.
DIALECTS: dict[str, Dialect] = {
    d.name: d for d in (ORACLE, MSQL, DB2, SYBASE, GENERIC)
}


def get_dialect(name: str) -> Dialect:
    """Look up a dialect by name (case-insensitive)."""
    dialect = DIALECTS.get(name.lower())
    if dialect is None:
        raise SqlError(f"unknown SQL dialect {name!r}; "
                       f"known: {sorted(DIALECTS)}")
    return dialect
