"""Schema objects: columns, table schemas, and the database catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import CatalogError
from repro.sql.types import SqlType


@dataclass
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SqlType
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    default: Any = None


@dataclass
class TableSchema:
    """The schema of one table: ordered columns plus key information."""

    name: str
    columns: list[Column]
    primary_key: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}")
            seen.add(lowered)
        inline_pk = [c.name for c in self.columns if c.primary_key]
        if inline_pk and self.primary_key:
            raise CatalogError(
                f"table {self.name!r} declares both inline and table-level primary keys")
        if inline_pk:
            self.primary_key = inline_pk
        for key_column in self.primary_key:
            column = self.find_column(key_column)
            if column is None:
                raise CatalogError(
                    f"primary key column {key_column!r} not in table {self.name!r}")
            column.not_null = True

    @property
    def column_names(self) -> list[str]:
        """Ordered column names."""
        return [column.name for column in self.columns]

    def find_column(self, name: str) -> Optional[Column]:
        """Case-insensitive column lookup; None when absent."""
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        return None

    def column_index(self, name: str) -> int:
        """Ordinal position of *name*, raising :class:`CatalogError` when absent."""
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise CatalogError(f"no column {name!r} in table {self.name!r}")


@dataclass
class IndexDef:
    """Metadata for a secondary index."""

    name: str
    table: str
    columns: list[str]
    unique: bool = False


class Catalog:
    """Name -> schema mapping for one database.

    All lookups are case-insensitive, matching common SQL engines.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._indexes: dict[str, IndexDef] = {}

    # -- tables -------------------------------------------------------------

    def add_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = schema

    def drop_table(self, name: str) -> TableSchema:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table {name!r}")
        for index_name in [n for n, d in self._indexes.items()
                           if d.table.lower() == key]:
            del self._indexes[index_name]
        return self._tables.pop(key)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> TableSchema:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table {name!r}")
        return self._tables[key]

    def table_names(self) -> list[str]:
        """Declared table names, in creation order."""
        return [schema.name for schema in self._tables.values()]

    # -- indexes ------------------------------------------------------------

    def add_index(self, index: IndexDef) -> None:
        key = index.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        table = self.table(index.table)
        for column in index.columns:
            if table.find_column(column) is None:
                raise CatalogError(
                    f"index column {column!r} not in table {index.table!r}")
        self._indexes[key] = index

    def drop_index(self, name: str) -> IndexDef:
        key = name.lower()
        if key not in self._indexes:
            raise CatalogError(f"no index {name!r}")
        return self._indexes.pop(key)

    def index(self, name: str) -> IndexDef:
        key = name.lower()
        if key not in self._indexes:
            raise CatalogError(f"no index {name!r}")
        return self._indexes[key]
