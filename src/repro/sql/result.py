"""Query results returned by the relational engine."""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.sql.types import SqlType


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
