"""Query results returned by the relational engine."""

from __future__ import annotations

from typing import Any, Iterator


class ResultSet:
    """An ordered, materialized query result.

    Exposes both positional access (``rows`` of tuples) and name-based
    access (:meth:`to_dicts`), plus the metadata the gateway layer needs
    (:attr:`columns`, :attr:`rowcount`).
    """

    def __init__(self, columns: list[str], rows: list[tuple],
                 rowcount: int | None = None):
        self.columns = list(columns)
        self.rows = [tuple(row) for row in rows]
        #: Rows affected for DML; for queries this equals ``len(rows)``.
        self.rowcount = rowcount if rowcount is not None else len(self.rows)

    @classmethod
    def _adopt(cls, columns: list[str], rows: list[tuple],
               rowcount: int | None = None) -> "ResultSet":
        """A result that keeps *rows* as it is, uncopied: for a producer
        (the executor, a wrapper, the wire decoder) that has just built
        that list of tuples and hands it over."""
        result = cls.__new__(cls)
        result.columns = list(columns)
        result.rows = rows
        result.rowcount = rowcount if rowcount is not None else len(rows)
        return result

    @classmethod
    def empty(cls, rowcount: int = 0) -> "ResultSet":
        """A result with no columns, as produced by DML and DDL."""
        return cls(columns=[], rows=[], rowcount=rowcount)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first(self) -> tuple | None:
        """The first row, or None when empty."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result (None if empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> list[Any]:
        """All values of the named output column."""
        index = self._column_index(name)
        return [row[index] for row in self.rows]

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
        return f"ResultSet(columns={self.columns!r}, rows={len(self.rows)})"
