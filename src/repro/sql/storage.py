"""In-memory row storage with hash indexes that also answer ranges.

A :class:`Table` stores rows keyed by a monotonically increasing row id,
so updates and deletes can address rows stably while scans iterate in
insertion order.  :class:`HashIndex` maps a key tuple to the set of row
ids carrying that key; unique indexes enforce single occupancy.  A
one-column index also answers a key range: it keeps a sorted view of
its keys and row ids, searched with :mod:`bisect` and rebuilt on the
first range read after a write.

Storage is deliberately value-based (every row is a plain ``list``),
which keeps snapshot/rollback support simple: a snapshot deep-copies the
row map, and rollback swaps it back.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import AbstractSet, Any, Iterable, Iterator, Optional, Sequence

from repro.errors import IntegrityError
from repro.sql.catalog import TableSchema
from repro.sql.types import coerce

Row = list[Any]
_NO_ROWS: AbstractSet[int] = frozenset()
#: One end of a key range: ``(value, inclusive)``, or None for no end.
Bound = Optional[tuple[Any, bool]]


class HashIndex:
    """An equality index over one or more columns of a table; over one
    column it answers ranges too."""

    def __init__(self, name: str, column_positions: list[int], unique: bool = False):
        self.name = name
        self.column_positions = column_positions
        self.unique = unique
        self._entries: dict[tuple, set[int]] = {}
        #: ``(keys, row ids, key types)`` ordered by key, or None until
        #: the first range read after a write.  The key types are None
        #: when the keys have no order (kinds that do not compare, NaN).
        self._order: Optional[tuple[list, list[int], Optional[frozenset]]] = None

    def key_for(self, row: Row) -> tuple:
        """Extract this index's key tuple from *row*."""
        return tuple(row[position] for position in self.column_positions)

    def insert(self, row_id: int, row: Row) -> None:
        key = self.key_for(row)
        if None in key:
            return  # NULL keys are not indexed (SQL semantics)
        bucket = self._entries.setdefault(key, set())
        if self.unique and bucket and row_id not in bucket:
            raise IntegrityError(
                f"unique index {self.name!r} violated for key {key!r}")
        bucket.add(row_id)
        self._order = None

    def remove(self, row_id: int, row: Row) -> None:
        key = self.key_for(row)
        if None in key:
            return
        bucket = self._entries.get(key)
        if bucket is not None:
            bucket.discard(row_id)
            self._order = None
            if not bucket:
                del self._entries[key]

    def clear(self) -> None:
        self._entries.clear()
        self._order = None

    def lookup(self, key: tuple) -> AbstractSet[int]:
        """Row ids whose indexed columns equal *key* (empty when none):
        the index's own bucket, for reading only."""
        return self._entries.get(key, _NO_ROWS)

    def range(self, low: Bound, high: Bound,
              kinds: AbstractSet[type]) -> Optional[list[int]]:
        """Row ids, ascending, whose one-column key lies from *low* to
        *high*; a NaN end bounds nothing.  None when a stored key is not
        of *kinds* (the types that compare directly with the ends) or
        has no order: only a row-by-row test can answer then."""
        if self._order is None:
            self._order = self._sorted()
        keys, row_ids, stored = self._order
        if stored is None or not stored <= kinds:
            return None
        if any(end is not None and end[0] != end[0] for end in (low, high)):
            return []
        start = 0 if low is None else \
            (bisect_left if low[1] else bisect_right)(keys, low[0])
        stop = len(keys) if high is None else \
            (bisect_right if high[1] else bisect_left)(keys, high[0])
        return sorted(row_ids[start:stop])

    def _sorted(self) -> tuple[list, list[int], Optional[frozenset]]:
        pairs = [(key, row_id) for (key,), bucket in self._entries.items()
                 for row_id in bucket]
        try:
            pairs.sort(key=itemgetter(0))
        except TypeError:
            return [], [], None
        keys = [key for key, __ in pairs]
        if any(key != key for key in keys):  # NaN
            return [], [], None
        return keys, [row_id for __, row_id in pairs], frozenset(map(type, keys))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


class Table:
    """Rows of one table plus its indexes.

    The table owns an implicit primary-key index when the schema declares
    one, enforcing key uniqueness on insert and update.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, Row] = {}
        self._next_row_id = 1
        #: Each row id's position, and per column its cells in that order:
        #: built by the first whole-row read, dropped by every write.
        self._columns: Optional[tuple[dict[int, int], list[list]]] = None
        self._indexes: dict[str, HashIndex] = {}
        if schema.primary_key:
            positions = [schema.column_index(c) for c in schema.primary_key]
            self._indexes["__pk__"] = HashIndex("__pk__", positions, unique=True)
        for column in schema.columns:
            if column.unique and not column.primary_key:
                position = schema.column_index(column.name)
                index_name = f"__unique_{column.name.lower()}__"
                self._indexes[index_name] = HashIndex(index_name, [position], unique=True)

    # -- row lifecycle --------------------------------------------------------

    def _validate(self, row: Row) -> Row:
        """Coerce to column types and enforce NOT NULL."""
        validated: Row = []
        for column, value in zip(self.schema.columns, row):
            coerced = coerce(value, column.sql_type)
            if coerced is None and column.not_null:
                raise IntegrityError(
                    f"column {column.name!r} of table {self.schema.name!r} is NOT NULL")
            validated.append(coerced)
        return validated

    def insert(self, values: Iterable[Any]) -> int:
        """Insert one full-width row; returns the new row id."""
        row = list(values)
        if len(row) != len(self.schema.columns):
            raise IntegrityError(
                f"table {self.schema.name!r} has {len(self.schema.columns)} "
                f"columns but {len(row)} values were supplied")
        row = self._validate(row)
        row_id = self._next_row_id
        inserted: list[HashIndex] = []
        try:
            for index in self._indexes.values():
                index.insert(row_id, row)
                inserted.append(index)
        except IntegrityError:
            for index in inserted:
                index.remove(row_id, row)
            raise
        self._rows[row_id] = row
        self._columns = None
        self._next_row_id += 1
        return row_id

    def update(self, row_id: int, new_row: Row) -> None:
        """Replace the row at *row_id* with *new_row* (already full-width)."""
        old_row = self._rows[row_id]
        new_row = self._validate(list(new_row))
        for index in self._indexes.values():
            index.remove(row_id, old_row)
        touched: list[HashIndex] = []
        try:
            for index in self._indexes.values():
                index.insert(row_id, new_row)
                touched.append(index)
        except IntegrityError:
            for index in touched:
                index.remove(row_id, new_row)
            for index in self._indexes.values():
                index.insert(row_id, old_row)
            raise
        self._rows[row_id] = new_row
        self._columns = None

    def delete(self, row_id: int) -> None:
        row = self._rows.pop(row_id)
        for index in self._indexes.values():
            index.remove(row_id, row)
        self._columns = None

    def rows_at(self, row_ids: Iterable[int]) -> list[tuple[int, Row]]:
        """``(row_id, row)`` pairs, as :meth:`scan` yields them, for
        *row_ids* in that order; the rows uncopied."""
        rows = self._rows
        return [(row_id, rows[row_id]) for row_id in row_ids]

    def rows_in(self, row_ids: Iterable[int]) -> list[Row]:
        """The rows at *row_ids*, in that order, uncopied."""
        rows = self._rows
        return [rows[row_id] for row_id in row_ids]

    def copies_at(self, row_ids: Iterable[int]) -> list[tuple]:
        """Tuple copies of the rows at *row_ids*, in that order."""
        rows = self._rows
        return [tuple(rows[row_id]) for row_id in row_ids]

    def row_ids(self) -> list[int]:
        """Every row id, in scan order (ascending)."""
        return list(self._rows)

    def columns_at(self, row_ids: Sequence[int]) -> list[tuple]:
        """The cells of the rows at *row_ids* (ascending), one tuple per
        column (the rows transposed), read from the column view."""
        if not row_ids:
            return [()] * len(self.schema.columns)
        if self._columns is None:
            self._columns = (
                {row_id: at for at, row_id in enumerate(self._rows)},
                [list(column) for column in zip(*self._rows.values())])
        at, columns = self._columns
        first, last = at[row_ids[0]], at[row_ids[-1]]
        if last - first == len(row_ids) - 1:  # adjacent rows: one slice a column
            return [tuple(column[first:last + 1]) for column in columns]
        take = itemgetter(*itemgetter(*row_ids)(at))
        return [take(column) for column in columns]

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Iterate (row_id, row) pairs in insertion order."""
        yield from list(self._rows.items())

    def rows(self) -> Iterable[Row]:
        """The stored rows in insertion order, uncopied: for readers that
        finish before the table next changes."""
        return self._rows.values()

    def __len__(self) -> int:
        return len(self._rows)

    # -- indexes ----------------------------------------------------------------

    def add_index(self, name: str, columns: list[str], unique: bool = False) -> None:
        positions = [self.schema.column_index(column) for column in columns]
        index = HashIndex(name, positions, unique)
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self._indexes[name] = index

    def drop_index(self, name: str) -> None:
        self._indexes.pop(name, None)

    def index_on(self, columns: list[str]) -> Optional[HashIndex]:
        """An index whose key is exactly *columns* (order-sensitive), if any."""
        try:
            positions = [self.schema.column_index(column) for column in columns]
        except Exception:
            return None
        for index in self._indexes.values():
            if index.column_positions == positions:
                return index
        return None

    # -- schema evolution ---------------------------------------------------------

    def add_column(self, column, default: Any = None) -> None:
        """ALTER TABLE ADD COLUMN: extend the schema and widen every
        stored row with *default* (validated against the new column)."""
        if self.schema.find_column(column.name) is not None:
            raise IntegrityError(
                f"table {self.schema.name!r} already has column "
                f"{column.name!r}")
        value = coerce(default, column.sql_type)
        if value is None and column.not_null:
            raise IntegrityError(
                f"new NOT NULL column {column.name!r} needs a DEFAULT "
                f"to backfill existing rows")
        self.schema.columns.append(column)
        for row in self._rows.values():
            row.append(value)
        self._columns = None

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict[int, Row]:
        """A value copy of the row map, for transaction rollback."""
        return {row_id: list(row) for row_id, row in self._rows.items()}

    def restore(self, rows: dict[int, Row], next_row_id: int) -> None:
        """Reset contents to a snapshot and rebuild every index.

        Rows from a snapshot taken before an ``ALTER TABLE ADD COLUMN``
        are padded with NULLs to the current schema width (column adds
        survive a rollback, as in most real engines)."""
        width = len(self.schema.columns)
        self._rows = {
            row_id: list(row) + [None] * (width - len(row))
            for row_id, row in rows.items()
        }
        self._next_row_id = next_row_id
        self._columns = None
        for index in self._indexes.values():
            index.clear()
            for row_id, row in self._rows.items():
                index.insert(row_id, row)

    @property
    def next_row_id(self) -> int:
        return self._next_row_id
