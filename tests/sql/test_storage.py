"""Row storage and index maintenance."""

import pytest

from repro.errors import IntegrityError
from repro.sql.catalog import Column, TableSchema
from repro.sql.storage import HashIndex, Table
from repro.sql.types import SqlType


def make_table(primary_key=True):
    columns = [
        Column("id", SqlType.INTEGER, primary_key=primary_key),
        Column("name", SqlType.TEXT),
        Column("grp", SqlType.INTEGER),
    ]
    return Table(TableSchema("t", columns))


class TestTable:
    def test_insert_returns_increasing_row_ids(self):
        table = make_table()
        first = table.insert([1, "a", 0])
        second = table.insert([2, "b", 0])
        assert second > first

    def test_scan_in_insertion_order(self):
        table = make_table()
        for i in range(5):
            table.insert([i, f"n{i}", i % 2])
        names = [row[1] for __, row in table.scan()]
        assert names == ["n0", "n1", "n2", "n3", "n4"]

    def test_pk_uniqueness(self):
        table = make_table()
        table.insert([1, "a", 0])
        with pytest.raises(IntegrityError):
            table.insert([1, "b", 0])

    def test_failed_insert_leaves_no_index_residue(self):
        table = make_table()
        table.insert([1, "a", 0])
        with pytest.raises(IntegrityError):
            table.insert([1, "b", 0])
        table.delete(1)
        # if residue remained this would raise
        table.insert([1, "c", 0])

    def test_update_moves_index_entries(self):
        table = make_table()
        row_id = table.insert([1, "a", 0])
        table.update(row_id, [2, "a", 0])
        index = table.index_on(["id"])
        assert index.lookup((2,)) == frozenset({row_id})
        assert index.lookup((1,)) == frozenset()

    def test_update_conflict_restores_old_row(self):
        table = make_table()
        table.insert([1, "a", 0])
        row_id = table.insert([2, "b", 0])
        with pytest.raises(IntegrityError):
            table.update(row_id, [1, "b", 0])
        assert table.rows_at([row_id]) == [(row_id, [2, "b", 0])]
        assert table.index_on(["id"]).lookup((2,)) == frozenset({row_id})

    def test_delete_removes_from_indexes(self):
        table = make_table()
        row_id = table.insert([1, "a", 0])
        table.delete(row_id)
        assert len(table) == 0
        assert table.index_on(["id"]).lookup((1,)) == frozenset()

    def test_width_mismatch(self):
        with pytest.raises(IntegrityError):
            make_table().insert([1, "a"])

    def test_not_null_enforced_on_pk(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.insert([None, "a", 0])


class TestSecondaryIndex:
    def test_non_unique_index_groups_rows(self):
        table = make_table()
        ids = [table.insert([i, "x", i % 3]) for i in range(9)]
        table.add_index("by_grp", ["grp"])
        index = table.index_on(["grp"])
        assert index.lookup((0,)) == frozenset({ids[0], ids[3], ids[6]})

    def test_null_keys_not_indexed(self):
        table = make_table()
        table.insert([1, "a", None])
        table.add_index("by_grp", ["grp"])
        assert len(table.index_on(["grp"])) == 0

    def test_unique_secondary_index_enforced(self):
        table = make_table()
        table.insert([1, "a", 10])
        table.add_index("u_grp", ["grp"], unique=True)
        with pytest.raises(IntegrityError):
            table.insert([2, "b", 10])

    def test_composite_index(self):
        table = make_table()
        row_id = table.insert([1, "a", 5])
        table.add_index("combo", ["name", "grp"])
        assert table.index_on(["name", "grp"]).lookup(("a", 5)) == \
            frozenset({row_id})

    def test_index_on_unknown_columns_is_none(self):
        assert make_table().index_on(["missing"]) is None


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        table = make_table()
        table.insert([1, "a", 0])
        snapshot = table.snapshot()
        next_id = table.next_row_id
        table.insert([2, "b", 0])
        table.delete(1)
        table.restore(snapshot, next_id)
        assert len(table) == 1
        assert table.index_on(["id"]).lookup((1,)) != frozenset()

    def test_restore_leaves_the_range_view_correct(self):
        table = make_table()
        table.insert([1, "a", 0])
        table.insert([2, "b", 0])
        snapshot, next_id = table.snapshot(), table.next_row_id
        index = table.index_on(["id"])
        table.insert([3, "c", 0])
        assert index.range((2, True), None, {int}) == [2, 3]
        table.restore(snapshot, next_id)
        assert index.range((2, True), None, {int}) == [2]
        table.restore({}, 1)  # no row re-inserted
        assert index.range(None, None, {int}) == []

    def test_snapshot_is_value_copy(self):
        table = make_table()
        row_id = table.insert([1, "a", 0])
        snapshot = table.snapshot()
        table.update(row_id, [1, "changed", 0])
        assert snapshot[row_id][1] == "a"


class TestHashIndexDirect:
    def test_lookup_empty(self):
        index = HashIndex("i", [0])
        assert index.lookup((1,)) == frozenset()

    def test_remove_is_idempotent(self):
        index = HashIndex("i", [0])
        index.insert(1, [5])
        index.remove(1, [5])
        index.remove(1, [5])
        assert len(index) == 0


def index_of(*keys):
    """A one-column index holding *keys* at row ids 1, 2, ..."""
    index = HashIndex("i", [0])
    for row_id, key in enumerate(keys, 1):
        index.insert(row_id, [key])
    return index


NUMBERS = frozenset((int, float))


class TestRangeView:
    def test_included_and_excluded_ends(self):
        index = index_of(5, 1, 3, 3, None, 2)  # row 5 holds NULL
        assert index.range((2, True), (3, True), NUMBERS) == [3, 4, 6]
        assert index.range((2, False), None, NUMBERS) == [1, 3, 4]
        assert index.range(None, (3, False), NUMBERS) == [2, 6]
        assert index.range((2.5, True), (5.0, False), NUMBERS) == [3, 4]
        assert index.range((4, True), (2, True), NUMBERS) == []  # inverted
        assert index.range(None, None, NUMBERS) == [1, 2, 3, 4, 6]

    def test_view_follows_writes(self):
        index = index_of(1, 2, 3)
        assert index.range((2, True), None, NUMBERS) == [2, 3]
        index.remove(2, [2])
        index.insert(4, [9])
        assert index.range((2, True), None, NUMBERS) == [3, 4]
        index.clear()
        assert index.range(None, None, NUMBERS) == []

    def test_keys_without_an_order_cannot_answer(self):
        assert index_of(1, "a").range(None, None, NUMBERS) is None
        assert index_of(1.0, float("nan")).range(None, None, NUMBERS) is None
        assert index_of(True, 2).range(None, None, NUMBERS) is None
        assert index_of(1, 2).range((float("nan"), True), None, NUMBERS) == []
