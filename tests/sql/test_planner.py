"""What the planner decides once per statement: names, access paths,
filter placement — and that none of it changes an answer."""

import datetime

import pytest

from repro.errors import CatalogError, SqlError
from repro.sql.engine import Database


def plan_lines(db, sql):
    return [row[0] for row in db.execute(f"EXPLAIN {sql}").rows]


# ------------------------------------------------------ index probe ≡ scan --

@pytest.fixture(params=[False, True], ids=["scan", "indexed"])
def typed_db(request):
    """DATE / BOOLEAN / INT columns, with or without an index on each."""
    db = Database("typed")
    db.execute("CREATE TABLE e (id INT NOT NULL, d DATE, f BOOLEAN, s VARCHAR(12))")
    db.load_rows("e", [[1, "1995-01-11", True, "1995-01-11"],
                       [2, "1995-01-12", False, "x"],
                       [3, None, None, None]])
    if request.param:
        for column in ("id", "d", "f", "s"):
            db.execute(f"CREATE INDEX ix_{column} ON e ({column})")
    db.indexed = request.param
    return db


class TestIndexProbeEqualsScan:
    """Each predicate returns the same rows by scan and through an index."""

    def ids(self, db, where, params=None):
        used_index = any("IndexLookup" in line for line in
                         plan_lines(db, f"SELECT id FROM e WHERE {where}"))
        assert used_index == db.indexed
        return sorted(r[0] for r in db.execute(
            f"SELECT id FROM e WHERE {where}", params).rows)

    def test_iso_string_finds_date(self, typed_db):
        assert self.ids(typed_db, "d = '1995-01-11'") == [1]
        assert self.ids(typed_db, "'1995-01-12' = d") == [2]
        assert self.ids(typed_db, "d = ?", [datetime.date(1995, 1, 11)]) == [1]
        assert self.ids(typed_db, "d = 'not a date'") == []

    def test_integer_is_not_a_boolean(self, typed_db):
        assert self.ids(typed_db, "f = 1") == []
        assert self.ids(typed_db, "f = 0") == []
        assert self.ids(typed_db, "f = TRUE") == [1]
        assert self.ids(typed_db, "f = FALSE") == [2]

    def test_boolean_is_not_an_integer(self, typed_db):
        assert self.ids(typed_db, "id = TRUE") == []
        assert self.ids(typed_db, "id = 1") == [1]
        assert self.ids(typed_db, "id = 1.0") == [1]
        assert self.ids(typed_db, "id = '1'") == []

    def test_date_param_against_iso_text(self, typed_db):
        assert self.ids(typed_db, "s = ?", [datetime.date(1995, 1, 11)]) == [1]

    def test_null_key_matches_nothing(self, typed_db):
        assert self.ids(typed_db, "id = NULL") == []
        assert self.ids(typed_db, "d = ?", [None]) == []

    def test_update_and_delete_take_the_same_path(self, typed_db):
        assert typed_db.execute("UPDATE e SET s = 'hit' WHERE f = 1").rowcount == 0
        assert typed_db.execute(
            "UPDATE e SET s = 'hit' WHERE d = '1995-01-12'").rowcount == 1
        assert typed_db.execute("DELETE FROM e WHERE id = TRUE").rowcount == 0
        assert typed_db.execute("DELETE FROM e WHERE id = 2").rowcount == 1
        assert self.ids(typed_db, "s = 'hit'") == []
        assert typed_db.row_count("e") == 2


# ------------------------------------------------- names are plan-time --

@pytest.fixture()
def ab():
    db = Database("ab")
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, n INT)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, a_id INT, m INT)")
    return db


class TestNameErrorsArePlanTime:
    """Unknown and ambiguous columns raise whatever the data — here,
    over empty tables, where no row is ever evaluated."""

    @pytest.mark.parametrize("sql", [
        "SELECT nosuch FROM a",
        "SELECT id FROM a WHERE nosuch = 1",
        "SELECT id FROM a WHERE id = 1 OR nosuch = 1",
        "SELECT id FROM a WHERE id < 0 AND nosuch = 1",
        "SELECT id FROM a ORDER BY nosuch",
        "SELECT n FROM a GROUP BY n HAVING nosuch > 1",
        "SELECT CASE WHEN 1 = 1 THEN 1 ELSE nosuch END FROM a",
        "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE b.nosuch = 1",
        "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE id = 1",
        "SELECT id FROM a JOIN b ON a.id = b.a_id",
        "SELECT a.id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE a_id = nosuch)",
        "SELECT z.* FROM a",
        "UPDATE a SET n = nosuch",
        "DELETE FROM a WHERE nosuch = 1",
        "EXPLAIN SELECT nosuch FROM a",
    ])
    def test_raises_on_empty_tables(self, ab, sql):
        with pytest.raises(CatalogError):
            ab.execute(sql)

    def test_same_error_with_rows(self, ab):
        ab.execute("INSERT INTO a VALUES (1, 1)")
        with pytest.raises(CatalogError):
            ab.execute("SELECT id FROM a WHERE id = 1 OR nosuch = 1")

    def test_value_errors_stay_lazy(self, ab):
        # Nothing to divide over an empty table; a short-circuited arm
        # and a filtered-out row are never evaluated either.
        assert ab.execute("SELECT 1 / n FROM a").rows == []
        ab.execute("INSERT INTO a VALUES (1, 0), (2, 4)")
        assert ab.execute(
            "SELECT id FROM a WHERE n = 0 OR 8 / n = 2").rows == [(1,), (2,)]
        assert ab.execute(
            "SELECT 8 / n FROM a WHERE n <> 0").rows == [(2,)]
        with pytest.raises(SqlError, match="division by zero"):
            ab.execute("SELECT 8 / n FROM a")
        assert ab.execute("SELECT id FROM a WHERE n = 'four'").rows == []
        assert len(ab.execute("SELECT id FROM a WHERE n <> 'four'").rows) == 2
        with pytest.raises(SqlError, match="cannot compare"):
            ab.execute("SELECT id FROM a WHERE n < 'four'")

    def test_unknown_function_and_misplaced_aggregate(self, ab):
        with pytest.raises(SqlError, match="unknown function"):
            ab.execute("SELECT FROBNICATE(n) FROM a")
        with pytest.raises(SqlError, match="outside GROUP BY"):
            ab.execute("SELECT id FROM a WHERE SUM(n) > 1")


class TestOrderByOrdinals:
    """SELECT and UNION resolve ordinals through one rule."""

    @pytest.mark.parametrize("tail", ["ORDER BY 0", "ORDER BY 3", "ORDER BY -1"])
    @pytest.mark.parametrize("head", [
        "SELECT id, n FROM a",
        "SELECT id, n FROM a UNION SELECT id, m FROM b"])
    def test_out_of_range_is_an_sql_error(self, ab, head, tail):
        if tail == "ORDER BY -1":  # a unary expression, not an ordinal
            assert ab.execute(f"{head} {tail}").rows == []
            return
        with pytest.raises(SqlError, match="ORDER BY position . out of range"):
            ab.execute(f"{head} {tail}")

    def test_union_orders_by_ordinal_alias_and_expression(self, ab):
        ab.execute("INSERT INTO a VALUES (1, 30), (2, 10)")
        ab.execute("INSERT INTO b VALUES (7, 1, 20)")
        union = "SELECT id AS k, n AS v FROM a UNION ALL SELECT id, m FROM b"
        assert ab.execute(f"{union} ORDER BY 2").rows == [(2, 10), (7, 20), (1, 30)]
        assert ab.execute(f"{union} ORDER BY v DESC").rows[0] == (1, 30)
        assert ab.execute(f"{union} ORDER BY 0 - k").rows[0] == (7, 20)

    def test_boolean_is_not_an_ordinal(self, ab):
        ab.execute("INSERT INTO a VALUES (2, 1), (1, 2)")
        # A constant key: the stable sort keeps insertion order.
        assert ab.execute("SELECT id FROM a ORDER BY TRUE").rows == [(2,), (1,)]


# ------------------------------------------------------- filter push-down --

@pytest.fixture()
def joined(ab):
    ab.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, NULL)")
    ab.execute("INSERT INTO b VALUES (1, 1, 5), (2, 1, 6), (3, 2, NULL), (4, 9, 7)")
    return ab


class TestFilterPushDown:
    def test_inner_join_pushes_both_sides(self, joined):
        sql = ("SELECT a.id, b.id FROM a JOIN b ON a.id = b.a_id "
               "WHERE a.n >= 10 AND m > 5 AND a.n + b.m > 0")
        assert plan_lines(joined, sql) == [
            "Select",
            "  HashJoin[INNER] on a.id = b.a_id",
            "    SeqScan(a)",
            "    Filter: a.n >= 10",
            "    SeqScan(b)",
            "    Filter: m > 5",
            "  Filter: a.n + b.m > 0"]
        assert joined.execute(sql).rows == [(1, 2)]

    def test_pushed_conjunct_picks_an_index(self, joined):
        sql = ("SELECT b.id FROM a, b WHERE a.id = b.a_id AND b.id = 3")
        lines = plan_lines(joined, sql)
        assert "    IndexLookup(b) key=(id)" in lines
        assert "  Filter: a.id = b.a_id" in lines
        assert joined.execute(sql).rows == [(3,)]

    def test_left_join_keeps_right_side_conjunct_above(self, joined):
        sql = ("SELECT a.id FROM a LEFT JOIN b ON a.id = b.a_id "
               "WHERE b.m IS NULL AND a.id > 1")
        assert plan_lines(joined, sql) == [
            "Select",
            "  HashJoin[LEFT] on a.id = b.a_id",
            "    SeqScan(a)",
            "    Filter: a.id > 1",
            "    SeqScan(b)",
            "  Filter: b.m IS NULL"]
        # a=2 joins a NULL m; a=3 has no b row at all.
        assert joined.execute(sql).rows == [(2,), (3,)]

    def test_right_join_pushes_only_the_right_side(self, joined):
        sql = ("SELECT b.id FROM a RIGHT JOIN b ON a.id = b.a_id "
               "WHERE a.n IS NULL AND b.id >= 3")
        lines = plan_lines(joined, sql)
        assert lines[-1] == "  Filter: a.n IS NULL"
        assert lines[lines.index("    SeqScan(b)") + 1] == "    Filter: b.id >= 3"
        assert joined.execute(sql).rows == [(4,)]

    def test_pushed_conjunct_sees_rows_without_a_join_partner(self, joined):
        # Deliberate: below the join a conjunct runs on every row of its
        # input, so its value errors no longer depend on the other side.
        joined.execute("INSERT INTO a VALUES (7, 0)")  # no b row has a_id 7
        sql = "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE 10 / a.n > 0"
        assert "    Filter: 10 / a.n > 0" in plan_lines(joined, sql)
        with pytest.raises(SqlError, match="division by zero"):
            joined.execute(sql)
        # Not pushed (it reads both sides): only joined rows are evaluated.
        assert joined.execute("SELECT a.id FROM a JOIN b ON a.id = b.a_id "
                              "WHERE 10 / a.n > 0 OR b.id < 0").rows \
            == [(1,), (1,), (2,)]

    def test_subquery_conjunct_is_never_moved(self, joined):
        sql = ("SELECT a.id FROM a JOIN b ON a.id = b.a_id "
               "WHERE a.n = (SELECT MIN(n) FROM a)")
        assert plan_lines(joined, sql)[-1] == "  Filter: a.n = (subquery)"
        assert joined.execute(sql).rows == [(1,), (1,)]

    def test_correlated_reference_stays_above_the_join(self, joined):
        rows = joined.execute(
            "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b JOIN a a2 "
            "ON b.a_id = a2.id WHERE b.m = a.n - 4)").rows
        assert rows == [(1,)]


# ------------------------------------ corner cases the sqlite oracle found --

class TestThreeValuedCorners:
    def test_between_with_a_null_bound_can_still_be_false(self, joined):
        # 1 >= 20 is false, so the BETWEEN is false whatever the other bound.
        assert joined.execute(
            "SELECT id FROM a WHERE NOT (id BETWEEN n AND NULL)").rows == \
            [(1,), (2,)]
        assert joined.execute(
            "SELECT id FROM a WHERE id NOT BETWEEN NULL AND 0").rows == \
            [(1,), (2,), (3,)]
        assert joined.execute(
            "SELECT id FROM a WHERE id BETWEEN 1 AND NULL").rows == []

    def test_null_not_in_empty_set_is_true(self, joined):
        assert joined.execute(
            "SELECT id FROM a WHERE n NOT IN (SELECT m FROM b WHERE m > 99)"
        ).rows == [(1,), (2,), (3,)]
        assert joined.execute(
            "SELECT id FROM a WHERE n IN (SELECT m FROM b WHERE m > 99)"
        ).rows == []
        # Non-empty set: NULL on the left is unknown again.
        assert joined.execute(
            "SELECT id FROM a WHERE n NOT IN (SELECT m FROM b WHERE m = 5)"
        ).rows == [(1,), (2,)]

    def test_having_without_group_by_is_one_group(self, joined):
        assert joined.execute("SELECT 'all' FROM a HAVING 1 = 1").rows == [("all",)]
        assert joined.execute("SELECT 'all' FROM a HAVING 1 = 0").rows == []
