"""SELECT execution semantics."""

import pytest

from repro.errors import CatalogError, SqlError
from repro.sql.engine import Database


class TestBasicSelect:
    def test_select_star_order(self, people_db):
        result = people_db.execute("SELECT * FROM person WHERE id = 1")
        assert result.rows == [(1, "Alice", 34, "Brisbane")]
        assert result.columns == ["id", "name", "age", "city"]

    def test_projection_and_alias(self, people_db):
        result = people_db.execute("SELECT name AS who FROM person WHERE id = 2")
        assert result.columns == ["who"]
        assert result.scalar() == "Bob"

    def test_where_filters(self, people_db):
        result = people_db.execute("SELECT name FROM person WHERE age > 30")
        assert sorted(r[0] for r in result.rows) == ["Alice", "Carol"]

    def test_null_excluded_from_comparison(self, people_db):
        result = people_db.execute("SELECT name FROM person WHERE age < 100")
        assert "Dan" not in [r[0] for r in result.rows]

    def test_is_null(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE age IS NULL")
        assert result.rows == [("Dan",)]

    def test_arithmetic_in_projection(self, people_db):
        result = people_db.execute(
            "SELECT age * 2 FROM person WHERE id = 1")
        assert result.scalar() == 68

    def test_like(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE city LIKE 'bris%'")
        assert sorted(r[0] for r in result.rows) == ["Alice", "Carol"]

    def test_between(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE age BETWEEN 28 AND 34 "
            "ORDER BY name")
        assert [r[0] for r in result.rows] == ["Alice", "Bob", "Eve"]

    def test_in_list(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN (1, 3)")
        assert sorted(r[0] for r in result.rows) == ["Alice", "Carol"]

    def test_not_in_with_null_semantics(self, people_db):
        # NULL in the probe column: the row never qualifies for NOT IN.
        result = people_db.execute(
            "SELECT name FROM person WHERE age NOT IN (28)")
        names = [r[0] for r in result.rows]
        assert "Dan" not in names
        assert "Bob" not in names and "Eve" not in names

    def test_case_expression(self, people_db):
        result = people_db.execute(
            "SELECT name, CASE WHEN age >= 40 THEN 'senior' "
            "WHEN age >= 30 THEN 'mid' ELSE 'junior' END FROM person "
            "WHERE age IS NOT NULL ORDER BY id")
        assert result.rows[0] == ("Alice", "mid")
        assert result.rows[2] == ("Carol", "senior")

    def test_unknown_column_raises(self, people_db):
        with pytest.raises(CatalogError):
            people_db.execute("SELECT missing FROM person")

    def test_ambiguous_column_raises(self, people_db):
        with pytest.raises(CatalogError):
            people_db.execute(
                "SELECT id FROM person p1, person p2")

    def test_select_without_from(self, people_db):
        assert people_db.execute("SELECT 2 + 3").scalar() == 5

    def test_division_by_zero(self, people_db):
        with pytest.raises(SqlError):
            people_db.execute("SELECT 1 / 0")


class TestOrderLimitDistinct:
    def test_order_by_desc(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE age IS NOT NULL ORDER BY age DESC")
        assert [r[0] for r in result.rows][:2] == ["Carol", "Alice"]

    def test_order_by_ordinal(self, people_db):
        result = people_db.execute(
            "SELECT name, age FROM person WHERE age IS NOT NULL ORDER BY 2")
        assert result.rows[0][1] == 28

    def test_order_by_alias(self, people_db):
        result = people_db.execute(
            "SELECT age * 2 AS doubled FROM person "
            "WHERE age IS NOT NULL ORDER BY doubled DESC")
        assert result.rows[0][0] == 90

    def test_nulls_sort_first_ascending(self, people_db):
        result = people_db.execute("SELECT age FROM person ORDER BY age")
        assert result.rows[0][0] is None

    def test_multi_key_order(self, people_db):
        result = people_db.execute(
            "SELECT name, age FROM person WHERE age IS NOT NULL "
            "ORDER BY age ASC, name DESC")
        assert [r[0] for r in result.rows][:2] == ["Eve", "Bob"]

    def test_limit_offset(self, people_db):
        result = people_db.execute(
            "SELECT id FROM person ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in result.rows] == [2, 3]

    def test_limit_with_param(self, people_db):
        result = people_db.execute(
            "SELECT id FROM person ORDER BY id LIMIT ?", [3])
        assert len(result.rows) == 3

    def test_distinct(self, people_db):
        result = people_db.execute("SELECT DISTINCT age FROM person")
        ages = [r[0] for r in result.rows]
        assert ages.count(28) == 1

    def test_order_by_keys_of_mixed_kinds_is_an_sql_error(self, people_db):
        # As `<` on text and a number: an SqlError, not Python's TypeError.
        for sql in ("SELECT id FROM person "
                    "ORDER BY CASE WHEN id = 1 THEN 'z' ELSE 5 END",
                    "SELECT name AS k FROM person UNION ALL "
                    "SELECT age FROM person ORDER BY 1"):
            with pytest.raises(SqlError, match="cannot compare int with str"):
                people_db.execute(sql)

    def test_negative_limit_rejected(self, people_db):
        with pytest.raises(SqlError):
            people_db.execute("SELECT id FROM person LIMIT ?", [-1])


class TestAggregates:
    def test_count_star(self, people_db):
        assert people_db.execute(
            "SELECT COUNT(*) FROM person").scalar() == 5

    def test_count_column_skips_nulls(self, people_db):
        assert people_db.execute(
            "SELECT COUNT(age) FROM person").scalar() == 4

    def test_count_distinct(self, people_db):
        assert people_db.execute(
            "SELECT COUNT(DISTINCT age) FROM person").scalar() == 3

    def test_sum_avg_min_max(self, people_db):
        row = people_db.execute(
            "SELECT SUM(age), AVG(age), MIN(age), MAX(age) "
            "FROM person").first()
        assert row == (135, 33.75, 28, 45)

    def test_aggregate_on_empty_input(self, people_db):
        row = people_db.execute(
            "SELECT COUNT(*), SUM(age), MAX(name) FROM person "
            "WHERE id > 100").first()
        assert row == (0, None, None)

    def test_group_by(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) FROM person WHERE city IS NOT NULL "
            "GROUP BY city ORDER BY city")
        assert result.rows == [("Brisbane", 2), ("Cairns", 1), ("Sydney", 1)]

    def test_group_by_alias(self, people_db):
        result = people_db.execute(
            "SELECT CASE WHEN age IS NULL THEN 'x' ELSE 'y' END AS bucket, "
            "COUNT(*) FROM person GROUP BY bucket ORDER BY bucket")
        assert result.rows == [("x", 1), ("y", 4)]

    def test_having(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) c FROM person GROUP BY city "
            "HAVING COUNT(*) > 1")
        assert result.rows == [("Brisbane", 2)]

    def test_order_by_aggregate(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) FROM person WHERE city IS NOT NULL "
            "GROUP BY city ORDER BY COUNT(*) DESC")
        assert result.rows[0][0] == "Brisbane"

    def test_aggregate_outside_group_context_raises(self, people_db):
        with pytest.raises(SqlError):
            people_db.execute("SELECT name FROM person WHERE SUM(age) > 1")


class TestJoins:
    def test_inner_join(self, people_db):
        result = people_db.execute(
            "SELECT p.name, o.amount FROM person p "
            "JOIN orders o ON p.id = o.person_id ORDER BY o.order_id")
        assert result.rows[0] == ("Alice", 120.5)
        assert len(result.rows) == 4

    def test_left_join_pads_nulls(self, people_db):
        result = people_db.execute(
            "SELECT p.name, o.order_id FROM person p "
            "LEFT JOIN orders o ON p.id = o.person_id "
            "WHERE o.order_id IS NULL ORDER BY p.name")
        assert [r[0] for r in result.rows] == ["Dan", "Eve"]

    def test_right_join(self, people_db):
        result = people_db.execute(
            "SELECT p.name, o.order_id FROM orders o "
            "RIGHT JOIN person p ON p.id = o.person_id "
            "WHERE o.order_id IS NULL ORDER BY p.name")
        assert [r[0] for r in result.rows] == ["Dan", "Eve"]

    def test_cross_join_cardinality(self, people_db):
        result = people_db.execute(
            "SELECT COUNT(*) FROM person, orders")
        assert result.scalar() == 20

    def test_join_using_merges_column(self, people_db):
        people_db.execute("CREATE TABLE extra (id INT, nickname VARCHAR(20))")
        people_db.execute("INSERT INTO extra VALUES (1, 'Al'), (2, 'Bobby')")
        result = people_db.execute(
            "SELECT id, name, nickname FROM person JOIN extra USING (id) "
            "ORDER BY id")
        assert result.rows == [(1, "Alice", "Al"), (2, "Bob", "Bobby")]

    def test_join_group_aggregate(self, people_db):
        result = people_db.execute(
            "SELECT p.name, SUM(o.amount) total FROM person p "
            "JOIN orders o ON p.id = o.person_id "
            "GROUP BY p.name ORDER BY total DESC")
        assert result.rows[0] == ("Carol", 430.0)
        assert result.rows[1] == ("Alice", 195.5)

    def test_self_join(self, people_db):
        result = people_db.execute(
            "SELECT COUNT(*) FROM person a JOIN person b ON a.age = b.age "
            "WHERE a.id < b.id")
        assert result.scalar() == 1  # Bob & Eve share age 28


class TestSubqueries:
    def test_in_subquery(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE id IN "
            "(SELECT person_id FROM orders WHERE amount > 100)")
        assert sorted(r[0] for r in result.rows) == ["Alice", "Carol"]

    def test_exists_correlated(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person p WHERE EXISTS "
            "(SELECT 1 FROM orders o WHERE o.person_id = p.id)")
        assert sorted(r[0] for r in result.rows) == ["Alice", "Bob", "Carol"]

    def test_not_exists(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person p WHERE NOT EXISTS "
            "(SELECT 1 FROM orders o WHERE o.person_id = p.id) "
            "ORDER BY name")
        assert [r[0] for r in result.rows] == ["Dan", "Eve"]

    def test_scalar_subquery_correlated(self, people_db):
        result = people_db.execute(
            "SELECT name, (SELECT COUNT(*) FROM orders o "
            "WHERE o.person_id = p.id) FROM person p ORDER BY id")
        assert result.rows[0] == ("Alice", 2)
        assert result.rows[3] == ("Dan", 0)

    def test_scalar_subquery_multiple_rows_raises(self, people_db):
        with pytest.raises(SqlError):
            people_db.execute(
                "SELECT (SELECT id FROM person) FROM person")

    def test_derived_table(self, people_db):
        result = people_db.execute(
            "SELECT big.name FROM "
            "(SELECT name, age FROM person WHERE age > 30) big "
            "ORDER BY big.age DESC")
        assert [r[0] for r in result.rows] == ["Carol", "Alice"]


class TestUnion:
    def test_union_dedupes(self, people_db):
        result = people_db.execute(
            "SELECT city FROM person WHERE city = 'Brisbane' "
            "UNION SELECT city FROM person WHERE city = 'Brisbane'")
        assert len(result.rows) == 1

    def test_union_all_keeps_duplicates(self, people_db):
        result = people_db.execute(
            "SELECT city FROM person WHERE city = 'Brisbane' "
            "UNION ALL SELECT city FROM person WHERE city = 'Brisbane'")
        assert len(result.rows) == 4

    def test_union_arity_mismatch(self, people_db):
        with pytest.raises(SqlError):
            people_db.execute(
                "SELECT id FROM person UNION SELECT id, name FROM person")

    def test_union_order_and_limit(self, people_db):
        result = people_db.execute(
            "SELECT id FROM person UNION SELECT order_id FROM orders "
            "ORDER BY 1 DESC LIMIT 3")
        assert [r[0] for r in result.rows] == [13, 12, 11]


class TestIndexUsage:
    def test_index_lookup_used(self):
        db = Database("indexed")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [[i, f"v{i}"] for i in range(100)])
        # Primary key probes return the right row.
        result = db.execute("SELECT v FROM t WHERE id = 42")
        assert result.scalar() == "v42"

    def test_secondary_index_consistency(self):
        db = Database("indexed2")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [[i, i % 5] for i in range(50)])
        db.execute("CREATE INDEX idx_grp ON t (grp)")
        via_index = db.execute("SELECT COUNT(*) FROM t WHERE grp = 3")
        assert via_index.scalar() == 10
        # after deletes, the index stays consistent
        db.execute("DELETE FROM t WHERE id < 25")
        assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 3").scalar() == 5

    def test_index_with_param_probe(self):
        db = Database("indexed3")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [[i, i * i] for i in range(20)])
        assert db.execute("SELECT v FROM t WHERE id = ?", [7]).scalar() == 49


class TestNegatedPredicates:
    def test_not_like(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE name NOT LIKE 'A%' "
            "ORDER BY name")
        assert [r[0] for r in result.rows] == ["Bob", "Carol", "Dan", "Eve"]

    def test_not_between(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE age NOT BETWEEN 28 AND 34")
        assert [r[0] for r in result.rows] == ["Carol"]

    def test_not_like_null_operand_excluded(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE city NOT LIKE 'Z%'")
        assert "Eve" not in [r[0] for r in result.rows]  # NULL city

    def test_logical_not_wraps_predicate(self, people_db):
        result = people_db.execute(
            "SELECT name FROM person WHERE NOT (age > 30) ORDER BY name")
        assert [r[0] for r in result.rows] == ["Bob", "Eve"]

    def test_concat_with_null_is_null(self, people_db):
        result = people_db.execute(
            "SELECT name || city FROM person WHERE id = 5")
        assert result.scalar() is None


class TestLogicOverNonTruths:
    """A value that is neither a truth nor NULL is never TRUE (the rule
    in docs/engines.md); sqlite3, which reads a non-zero number as true,
    answers 1, 1, 1 and 0 to the first four."""

    @pytest.mark.parametrize("sql, answer", [
        ("SELECT 1 AND TRUE", False),
        ("SELECT 2 OR FALSE", False),
        ("SELECT 0.5 AND 1", False),
        ("SELECT NOT 5", True),
        ("SELECT NOT 0", True),
        ("SELECT 1 AND NULL", None),
        ("SELECT 2 OR NULL", None),
        ("SELECT 1 AND FALSE", False),
        ("SELECT 2 OR TRUE", True),
    ])
    def test_value(self, sql, answer):
        assert Database("logic").execute(sql).scalar() is answer

    def test_filter(self, people_db):
        def names(where):
            return [row[0] for row in people_db.execute(
                f"SELECT name FROM person WHERE {where} ORDER BY name").rows]
        assert names("age") == []
        assert names("age OR FALSE") == []
        assert names("NOT age") == ["Alice", "Bob", "Carol", "Eve"]
