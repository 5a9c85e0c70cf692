"""INSERT / UPDATE / DELETE semantics."""

import pytest

from repro.errors import IntegrityError
from repro.sql.engine import Database


class TestInsert:
    def test_insert_reports_rowcount(self, people_db):
        result = people_db.execute(
            "INSERT INTO person VALUES (6, 'Finn', 22, 'Darwin'), "
            "(7, 'Gia', 31, 'Perth')")
        assert result.rowcount == 2

    def test_insert_with_column_subset_fills_null(self, people_db):
        people_db.execute("INSERT INTO person (id, name) VALUES (8, 'Hana')")
        row = people_db.execute(
            "SELECT age, city FROM person WHERE id = 8").first()
        assert row == (None, None)

    def test_insert_duplicate_pk_rejected(self, people_db):
        with pytest.raises(IntegrityError):
            people_db.execute(
                "INSERT INTO person VALUES (1, 'Dup', 1, 'X')")

    def test_insert_not_null_violation(self, people_db):
        with pytest.raises(IntegrityError):
            people_db.execute(
                "INSERT INTO person (id, name) VALUES (9, NULL)")

    def test_insert_arity_mismatch(self, people_db):
        with pytest.raises(IntegrityError):
            people_db.execute("INSERT INTO person VALUES (10, 'x')")

    def test_insert_select(self, people_db):
        people_db.execute(
            "CREATE TABLE person_copy (id INT, name VARCHAR(40))")
        count = people_db.execute(
            "INSERT INTO person_copy SELECT id, name FROM person").rowcount
        assert count == 5
        assert people_db.row_count("person_copy") == 5

    def test_insert_expression_values(self, people_db):
        people_db.execute(
            "INSERT INTO person VALUES (5 + 6, UPPER('zed'), 10 * 3, NULL)")
        row = people_db.execute(
            "SELECT name, age FROM person WHERE id = 11").first()
        assert row == ("ZED", 30)

    def test_failed_multi_row_insert_is_undone(self, people_db):
        # A statement is atomic, as in sqlite3: the row written before
        # the clash is taken back.
        with pytest.raises(IntegrityError):
            people_db.execute(
                "INSERT INTO person VALUES (20, 'Ok', 1, 'A'), "
                "(1, 'Clash', 2, 'B')")
        assert people_db.execute(
            "SELECT COUNT(*) FROM person WHERE id = 20").scalar() == 0


class TestUpdate:
    def test_update_with_where(self, people_db):
        count = people_db.execute(
            "UPDATE person SET city = 'Gold Coast' WHERE id = 2").rowcount
        assert count == 1
        assert people_db.execute(
            "SELECT city FROM person WHERE id = 2").scalar() == "Gold Coast"

    def test_update_all_rows(self, people_db):
        count = people_db.execute("UPDATE person SET city = 'QLD'").rowcount
        assert count == 5

    def test_update_uses_old_row_values(self, people_db):
        people_db.execute(
            "UPDATE person SET age = age + 1 WHERE age IS NOT NULL")
        assert people_db.execute(
            "SELECT age FROM person WHERE id = 1").scalar() == 35

    def test_update_swap_columns(self, people_db):
        people_db.execute("CREATE TABLE pair (a INT, b INT)")
        people_db.execute("INSERT INTO pair VALUES (1, 2)")
        people_db.execute("UPDATE pair SET a = b, b = a")
        assert people_db.execute("SELECT a, b FROM pair").first() == (2, 1)

    def test_update_pk_conflict_rolls_back_row(self, people_db):
        with pytest.raises(IntegrityError):
            people_db.execute("UPDATE person SET id = 1 WHERE id = 2")
        # row 2 unchanged
        assert people_db.execute(
            "SELECT name FROM person WHERE id = 2").scalar() == "Bob"

    def test_update_type_coercion(self, people_db):
        people_db.execute("UPDATE person SET age = '40' WHERE id = 5")
        assert people_db.execute(
            "SELECT age FROM person WHERE id = 5").scalar() == 40


class TestDelete:
    def test_delete_with_where(self, people_db):
        assert people_db.execute(
            "DELETE FROM person WHERE age IS NULL").rowcount == 1
        assert people_db.row_count("person") == 4

    def test_delete_all(self, people_db):
        assert people_db.execute("DELETE FROM orders").rowcount == 4
        assert people_db.row_count("orders") == 0

    def test_delete_none_matching(self, people_db):
        assert people_db.execute(
            "DELETE FROM person WHERE id = 999").rowcount == 0

    def test_delete_then_reinsert_pk(self, people_db):
        people_db.execute("DELETE FROM person WHERE id = 1")
        people_db.execute("INSERT INTO person VALUES (1, 'New', 1, 'X')")
        assert people_db.execute(
            "SELECT name FROM person WHERE id = 1").scalar() == "New"


class TestParameters:
    def test_params_in_dml(self, people_db):
        people_db.execute("UPDATE person SET age = ? WHERE name = ?",
                          [50, "Alice"])
        assert people_db.execute(
            "SELECT age FROM person WHERE id = 1").scalar() == 50

    def test_executemany_rowcount(self, people_db):
        total = people_db.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            [[20, 4, 1.0, "1998-05-01"], [21, 5, 2.0, "1998-05-02"]])
        assert total == 2

    def test_missing_param_raises(self, people_db):
        from repro.errors import SqlError
        with pytest.raises(SqlError):
            people_db.execute("SELECT * FROM person WHERE id = ?")
