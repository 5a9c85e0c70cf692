"""OQL string-query tests."""

import datetime

import pytest

from repro.errors import OqlError
from repro.oodb import Attribute, ObjectDatabase


@pytest.fixture()
def db():
    db = ObjectDatabase("q")
    db.define_class("Dept", [Attribute("name", "string")])
    db.define_class("Emp", [
        Attribute("name", "string"),
        Attribute("salary", "real"),
        Attribute("hired", "date"),
        Attribute("dept", "object", target="Dept"),
    ])
    it = db.create("Dept", name="IT")
    hr = db.create("Dept", name="HR")
    db.create("Emp", name="Alice", salary=90.0,
              hired=datetime.date(1995, 3, 1), dept=it)
    db.create("Emp", name="Bob", salary=60.0,
              hired=datetime.date(1997, 6, 1), dept=hr)
    db.create("Emp", name="Carol", salary=75.0,
              hired=datetime.date(1996, 1, 15), dept=it)
    db.create("Emp", name="Dan", salary=None, hired=None, dept=None)
    return db


class TestProjection:
    def test_star_projection_includes_meta(self, db):
        rows = db.query("SELECT * FROM Dept")
        assert {"name", "_oid", "_class"} <= set(rows[0])

    def test_named_projection(self, db):
        rows = db.query("SELECT name, salary FROM Emp WHERE name = 'Alice'")
        assert rows == [{"name": "Alice", "salary": 90.0}]

    def test_path_projection_derefs(self, db):
        rows = db.query("SELECT name, dept.name FROM Emp WHERE name = 'Bob'")
        assert rows[0]["dept.name"] == "HR"

    def test_null_reference_path_is_none(self, db):
        rows = db.query("SELECT dept.name FROM Emp WHERE name = 'Dan'")
        assert rows[0]["dept.name"] is None


class TestPredicates:
    def test_comparison(self, db):
        rows = db.query("SELECT name FROM Emp WHERE salary > 70")
        assert {r["name"] for r in rows} == {"Alice", "Carol"}

    def test_and_or(self, db):
        rows = db.query(
            "SELECT name FROM Emp WHERE salary > 70 AND dept.name = 'IT' "
            "OR name = 'Bob'")
        assert {r["name"] for r in rows} == {"Alice", "Carol", "Bob"}

    def test_not_and_parentheses(self, db):
        rows = db.query(
            "SELECT name FROM Emp WHERE NOT (salary < 70) AND salary >= 70")
        assert {r["name"] for r in rows} == {"Alice", "Carol"}

    def test_like(self, db):
        rows = db.query("SELECT name FROM Emp WHERE name LIKE 'C%'")
        assert rows == [{"name": "Carol"}]

    def test_is_null(self, db):
        rows = db.query("SELECT name FROM Emp WHERE salary IS NULL")
        assert rows == [{"name": "Dan"}]

    def test_is_not_null(self, db):
        rows = db.query("SELECT name FROM Emp WHERE salary IS NOT NULL")
        assert len(rows) == 3

    def test_date_comparison_with_string_literal(self, db):
        rows = db.query("SELECT name FROM Emp WHERE hired < '1996-06-01'")
        assert {r["name"] for r in rows} == {"Alice", "Carol"}

    def test_null_comparisons_are_false(self, db):
        rows = db.query("SELECT name FROM Emp WHERE salary > 0")
        assert "Dan" not in {r["name"] for r in rows}


class TestAliasAndOrder:
    def test_alias_paths(self, db):
        rows = db.query("SELECT e.name FROM Emp e WHERE e.salary > 80")
        assert rows == [{"e.name": "Alice"}]

    def test_order_by(self, db):
        rows = db.query("SELECT name FROM Emp WHERE salary IS NOT NULL "
                        "ORDER BY salary DESC")
        assert [r["name"] for r in rows] == ["Alice", "Carol", "Bob"]

    def test_order_nulls_first_ascending(self, db):
        rows = db.query("SELECT name FROM Emp ORDER BY salary")
        assert rows[0]["name"] == "Dan"


class TestErrors:
    def test_missing_from(self, db):
        with pytest.raises(OqlError):
            db.query("SELECT name WHERE x = 1")

    def test_bad_token(self, db):
        with pytest.raises(OqlError):
            db.query("SELECT name FROM Emp WHERE x ~ 1")

    def test_trailing_garbage(self, db):
        with pytest.raises(OqlError):
            db.query("SELECT name FROM Emp extra tokens ( (")

    def test_number_too_long_for_int(self, db):
        with pytest.raises(OqlError):
            db.query("SELECT name FROM Emp WHERE salary = " + "1" * 5000)

    def test_like_requires_string(self, db):
        with pytest.raises(OqlError):
            db.query("SELECT name FROM Emp WHERE name LIKE 5")

    def test_path_through_scalar_rejected(self, db):
        with pytest.raises(OqlError):
            db.query("SELECT name.inner FROM Emp WHERE salary > 0")


class TestCountStar:
    def test_count_all(self, db):
        assert db.query("SELECT COUNT(*) FROM Emp") == [{"count": 4}]

    def test_count_with_predicate(self, db):
        assert db.query("SELECT COUNT(*) FROM Emp WHERE salary > 70") == \
            [{"count": 2}]

    def test_count_includes_subclasses(self, db):
        db.define_class("Contractor", [], bases=["Emp"])
        db.create("Contractor", name="Zed", salary=10.0)
        assert db.query("SELECT COUNT(*) FROM Emp")[0]["count"] == 5

    def test_count_zero(self, db):
        assert db.query("SELECT COUNT(*) FROM Emp WHERE salary > 9999") == \
            [{"count": 0}]

    def test_count_is_not_a_reserved_word(self, db):
        # 'count' still works as an attribute path elsewhere
        rows = db.query("SELECT name FROM Emp WHERE name = 'Alice'")
        assert rows == [{"name": "Alice"}]
