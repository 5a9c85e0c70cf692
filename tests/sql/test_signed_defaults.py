"""A column's DEFAULT may be a signed number, as ``sqlite3`` reads it.

``CREATE TABLE`` and ``ALTER TABLE … ADD COLUMN`` take ``DEFAULT -1``,
``DEFAULT -2.5`` and ``DEFAULT +3``.  A sign with no number after it
is a syntax error in both engines; a sign before a string or NULL,
which ``sqlite3`` folds to a value, is one here.
"""

import sqlite3

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.engine import Database


def both(*statements):
    db = Database("defaults")
    lite = sqlite3.connect(":memory:", isolation_level=None)
    for statement in statements:
        db.execute(statement)
        lite.execute(statement)
    return db, lite


def test_create_table_takes_signed_defaults():
    db, lite = both(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT DEFAULT -1, "
        "b REAL DEFAULT -2.5, c INT DEFAULT +3, d INT NOT NULL DEFAULT - 4)",
        "INSERT INTO t (id) VALUES (1)")
    assert db.execute("SELECT * FROM t").rows \
        == lite.execute("SELECT * FROM t").fetchall() == [(1, -1, -2.5, 3, -4)]


def test_add_column_takes_a_signed_default_for_existing_and_new_rows():
    statements = ["CREATE TABLE t (id INT PRIMARY KEY)",
                  "INSERT INTO t VALUES (1), (2)",
                  "ALTER TABLE t ADD COLUMN v INT DEFAULT -1",
                  "ALTER TABLE t ADD COLUMN w REAL NOT NULL DEFAULT -0.5",
                  "INSERT INTO t (id) VALUES (3)"]
    db, lite = both(*statements)
    assert db.execute("SELECT * FROM t").rows \
        == lite.execute("SELECT * FROM t").fetchall() \
        == [(1, -1, -0.5), (2, -1, -0.5), (3, -1, -0.5)]


@pytest.mark.parametrize("default", ["-", "+ +1", "-)"])
def test_a_sign_without_a_number_is_refused(default):
    statement = f"CREATE TABLE t (id INT, v INT DEFAULT {default})"
    with pytest.raises(sqlite3.OperationalError):
        sqlite3.connect(":memory:").execute(statement)
    with pytest.raises(SqlSyntaxError):
        Database("defaults").execute(statement)


@pytest.mark.parametrize("default", ["-'x'", "-NULL", "-id"])
def test_a_sign_before_anything_but_a_number_is_refused(default):
    with pytest.raises(SqlSyntaxError, match="expected a number"):
        Database("defaults").execute(
            f"CREATE TABLE t (id INT, v INT DEFAULT {default})")
