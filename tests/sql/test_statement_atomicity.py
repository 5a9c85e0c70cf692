"""A statement refused mid-way leaves nothing behind, as in ``sqlite3``.

An INSERT of several rows, or an UPDATE of several, that a constraint
refuses at a later row must undo the rows it already wrote — the rows
themselves, every index over them and the table's column view — and
agree with ``sqlite3``, which undoes the whole statement.  Inside a
transaction only the refused statement is undone.
"""

import sqlite3

import pytest

from repro.errors import IntegrityError
from repro.sql.engine import Database

SCHEMA = ["CREATE TABLE u (id INT PRIMARY KEY, name VARCHAR(8) UNIQUE, "
          "n INT NOT NULL)",
          "CREATE INDEX u_n ON u (n)"]
ROWS = "INSERT INTO u VALUES (1, 'a', 10), (2, 'b', 20), (3, 'z', 30)"

#: Each is refused at its last row, after writing the ones before it.
REFUSED = [
    "UPDATE u SET name = 'w' WHERE id >= 2",
    "UPDATE u SET name = 'y' WHERE id BETWEEN 1 AND 3",
    "UPDATE u SET n = CASE WHEN id = 3 THEN NULL ELSE n + 1 END",
    "UPDATE u SET n = n + 5, name = CASE WHEN id = 3 THEN 'bx' ELSE "
    "name || 'x' END",
    "INSERT INTO u VALUES (4, 'c', 40), (5, 'd', 50), (1, 'e', 60)",
    "INSERT INTO u VALUES (4, 'c', 40), (5, 'c', 50)",
    "INSERT INTO u VALUES (4, 'c', 40), (5, 'd', NULL)",
    "INSERT INTO u SELECT id + 3, name || 'x', n FROM u WHERE id < 3 "
    "UNION ALL SELECT 9, 'a', 1",
]

#: Reads that answer from the primary key, the unique name index, the
#: ``n`` index, a range probe and the column view.
READS = ["SELECT * FROM u",
         "SELECT * FROM u WHERE id = 2",
         "SELECT * FROM u WHERE name = 'b'",
         "SELECT * FROM u WHERE name = 'z'",
         "SELECT * FROM u WHERE n = 20",
         "SELECT * FROM u WHERE id BETWEEN 2 AND 9",
         "SELECT id FROM u WHERE name = 'bx' OR name = 'c'"]


def pair():
    db = Database("atomic")
    lite = sqlite3.connect(":memory:", isolation_level=None)
    for statement in [*SCHEMA, ROWS]:
        db.execute(statement)
        lite.execute(statement.replace("VARCHAR(8)", "TEXT"))
    return db, lite


def agree(db, lite):
    for read in READS:
        assert sorted(db.execute(read).rows) \
            == sorted(lite.execute(read).fetchall()), read


@pytest.mark.parametrize("statement", REFUSED)
def test_a_refused_statement_undoes_its_earlier_rows(statement):
    db, lite = pair()
    db.execute("SELECT * FROM u")  # build the column view first
    with pytest.raises(sqlite3.IntegrityError):
        lite.execute(statement)
    with pytest.raises(IntegrityError):
        db.execute(statement)
    agree(db, lite)
    # The undone rows' keys are free again, the kept rows' still taken.
    for retry in ("INSERT INTO u VALUES (4, 'c', 40), (5, 'y', 50)",
                  "UPDATE u SET name = 'bb' WHERE id = 2"):
        db.execute(retry)
        lite.execute(retry)
    agree(db, lite)
    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO u VALUES (6, 'a', 1)")


def test_inside_a_transaction_only_the_refused_statement_is_undone():
    db, lite = pair()
    for statement in ("BEGIN", "INSERT INTO u VALUES (4, 'c', 40)"):
        db.execute(statement)
        lite.execute(statement)
    for statement in REFUSED[:2]:
        with pytest.raises(IntegrityError):
            db.execute(statement)
        with pytest.raises(sqlite3.IntegrityError):
            lite.execute(statement)
    agree(db, lite)
    for statement in ("COMMIT", "UPDATE u SET n = n + 1 WHERE id >= 2"):
        db.execute(statement)
        lite.execute(statement)
    agree(db, lite)


def test_a_statement_that_is_not_refused_writes_every_row():
    db, lite = pair()
    for statement in ("UPDATE u SET name = name || 'x' WHERE id >= 2",
                      "INSERT INTO u VALUES (4, 'c', 40), (5, 'd', 50)",
                      "DELETE FROM u WHERE id BETWEEN 1 AND 4"):
        db.execute(statement)
        lite.execute(statement)
        agree(db, lite)
