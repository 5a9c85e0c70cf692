"""A base table's column view against the stored rows and ``sqlite3``.

A ``SELECT *`` (or ``SELECT t.*``) over one table, with no DISTINCT,
ORDER BY, LIMIT or OFFSET, answers a full scan or an index probe that
answers from the table's column view: one list per column of the
live rows in row-id order and each row id's position in them, built by
the first such read and dropped by every write.

Hypothesis draws scripts of INSERTs, UPDATEs (of a non-key column, of
the primary key, of a unique column — refused when the value is
taken — one row or a key range of them: a refused range UPDATE puts
back the rows it wrote), range DELETEs, ``load_rows`` batches, ``ALTER
TABLE ADD COLUMN`` with a signed DEFAULT and transactions rolled back
with writes inside.  After every
step (inside a transaction too) each read — a point key, a unique text
key, a closed range, an open range, a full scan and a key of the wrong
type (the row-by-row fallback), as ``SELECT *`` and as ``SELECT t.*``
— must equal the stored rows filtered and transposed, in scan order,
cell for cell and type for type, with the same column shapes (a
1-tuple per column for one row, ``()`` for none), and the same
multiset ``sqlite3`` returns.  The view itself must hold exactly what
a fresh build from the stored rows holds.

Tier-1 runs the property derandomised; CI's ``sql-differential`` job
loads the ``ci`` profile of ``tests/conftest.py`` (ten times the
examples, ``--hypothesis-seed``).
"""

import datetime
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, SqlError
from repro.sql.engine import Database

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None, max_examples=60)

SCHEMA = ("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(8) UNIQUE, "
          "score REAL, born DATE)")
SQLITE_SCHEMA = ("CREATE TABLE t (id INT PRIMARY KEY, name TEXT UNIQUE, "
                 "score REAL, born TEXT)")
INDEX = "CREATE INDEX t_born ON t (born)"

DAYS = [datetime.date(1999, 1, 1), datetime.date(1999, 1, 2),
        datetime.date(2000, 2, 29)]

ids = st.integers(min_value=0, max_value=9)
names = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"]))
scores = st.one_of(st.none(), st.integers(-8, 8).map(lambda q: q / 4))
borns = st.one_of(st.none(), st.sampled_from(DAYS))

#: Steps a transaction may hold; ALTER is kept out (a rolled-back ADD
#: COLUMN survives here and not in sqlite).
WRITES = st.one_of(
    st.tuples(st.just("insert"), ids, names, scores, borns),
    st.tuples(st.just("update"), ids, scores, borns),
    st.tuples(st.just("rekey"), ids, ids),
    st.tuples(st.just("rename"), ids, names),
    st.tuples(st.just("rename range"), ids, ids, names),
    st.tuples(st.just("delete"), ids, ids),
    st.tuples(st.just("load"), st.integers(1, 3), scores, borns),
)
STEPS = st.one_of(
    WRITES,
    st.tuples(st.just("alter"), st.integers(-3, 3)),
    st.tuples(st.just("rollback"), st.lists(WRITES, min_size=1, max_size=4)),
)

#: (WHERE clause, its parameters, the same test over a stored row as a
#: name -> cell dict).  The last is a text key against the DATE index:
#: the index cannot compare it, so every row is asked.
READS = [
    ("", (), lambda row: True),
    ("WHERE id = ?", (3,), lambda row: row["id"] == 3),
    ("WHERE name = ?", ("b",), lambda row: row["name"] == "b"),
    ("WHERE id BETWEEN ? AND ?", (2, 6), lambda row: 2 <= row["id"] <= 6),
    ("WHERE id > ?", (4,), lambda row: row["id"] > 4),
    ("WHERE born = ?", ("1999-01-02",),
     lambda row: row["born"] == datetime.date(1999, 1, 2)),
]


def _wire(value):
    """A cell as sqlite3 holds it."""
    return value.isoformat() if isinstance(value, datetime.date) else value


class Pair:
    """The engine and sqlite3, driven with the same statements."""

    def __init__(self):
        self.db = Database("view")
        self.lite = sqlite3.connect(":memory:", isolation_level=None)
        for statement in (SCHEMA, INDEX):
            self.db.execute(statement)
        for statement in (SQLITE_SCHEMA, INDEX):
            self.lite.execute(statement)
        self.table = self.db.table_for("t")
        self.extras = 0

    def both(self, sql, params=()):
        """Run *sql* on both; each refuses it or neither does."""
        refused = []
        try:
            self.db.execute(sql, list(params))
        except IntegrityError:
            refused.append("engine")
        try:
            self.lite.execute(sql, [_wire(value) for value in params])
        except sqlite3.IntegrityError:
            refused.append("sqlite")
        assert refused in ([], ["engine", "sqlite"]), (sql, params, refused)

    def step(self, step):
        kind = step[0]
        if kind == "insert":
            self.both("INSERT INTO t (id, name, score, born) "
                      "VALUES (?, ?, ?, ?)", step[1:])
        elif kind == "update":
            __, key, score, born = step
            self.both("UPDATE t SET score = ?, born = ? WHERE id = ?",
                      (score, born, key))
        elif kind == "rekey":
            self.both("UPDATE t SET id = ? WHERE id = ?", (step[2], step[1]))
        elif kind == "rename":
            self.both("UPDATE t SET name = ? WHERE id = ?",
                      (step[2], step[1]))
        elif kind == "rename range":
            __, low, high, name = step
            self.both("UPDATE t SET name = ? WHERE id BETWEEN ? AND ?",
                      (name, low, high))
        elif kind == "delete":
            self.both("DELETE FROM t WHERE id BETWEEN ? AND ?", step[1:])
        elif kind == "load":
            __, count, score, born = step
            first = max((row[0] for row in self.table.rows()), default=9) + 1
            rows = [[first + offset, None, score, born]
                    + [None] * self.extras for offset in range(count)]
            self.db.load_rows("t", rows)
            self.lite.executemany(
                f"INSERT INTO t VALUES ({', '.join('?' * len(rows[0]))})",
                [[_wire(value) for value in row] for row in rows])
        elif kind == "alter":
            self.extras += 1
            self.both(f"ALTER TABLE t ADD COLUMN extra{self.extras} INT "
                      f"DEFAULT {step[1]}")
        else:
            self.both("BEGIN")
            for write in step[1]:
                self.step(write)
                self.check()
            self.both("ROLLBACK")

    def check(self):
        names = [column.name for column in self.table.schema.columns]
        stored = [dict(zip(names, row)) for row in self.table.rows()]
        for where, params, test in READS:
            matching = [tuple(row.values()) for row in stored if test(row)]
            expected = list(zip(*matching)) if matching \
                else [()] * len(names)
            lite = Counter(self.lite.execute(
                f"SELECT * FROM t {where}",
                [_wire(value) for value in params]).fetchall())
            for star in ("*", "t.*"):
                result = self.db.execute(f"SELECT {star} FROM t {where}",
                                         list(params))
                assert result.columns == names
                assert result.rowcount == len(result) == len(matching)
                assert [tuple(column) for column in result.values] == \
                    result.values == expected, (star, where)
                assert [list(map(type, column)) for column in result.values] \
                    == [list(map(type, column)) for column in expected]
                assert Counter(tuple(map(_wire, row)) for row in result.rows) \
                    == lite, (star, where)
        self.check_view()

    def check_view(self):
        """The view, when there is one, is what a fresh build holds:
        the live rows' cells in row-id order, and no deleted row's."""
        view = self.table._columns
        if view is None:
            return
        row_ids = self.table.row_ids()
        assert view == ({row_id: at for at, row_id in enumerate(row_ids)},
                        [list(column) for column in zip(*self.table.rows())])


@SETTINGS
@given(steps=st.lists(STEPS, max_size=8))
def test_the_view_answers_what_the_stored_rows_answer(steps):
    pair = Pair()
    pair.check()
    for step in steps:
        pair.step(step)
        pair.check()


@pytest.fixture()
def db():
    db = Database("shapes")
    db.execute(SCHEMA)
    db.execute(INDEX)
    db.load_rows("t", [[1, "a", 0.5, DAYS[0]], [2, "b", None, DAYS[1]],
                       [3, None, 2.0, None]])
    return db


@pytest.mark.parametrize("where,plan", [
    ("", "SeqScan(t)"),
    ("WHERE id = 2", "IndexLookup(t) key=(id)"),
    ("WHERE name = 'b'", "IndexLookup(t) key=(name)"),
    ("WHERE id BETWEEN 2 AND 3", "IndexRange(t) key=(id)"),
    ("WHERE id > 1", "IndexRange(t) key=(id)"),
    ("WHERE born = '1999-01-02'", "IndexLookup(t) key=(born)"),
])
def test_each_read_is_the_access_path_it_stands_for(db, where, plan):
    """The property's reads are the paths the view serves: a scan, and
    probes of the primary key, a unique text column and a DATE index
    (a text key falls back to asking every row)."""
    explained = "\n".join(line for line, in db.execute(
        f"EXPLAIN SELECT * FROM t {where}").rows)
    assert plan in explained


def test_result_shapes_match_the_transpose(db):
    assert db.execute("SELECT * FROM t WHERE id = 2").values == \
        [(2,), ("b",), (None,), (DAYS[1],)]
    assert db.execute("SELECT * FROM t WHERE id = 9").values == [()] * 4
    assert db.execute("SELECT t.* FROM t WHERE id BETWEEN 2 AND 3").values \
        == [(2, 3), ("b", None), (None, 2.0), (DAYS[1], None)]


def test_only_a_whole_row_read_builds_the_view(db):
    table = db.table_for("t")
    db.execute("SELECT id, name FROM t WHERE id BETWEEN 1 AND 3")
    db.execute("SELECT * FROM t WHERE score > 0")  # a filter, not a probe
    db.execute("SELECT * FROM t ORDER BY id")
    db.execute("UPDATE t SET score = 1.0 WHERE id = 1")
    db.execute("DELETE FROM t WHERE id = 3")
    assert table._columns is None
    db.execute("SELECT * FROM t WHERE id = 1")
    assert table._columns is not None


def test_every_write_drops_the_view(db):
    table = db.table_for("t")
    for sql in ("INSERT INTO t (id) VALUES (4)",
                "UPDATE t SET score = 1.0 WHERE id = 1",
                "DELETE FROM t WHERE id = 4",
                "ALTER TABLE t ADD COLUMN extra INT"):
        db.execute("SELECT * FROM t")
        assert table._columns is not None
        db.execute(sql)
        assert table._columns is None, sql
    db.load_rows("t", [[5, None, None, None, None]])
    assert table._columns is None


def test_the_view_holds_live_rows_only(db):
    """Row ids are never reused, yet the view of a table written and
    read in turn for a long time is no larger than its live rows."""
    table = db.table_for("t")
    for key in range(10, 1010):
        db.execute("INSERT INTO t (id) VALUES (?)", [key])
        db.execute("SELECT * FROM t")
        db.execute("DELETE FROM t WHERE id = ?", [key])
        db.execute("SELECT * FROM t WHERE id BETWEEN 1 AND 3")
    at, columns = table._columns
    assert table.next_row_id == 1004
    assert at == {1: 0, 2: 1, 3: 2}
    assert [len(column) for column in columns] == [3] * 4


def test_a_refused_write_leaves_the_view_as_it_was(db):
    before = db.execute("SELECT * FROM t").values
    for sql in ("UPDATE t SET name = 'a' WHERE id = 2",
                "UPDATE t SET id = 1 WHERE id = 3",
                "INSERT INTO t VALUES (4, 'b', NULL, NULL)"):
        with pytest.raises(SqlError):
            db.execute(sql)
    assert db.execute("SELECT * FROM t").values == before
