"""The index-probe join against the hash join it replaces and sqlite3.

Hypothesis draws an outer table ``o`` with NULL and duplicate keys of
every kind (INTEGER, REAL, BOOLEAN, TEXT, ISO-date text, DATE) and an
inner table twice: ``p`` with an INT primary key, a unique DATE column
and a unique TEXT column, which the planner probes, and ``q``, the same
rows with no unique index, which it hash-joins.  Every INNER and LEFT
join of each outer key onto each inner key, with and without a
pushed-down filter, must return the same rows in the same order from
both: a key of another kind than the column (ISO text against the DATE
column, a DATE against the TEXT one) takes SQL's ``=`` row by row.
Where sqlite3 compares the kinds as this engine does (numbers against
the INT key, text against text; dates are ISO text there) it must
return them too, in outer-row order.  A non-unique index, a composite
key and RIGHT and CROSS joins keep their plans.

Tier-1 runs hypothesis's default example count derandomised; CI's
``sql-differential`` job loads the ``ci`` profile of
``tests/conftest.py`` (ten times the examples, ``--hypothesis-seed``).
"""

import datetime
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql.engine import Database

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)

DATES = [datetime.date(1995, 1, 10 + day) for day in range(4)]
ISO = [day.isoformat() for day in DATES]
INNER_COLUMNS = ("(id INT {key}, d DATE {unique}, code VARCHAR(12) {unique}, "
                 "w INT, name VARCHAR(8))")


def nullable(strategy):
    return st.one_of(st.none(), strategy)


def unique_or_null(values):
    """*values* with each repeat after the first made NULL."""
    seen: set = set()
    return [None if value in seen else seen.add(value) or value
            for value in values]


@st.composite
def inner_rows(draw):
    ids = draw(st.lists(st.integers(-2, 6), unique=True, max_size=7))
    width = dict(min_size=len(ids), max_size=len(ids))
    dates = draw(st.lists(nullable(st.sampled_from(DATES)), **width))
    codes = draw(st.lists(nullable(st.sampled_from(ISO + ["1", "a"])),
                          **width))
    return [(key, day, code, draw(nullable(st.integers(0, 3))), f"n{key}")
            for key, day, code in zip(ids, unique_or_null(dates),
                                      unique_or_null(codes))]


outer_rows = st.lists(st.tuples(
    nullable(st.integers(-2, 6)),
    nullable(st.sampled_from([-1.0, 0.0, 2.0, 2.5, 3.0])),
    nullable(st.booleans()),
    nullable(st.sampled_from(["1", "2", "a", ""])),
    nullable(st.sampled_from(ISO + ["19950111", "a"])),
    nullable(st.sampled_from(DATES))),
    max_size=8).map(lambda rows: [(i + 1, *row) for i, row in enumerate(rows)])

OUTER_KEYS = ["k_int", "k_real", "k_bool", "k_text", "k_date", "k_day"]
INNER_KEYS = ["id", "d", "code"]
FILTERS = ["", " WHERE x.w > 1", " WHERE o.id > 2 AND x.name <> 'n3'"]
#: (inner key, outer key) pairs sqlite3 compares as this engine does;
#: ``k_date`` onto ``d`` only while no outer key is ``19950111``, a
#: date here and a string that spells none there.
SQLITE_PAIRS = {("id", "k_int"), ("id", "k_real"), ("code", "k_text"),
                ("code", "k_date"), ("d", "k_day"), ("d", "k_date")}


def build(outer, inner, db=None):
    """The three tables holding these rows: in a new database, or in
    *db* emptied (its plans stay cached: rows do not change a plan)."""
    if db is None:
        db = Database("probe")
        db.execute("CREATE TABLE o (id INT NOT NULL, k_int INT, k_real REAL, "
                   "k_bool BOOLEAN, k_text VARCHAR(12), k_date VARCHAR(12), "
                   "k_day DATE)")
        db.execute("CREATE TABLE p " + INNER_COLUMNS.format(
            key="PRIMARY KEY", unique="UNIQUE"))
        db.execute("CREATE TABLE q " + INNER_COLUMNS.format(key="",
                                                              unique=""))
    for table in "opq":
        db.execute(f"DELETE FROM {table}")
    db.load_rows("o", outer)
    db.load_rows("p", inner)
    db.load_rows("q", inner)
    return db


SHARED = build([], [])


def plan(db, sql):
    return [line for (line,) in db.execute(f"EXPLAIN {sql}").rows]


def iso(rows):
    return [tuple(value.isoformat() if isinstance(value, datetime.date)
                  else value for value in row) for row in rows]


def sqlite_db(outer, inner):
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE o (id INTEGER, k_int INTEGER, k_real REAL, "
                 "k_bool INTEGER, k_text TEXT, k_date TEXT, k_day TEXT)")
    lite.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, d TEXT UNIQUE, "
                 "code TEXT UNIQUE, w INTEGER, name TEXT)")
    lite.executemany("INSERT INTO o VALUES (?, ?, ?, ?, ?, ?, ?)", iso(outer))
    lite.executemany("INSERT INTO p VALUES (?, ?, ?, ?, ?)", iso(inner))
    return lite


@SETTINGS
@given(outer=outer_rows, inner=inner_rows(), flipped=st.booleans())
@example(outer=[(1, None, None, None, None, "1995-01-11", DATES[0]),
                (2, 2, 2.0, True, "2", "19950111", None),
                (3, 2, 2.5, False, "a", "1995-01-11", DATES[1])],
         inner=[(2, DATES[1], "1995-01-10", 2, "n2"),
                (1, DATES[0], "1995-01-11", None, "n1")],
         flipped=False)
@example(outer=[(1, 1, 1.0, True, "1", None, None),
                (2, 2, None, None, None, None, None)],
         inner=[(1, None, None, 0, "n1"), (2, None, "1", 3, "n2")],
         flipped=True)
def test_the_probe_join_answers_what_the_hash_join_answers(
        outer, inner, flipped):
    """Every outer key onto every inner key, INNER and LEFT, with each
    filter, over one drawn pair of tables."""
    db, lite = build(outer, inner, SHARED), sqlite_db(outer, inner)
    comparable = {pair for pair in SQLITE_PAIRS if pair != ("d", "k_date")
                  or all(row[5] != "19950111" for row in outer)}
    for key in OUTER_KEYS:
        for column in INNER_KEYS:
            equality = f"x.{column} = o.{key}" if flipped \
                else f"o.{key} = x.{column}"
            for kind in ("INNER", "LEFT"):
                for where in FILTERS:
                    sql = (f"SELECT o.id, x.id, x.d, x.name FROM o {kind} "
                           f"JOIN {{x}} x ON {equality}{where}")
                    check(db, sql, kind,
                          lite if (column, key) in comparable else None)


PLANS_SEEN: set = set()


def check(db, sql, kind, lite):
    probe, hashed = sql.format(x="p"), sql.format(x="q")
    if sql not in PLANS_SEEN:  # a plan does not depend on the rows
        PLANS_SEEN.add(sql)
        assert any(line.startswith(f"  IndexProbeJoin[{kind}]")
                   for line in plan(db, probe)), plan(db, probe)
        assert any(line.startswith(f"  HashJoin[{kind}]")
                   for line in plan(db, hashed)), plan(db, hashed)
    rows = db.execute(probe).rows
    assert rows == db.execute(hashed).rows, probe
    if lite is not None:
        assert iso(rows) == lite.execute(
            probe + " ORDER BY o.id").fetchall(), probe


@pytest.mark.parametrize("sql", [
    # a non-unique index on the key
    "SELECT o.id, q.id FROM o JOIN q ON o.k_int = q.id",
    # a composite key, though one part is unique
    "SELECT o.id, p.id FROM o JOIN p ON o.k_int = p.id AND o.id = p.w",
    # the unique key under an expression
    "SELECT o.id, p.id FROM o JOIN p ON o.k_int = p.id + 0",
])
def test_other_equi_joins_keep_the_hash_join(sql):
    db = build([], [])
    db.execute("CREATE INDEX ix ON q (id)")
    assert any(line.startswith("  HashJoin[INNER]") for line in plan(db, sql))


@pytest.mark.parametrize("kind", ["RIGHT", "CROSS"])
def test_right_and_cross_joins_keep_the_nested_loop(kind):
    db = build([(1, 1, None, None, None, None, None)],
               [(1, None, None, 0, "n1")])
    condition = "" if kind == "CROSS" else " ON o.k_int = p.id"
    sql = f"SELECT o.id, p.id FROM o {kind} JOIN p{condition}"
    assert plan(db, sql)[1].startswith(f"  NestedLoop[{kind}]")
    assert db.execute(sql).rows == [(1, 1)]


def test_explain_names_the_probe_and_its_pushed_filter():
    db = build([], [])
    assert plan(db, "SELECT o.id FROM o JOIN p ON o.k_int = p.id "
                    "WHERE p.w > 1 AND o.id > 2") == [
        "Select",
        "  IndexProbeJoin[INNER] on o.k_int = p.id",
        "    SeqScan(o)",
        "    Filter: o.id > 2",
        "    IndexProbe(p) key=(id)",
        "    Filter: p.w > 1"]
    assert plan(db, "SELECT o.id FROM o LEFT JOIN p ON p.d = o.k_date "
                    "WHERE p.w > 1")[1:] == [
        "  IndexProbeJoin[LEFT] on o.k_date = p.d",
        "    SeqScan(o)",
        "    IndexProbe(p) key=(d)",
        "  Filter: p.w > 1"]


def test_a_probe_sees_writes_and_a_cached_plan_sees_new_rows():
    db = build([(1, 5, None, None, None, None, None)], [])
    sql = "SELECT o.id, p.name FROM o LEFT JOIN p ON o.k_int = p.id"
    assert db.execute(sql).rows == [(1, None)]
    db.execute("INSERT INTO p VALUES (5, NULL, NULL, 1, 'five')")
    assert db.execute(sql).rows == [(1, "five")]
    db.execute("UPDATE p SET id = 6 WHERE id = 5")
    assert db.execute(sql).rows == [(1, None)]
