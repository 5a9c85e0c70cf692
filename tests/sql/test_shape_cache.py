"""The statement cache keyed by shape (``Database._prepare``).

A text is cached under its *shape*: each number and string literal cut
out and replaced by the marker of its kind (int, real, text, ISO-date
text).  Texts of one shape share one parsed statement and one plan,
which reads the literals from its frame.  Literals the planner reads
stay part of the key; a missing ``?`` is never answered by a literal.
"""

import datetime
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlError, SqlSyntaxError
from repro.sql.engine import _STATEMENT_CACHE_SIZE, Database
from repro.sql.lexer import shape, tokenize
from repro.sql.tokens import TokenType

#: CI's ``--hypothesis-profile=ci`` draws ten times the examples, from
#: its seed; tier-1 draws the same ones on every run.
SCALE = 10 if settings.default is settings.get_profile("ci") else 1
ROWS = [(i, i % 5, i / 4, f"name {i % 7}", datetime.date(1998, 1, 1 + i % 28),
         i % 2 == 0) for i in range(1, 41)]


def load(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, r REAL, "
               "s VARCHAR(20), d DATE, b BOOLEAN)")
    db.execute("CREATE INDEX t_g ON t (g)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
                   [list(row) for row in ROWS])
    return db


@pytest.fixture()
def db():
    return load(Database("shapes"))


def fresh(sql, params=None):
    """What a database that has never seen a statement answers."""
    result = load(Database("fresh")).execute(sql, params)
    return result.columns, result.rows


def answer(db, sql, params=None):
    result = db.execute(sql, params)
    return result.columns, result.rows


class TestOneShapeOnePlan:
    def test_new_key_point_selects_add_one_entry_and_one_plan(self, db):
        entries, compiled = len(db._statement_cache), db.plans_compiled
        for key in range(1, 2001):
            rows = db.execute(f"SELECT s, g FROM t WHERE id = {key}").rows
            assert rows == ([(ROWS[key - 1][3], ROWS[key - 1][1])]
                            if key <= len(ROWS) else [])
        assert len(db._statement_cache) - entries == 1
        assert db.plans_compiled - compiled == 1

    def test_new_key_dml_plans_once_per_shape(self, db):
        compiled = db.plans_compiled
        for key in range(100, 400):
            db.execute(f"INSERT INTO t VALUES ({key}, {key % 5}, {key}.5, "
                       f"'n{key}', '1999-02-0{1 + key % 9}', TRUE)")
            db.execute(f"UPDATE t SET s = 'm{key}' WHERE id = {key}")
            assert db.execute(f"SELECT s, d FROM t WHERE id = {key}").rows \
                == [(f"m{key}", datetime.date(1999, 2, 1 + key % 9))]
            db.execute(f"DELETE FROM t WHERE id = {key}")
        assert db.plans_compiled - compiled == 4
        assert db.row_count("t") == len(ROWS)

    def test_whitespace_and_comments_are_part_of_the_shape(self, db):
        compiled = db.plans_compiled
        for sql in ("SELECT s FROM t WHERE id = 1",
                    "SELECT s FROM t WHERE id =  2",
                    "SELECT s FROM t WHERE id = 3 -- 4",
                    "SELECT s FROM t WHERE id = 5 /* 6 */"):
            db.execute(sql)
        assert db.plans_compiled - compiled == 4

    def test_the_cache_still_holds_at_most_its_size(self, db):
        for n in range(_STATEMENT_CACHE_SIZE + 50):
            db.execute(f"SELECT s FROM t WHERE id = 1 -- {'x' * (n % 7)} {n}")
        assert len(db._statement_cache) == _STATEMENT_CACHE_SIZE


class TestKindsMakeShapes:
    def test_each_kind_and_in_list_length_is_its_own_shape(self, db):
        templates = ["SELECT id FROM t WHERE g = {}",
                     "SELECT id FROM t WHERE r = {}",
                     "SELECT id FROM t WHERE s = {}",
                     "SELECT id FROM t WHERE d = {}",
                     "SELECT id FROM t WHERE g IN ({}, 1)",
                     "SELECT id FROM t WHERE g IN ({}, 1, 2)"]
        firsts = ["3", "0.75", "'name 3'", "'1998-01-05'", "3", "3"]
        compiled = db.plans_compiled
        for template, literal in zip(templates, firsts):
            assert answer(db, template.format(literal)) \
                == fresh(template.format(literal))
        assert db.plans_compiled - compiled == 6
        seconds = ["4", "1.25", "'name 4'", "'1998-01-06'", "4", "4"]
        for template, literal in zip(templates, seconds):
            assert answer(db, template.format(literal)) \
                == fresh(template.format(literal))
        assert db.plans_compiled - compiled == 6

    @pytest.mark.parametrize("first, second", [
        ("1", "1.0"), ("1", "'1'"), ("'x'", "'1998-01-05'"),
        ("'1998-01-05'", "'1998-1-5'"), ("1.5", "'1.5'")])
    def test_kinds_do_not_share_a_plan(self, db, first, second):
        sql = "SELECT id FROM t WHERE d = {} OR g = {} OR s = {}"
        compiled = db.plans_compiled
        for literal in (first, second):
            text = sql.format(literal, literal, literal)
            assert answer(db, text) == fresh(text)
        assert db.plans_compiled - compiled == 2

    def test_an_iso_date_text_probes_a_date_index_as_a_date(self, db):
        db.execute("CREATE INDEX t_d ON t (d)")
        for day in range(1, 29):
            sql = f"SELECT id FROM t WHERE d = '1998-01-{day:02d}'"
            assert answer(db, sql)[1] == [
                (row[0],) for row in ROWS if row[4].day == day]
        plan = [line for (line,) in db.execute(
            "EXPLAIN SELECT id FROM t WHERE d = '1998-01-09'").rows]
        assert "  IndexLookup(t) key=(d)" in plan


class TestPinnedLiterals:
    """Each literal the planner reads keeps its value in the key: the
    answer, column names included, is what a fresh database gives."""

    @pytest.mark.parametrize("template, values", [
        ("SELECT {}, id FROM t WHERE id < 3", ["1", "2", "'a'", "2.5"]),
        ("SELECT g, id FROM t WHERE id < 9 ORDER BY {}, 2", ["1", "2"]),
        ("SELECT g, COUNT(*) FROM t GROUP BY {}, g ORDER BY 1", ["1", "2"]),
        ("SELECT CAST(r AS DECIMAL({}, 2)) FROM t WHERE id = 4", ["8", "9"]),
        ("SELECT id FROM t WHERE b = {} ORDER BY id", ["TRUE", "FALSE"]),
        ("SELECT id FROM t WHERE s IS {} ORDER BY id", ["NULL", "NOT NULL"]),
        ("SELECT id FROM t WHERE id IN (SELECT {} FROM t) ORDER BY id",
         ["1", "2"]),
    ])
    def test_one_plan_per_value(self, db, template, values):
        compiled = db.plans_compiled
        for __ in range(2):
            for value in values:
                sql = template.format(value)
                assert answer(db, sql) == fresh(sql)
        assert db.plans_compiled - compiled == len(values)

    def test_an_aliased_literal_is_a_slot(self, db):
        compiled = db.plans_compiled
        for value in range(5):
            assert answer(db, f"SELECT {value} AS v FROM t WHERE id = 1") \
                == (["v"], [(value,)])
        assert db.plans_compiled - compiled == 1

    def test_ddl_keeps_every_literal(self, db):
        db.execute("ALTER TABLE t ADD COLUMN c1 VARCHAR(5) DEFAULT 'x'")
        db.execute("ALTER TABLE t ADD COLUMN c2 VARCHAR(6) DEFAULT 'y'")
        db.execute("CREATE TABLE u (a INT DEFAULT 5, b INT DEFAULT 6)")
        db.execute("CREATE TABLE v (a INT DEFAULT 7, b INT DEFAULT 8)")
        db.execute("CREATE VIEW w1 AS SELECT id FROM t WHERE g = 1")
        db.execute("CREATE VIEW w2 AS SELECT id FROM t WHERE g = 2")
        assert db.execute("SELECT c1, c2 FROM t WHERE id = 1").rows \
            == [("x", "y")]
        db.execute("INSERT INTO u (a) VALUES (1)")
        db.execute("INSERT INTO v (a) VALUES (1)")
        assert db.execute("SELECT b FROM u").rows == [(6,)]
        assert db.execute("SELECT b FROM v").rows == [(8,)]
        assert db.execute("SELECT COUNT(*) FROM w1").scalar() \
            == sum(row[1] == 1 for row in ROWS)
        assert db.execute("SELECT COUNT(*) FROM w2").scalar() \
            == sum(row[1] == 2 for row in ROWS)

    def test_explain_shows_its_own_literals(self, db):
        for key in (3, 17):
            lines = [line for (line,) in db.execute(
                f"EXPLAIN SELECT s FROM t WHERE g = 1 AND r > {key}").rows]
            assert f"  Filter: r > {key}" in lines


class TestParameters:
    def test_a_literal_never_stands_in_for_a_missing_parameter(self, db):
        sql = "SELECT id, 'p' AS tag FROM t WHERE g = 2 AND id = ? AND r > 0.5"
        assert db.execute(sql, [7]).rows == [(7, "p")]
        for params in (None, []):
            with pytest.raises(SqlError, match="missing value for parameter 1"):
                db.execute(sql, params)
        two = "SELECT ? + 1, id FROM t WHERE id = 10 AND g = ?"
        assert db.execute(two, [1, 0]).rows == [(2, 10)]
        with pytest.raises(SqlError, match="missing value for parameter 2"):
            db.execute("SELECT ? + 1, id FROM t WHERE id = 11 AND g = ?", [1])

    def test_parameters_and_literals_mix_in_subqueries(self, db):
        sql = ("SELECT id FROM t o WHERE g = {} AND EXISTS (SELECT 1 FROM t i "
               "WHERE i.id = o.id AND i.r > ? AND i.s <> {}) ORDER BY id")
        compiled = db.plans_compiled
        for g in range(5):
            text = sql.format(g, f"'name {g}'")
            assert answer(db, text, [1.0]) == fresh(text, [1.0])
        assert db.plans_compiled - compiled == 1


# ---------------------------------------------------------- properties --

_INT = st.integers(-50, 60).map(str)
_REAL = st.floats(-5, 15, allow_nan=False).map(lambda x: repr(abs(x)))
_TEXT = st.sampled_from(["name 1", "name 3", "it's", "", "1998-01-05",
                         "1998-01-31", "x%"]).map(
    lambda s: "'" + s.replace("'", "''") + "'")
_DATE = st.dates(datetime.date(1997, 12, 25), datetime.date(1998, 2, 3)).map(
    lambda day: f"'{day.isoformat()}'")
#: Statement shapes with their literal strategies.
_SHAPES = [
    ("SELECT id, s FROM t WHERE g = {} AND r < {} ORDER BY id", (_INT, _REAL)),
    ("SELECT id FROM t WHERE s = {} OR id = {} ORDER BY id", (_TEXT, _INT)),
    ("SELECT id FROM t WHERE d = {} ORDER BY id", (_DATE,)),
    ("SELECT id FROM t WHERE d BETWEEN {} AND {} ORDER BY id", (_DATE, _DATE)),
    ("SELECT id FROM t WHERE g IN ({}, {}, {}) ORDER BY id", (_INT,) * 3),
    ("SELECT id FROM t WHERE id BETWEEN {} AND {} ORDER BY id", (_INT, _INT)),
    ("SELECT g, COUNT(*), SUM(r) FROM t WHERE id > {} GROUP BY g "
     "HAVING COUNT(*) > {} ORDER BY 1", (_INT, _INT)),
    ("SELECT s || {}, id * {} FROM t WHERE s LIKE {} ORDER BY id LIMIT {}",
     (_TEXT, _INT, _TEXT, st.integers(0, 5).map(str))),
]

_SHARED = load(Database("shared"))


@settings(max_examples=60 * SCALE, deadline=None,
          derandomize=SCALE == 1)
@given(st.sampled_from(range(len(_SHAPES))).flatmap(
    lambda n: st.tuples(st.just(n), st.tuples(*_SHAPES[n][1]))))
def test_one_shape_answers_what_a_fresh_database_answers(drawn):
    number, literals = drawn
    sql = _SHAPES[number][0].format(*literals)
    try:
        want = fresh(sql)
    except SqlError as error:
        with pytest.raises(SqlError) as excinfo:
            _SHARED.execute(sql)
        assert str(excinfo.value) == str(error)
        return
    assert answer(_SHARED, sql) == want


_PIECES = st.sampled_from([
    " ", "\n", "\t", "a", "t1", "x", "é", "_", "1", "07", "2.5", ".5", "1.",
    "e", "E5", "'", "''", "'a'", "'1998-01-02'", '"', '"q1"', "[", "[b2]",
    "]", "-", "--", "/", "*", "/*", "*/", ".", ",", "(", ")", "=", "<>",
    "?", "@", "٣", "²", "+", ";", "SELECT", "\x00"])


@settings(max_examples=400 * SCALE, deadline=None,
          derandomize=SCALE == 1)
@given(st.lists(_PIECES, max_size=14).map("".join))
def test_the_shape_cuts_the_literals_the_lexer_reads(text):
    key, values = shape(text)
    try:
        tokens = tokenize(text)
    except SqlSyntaxError:
        return
    literals = [token.value for token in tokens if token.type in (
        TokenType.INTEGER, TokenType.REAL, TokenType.STRING)]
    if key is None:
        assert "\x00" in text
        return
    assert [(type(v), v) for v in values] == [(type(v), v) for v in literals]


@pytest.mark.parametrize("text", [
    "SELECT 'open", "SELECT \"open", "SELECT id FROM t WHERE @",
    "SELECT /* open", "SELECT ²", "SELECT 1 FROM t -- \x00\n"])
def test_a_text_that_does_not_lex_or_parse_is_not_cached(db, text):
    entries = len(db._statement_cache)
    try:
        db.execute(text)
    except SqlSyntaxError:
        pass
    assert len(db._statement_cache) == entries


def test_seeded_workload_texts_share_their_shapes(db):
    rng = random.Random(1999)
    compiled = db.plans_compiled
    for __ in range(300):
        key, g = rng.randint(1, 60), rng.randrange(5)
        db.execute(f"SELECT s, d FROM t WHERE id = {key}")
        db.execute(f"SELECT g, COUNT(*) FROM t WHERE id > {key} GROUP BY g")
        db.execute(f"SELECT * FROM t WHERE id BETWEEN {key} AND {key + 9}")
        db.execute(f"SELECT id FROM t WHERE s = 'name {g}' AND g = {g}")
    assert db.plans_compiled - compiled == 4
