"""Differential and metamorphic oracles for the relational engine.

**Differential arm.**  Hypothesis draws a small data set over a fixed
schema (``a(id, n, r, s)`` and ``b(id, a_id, m, t)``: INT / REAL / TEXT
with NULLs, an optional secondary index) and a query from the subset of
SQL that ``repro.sql`` and stdlib ``sqlite3`` share, runs it through
both, and requires equal rows — as multisets, or as lists where the
``ORDER BY`` is total — and a name error on both sides or on neither.
The ``repro.sql`` side is created through each vendor dialect's own
type spellings, since dialects must not change what a query returns.

Deliberate divergences, which the generator therefore never produces:

* ``LIKE`` is case-insensitive on both sides and *is* generated;
* ``/`` on two integers is exact here (``7 / 2 = 3.5``) and truncating
  in sqlite, and ``%`` floors here but truncates there;
* mixed-type comparison: sqlite orders INTEGER < TEXT, this engine
  answers false for ``=`` and raises for ``<``; a bare non-boolean in
  ``WHERE`` is true in sqlite when non-zero and never true here;
* a scalar subquery with several rows raises here and takes the first
  row in sqlite (only aggregates are generated in that position);
* reals are multiples of 0.25, so sums do not depend on addition order.

**Metamorphic arm** (engine only).  The same rows and the same query,
with and without a secondary index on the filtered column — including
``DATE`` and ``BOOLEAN`` columns probed with ISO strings, ``0``/``1``
and ``TRUE``/``FALSE`` — must return equal multisets: an index probe
may never answer differently from the scan it replaces.  And a join
on ``t.x = u.y`` for every pair of column types (``BOOLEAN`` against
``INT``, ``DATE`` against ISO text, ``INT`` against ``REAL``, ...) must
pair the rows that ``FROM t, u WHERE t.x = u.y`` pairs: a hash join may
never answer differently from the ``=`` it replaces.

Tier-1 runs hypothesis's default example count derandomised; CI's
``sql-differential`` job loads the ``ci`` profile of
``tests/conftest.py`` (ten times the examples, ``--hypothesis-seed``).
"""

import datetime
import sqlite3
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError
from repro.sql.engine import Database

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)

NAME_ERROR = "name error"

# --------------------------------------------------------------- data --

ints = st.integers(min_value=-3, max_value=6)
reals = st.integers(min_value=-8, max_value=16).map(lambda q: q / 4)
texts = st.sampled_from(["a", "b", "ab", "ba", "B", "abc", "a_c", ""])


def nullable(strategy):
    return st.one_of(st.none(), strategy)


def keyed(*columns):
    """Rows ``(id, *columns)`` with ids 1..n."""
    return st.lists(st.tuples(*columns), max_size=7).map(
        lambda rows: [(i + 1, *row) for i, row in enumerate(rows)])


a_rows = keyed(nullable(ints), nullable(reals), nullable(texts))
b_rows = keyed(nullable(st.integers(min_value=0, max_value=8)),
               nullable(ints), nullable(texts))

#: (dialect, INT spelling, REAL spelling, TEXT spelling)
DIALECT_TYPES = [
    ("generic", "INT", "REAL", "TEXT"),
    ("oracle", "BINARY_INTEGER", "NUMBER", "VARCHAR2(20)"),
    ("msql", "UINT", "MONEY", "CHAR(20)"),
    ("db2", "INTEGER", "DOUBLE_PRECISION", "VARGRAPHIC(20)"),
    ("sybase", "TINYINT", "MONEY", "NTEXT"),
]
INDEXES = [None, "CREATE INDEX ix ON a (n)", "CREATE INDEX ix ON b (a_id)",
           "CREATE INDEX ix ON a (s)", "CREATE INDEX ix ON b (m)"]


def build_both(a, b, dialect_types, index):
    dialect, int_t, real_t, text_t = dialect_types
    db = Database("diff", dialect=dialect)
    lite = sqlite3.connect(":memory:")
    db.execute(f"CREATE TABLE a (id {int_t} PRIMARY KEY, n {int_t}, "
               f"r {real_t}, s {text_t})")
    db.execute(f"CREATE TABLE b (id {int_t} PRIMARY KEY, a_id {int_t}, "
               f"m {int_t}, t {text_t})")
    lite.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER, "
                 "r REAL, s TEXT)")
    lite.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, "
                 "m INTEGER, t TEXT)")
    if index is not None:
        db.execute(index)
        lite.execute(index)
    db.load_rows("a", a)
    db.load_rows("b", b)
    lite.executemany("INSERT INTO a VALUES (?, ?, ?, ?)", a)
    lite.executemany("INSERT INTO b VALUES (?, ?, ?, ?)", b)
    return db, lite


# ------------------------------------------------------------ queries --

def literal(value) -> str:
    """SQL text of a number, parenthesised so ``-(-1)`` never lexes as
    a ``--`` comment."""
    return f"({value!r})"


def numeric(columns):
    leaf = st.one_of(st.sampled_from(columns), ints.map(literal),
                     reals.map(literal))
    return st.one_of(
        leaf,
        st.builds(lambda l, op, r: f"({l} {op} {r})",
                  leaf, st.sampled_from("+-*"), leaf),
        leaf.map(lambda x: f"(-{x})"),
        st.sampled_from(columns).map(lambda c: f"COALESCE({c}, 0)"),
        st.sampled_from(columns).map(lambda c: f"ABS({c})"))


def textual(columns):
    quoted = texts.map(lambda t: f"'{t}'")
    column = st.sampled_from(columns)
    return st.one_of(column, quoted, column.map(lambda c: f"UPPER({c})"),
                     st.builds(lambda c, t: f"({c} || {t})", column, quoted))


COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
PATTERNS = ["a%", "%b", "_b", "%", "A%", "a_c", "%b%", ""]


def predicate(num_columns, text_columns):
    """A boolean expression over the given columns (never a mixed-type
    comparison, never a bare non-boolean)."""
    num, text = numeric(num_columns), textual(text_columns)
    any_column = st.sampled_from(num_columns + text_columns)
    text_column = st.sampled_from(text_columns)

    def compare(operand):
        return st.builds(lambda l, op, r: f"{l} {op} {r}", operand,
                         st.sampled_from(COMPARISONS), operand)

    def in_list(operand):
        return st.builds(
            lambda x, items, neg: f"{x} {neg}IN ({', '.join(items)})",
            operand, st.lists(st.one_of(operand, st.just("NULL")),
                              min_size=1, max_size=3),
            st.sampled_from(["", "NOT "]))

    atoms = st.one_of(
        compare(num), compare(text), in_list(num), in_list(text),
        st.builds(lambda x, lo, hi, neg: f"{x} {neg}BETWEEN {lo} AND {hi}",
                  num, num, num, st.sampled_from(["", "NOT "])),
        st.builds(lambda c, p, neg: f"{c} {neg}LIKE '{p}'", text_column,
                  st.sampled_from(PATTERNS), st.sampled_from(["", "NOT "])),
        st.builds(lambda c, neg: f"{c} IS {neg}NULL", any_column,
                  st.sampled_from(["", "NOT "])))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(lambda l, r: f"({l} AND {r})", inner, inner),
            st.builds(lambda l, r: f"({l} OR {r})", inner, inner),
            inner.map(lambda p: f"(NOT {p})")),
        max_leaves=4)


A_NUM, A_TEXT = ["id", "n", "r"], ["s"]
A_PRED = predicate(A_NUM, A_TEXT)
#: a's and b's own columns under a join: qualified, and bare where the
#: name is unique across the two tables.
JOIN_A = predicate(["a.id", "a.n", "n", "r"], ["a.s", "s"])
JOIN_B = predicate(["b.id", "b.m", "m", "a_id"], ["b.t", "t"])
JOIN_BOTH = predicate(["a.n", "b.m", "r", "a_id"], ["s", "t"])
B_PRED = predicate(["b.id", "b.m", "b.a_id"], ["b.t"])

where = st.one_of(st.just(""), A_PRED.map(lambda p: f" WHERE {p}"))


@st.composite
def plain_select(draw):
    items = draw(st.lists(st.one_of(numeric(A_NUM), textual(A_TEXT)),
                          min_size=1, max_size=3))
    distinct = draw(st.sampled_from(["", "DISTINCT "]))
    return f"SELECT {distinct}{', '.join(items)} FROM a{draw(where)}", False


@st.composite
def ordered_select(draw):
    # Never a bare literal: the parser drops the parentheses and
    # ``ORDER BY (1)`` would read as an ordinal here, a constant there.
    key = draw(st.one_of(numeric(A_NUM), textual(A_TEXT)).filter(
        lambda k: any(c.isalpha() for c in k)))
    direction = draw(st.sampled_from(["", " DESC", " ASC"]))
    limit = draw(st.sampled_from(["", " LIMIT 3", " LIMIT 2 OFFSET 1",
                                  " LIMIT 0"]))
    by = draw(st.sampled_from([key, "2"]))
    return (f"SELECT id, {key} FROM a{draw(where)} "
            f"ORDER BY {by}{direction}, id{limit}"), True


@st.composite
def join_select(draw):
    kind = draw(st.sampled_from(["INNER", "LEFT"]))
    conjuncts = draw(st.lists(st.one_of(JOIN_A, JOIN_B, JOIN_BOTH),
                              max_size=3))
    condition = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    sides = draw(st.sampled_from(
        ["a {kind} JOIN b ON a.id = b.a_id", "b {kind} JOIN a ON a.id = b.a_id",
         "a {kind} JOIN b ON a.id = b.a_id AND a.n = b.m",
         # INT against REAL keys: 2 joins 2.0 on both sides
         "a {kind} JOIN b ON a.r = b.m", "b {kind} JOIN a ON b.a_id = a.r",
         "a {kind} JOIN b ON a.r = b.m AND a.n = b.a_id"]))
    return (f"SELECT a.id, b.id, n, m, s, t FROM {sides.format(kind=kind)}"
            f"{condition}"), False


@st.composite
def grouped_select(draw):
    key = draw(st.sampled_from(["n", "s", "COALESCE(n, 0)", "(n + 1)", "r"]))
    having = draw(st.sampled_from(
        ["", " HAVING COUNT(*) > 1", " HAVING SUM(n) > 0",
         " HAVING MAX(r) IS NOT NULL AND MIN(id) < 4"]))
    grouping = draw(st.sampled_from([f" GROUP BY {key}", ""]))
    head = f"{key}, " if grouping else ""
    return (f"SELECT {head}COUNT(*), COUNT(n), SUM(n), AVG(r), MIN(s), "
            f"MAX(n), COUNT(DISTINCT s) FROM a{draw(where)}{grouping}"
            f"{having if grouping else ''}"), False


@st.composite
def subquery_select(draw):
    inner = draw(B_PRED)
    condition = draw(st.sampled_from([
        "EXISTS (SELECT 1 FROM b WHERE b.a_id = a.id AND {inner})",
        "NOT EXISTS (SELECT 1 FROM b WHERE b.a_id = a.id AND {inner})",
        "a.id IN (SELECT a_id FROM b WHERE {inner})",
        "a.n NOT IN (SELECT m FROM b WHERE {inner})",
        "a.n >= (SELECT COUNT(*) FROM b WHERE b.a_id = a.id AND {inner})",
        # two levels: the innermost block reads the outermost row
        "EXISTS (SELECT 1 FROM b WHERE b.a_id = a.id AND b.m >= "
        "(SELECT MIN(a2.n) FROM a a2 WHERE a2.id <= a.id AND {inner}))",
    ])).format(inner=inner)
    return ("SELECT a.id, (SELECT MAX(b.m) FROM b WHERE b.a_id = a.id) "
            f"FROM a WHERE {condition}"), False


#: Statements that must fail to *plan* on both sides whatever the data
#: (sqlite: "no such column" / "ambiguous column name" at prepare time).
BAD_NAMES = st.sampled_from([
    "SELECT zz FROM a",
    "SELECT id FROM a WHERE zz = 1",
    "SELECT id FROM a WHERE id = 1 OR zz = 1",
    "SELECT id FROM a WHERE id < 0 AND zz = 1",
    "SELECT id FROM a ORDER BY zz",
    "SELECT n FROM a GROUP BY n HAVING zz > 1",
    "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE zz = 1",
    "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE b.zz = 1 AND a.n = 1",
    "SELECT id FROM a JOIN b ON a.id = b.a_id",
    "SELECT a.id FROM a JOIN b ON a.id = b.a_id WHERE id = 1",
    "SELECT a.id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.a_id = zz)",
]).map(lambda sql: (sql, False))

queries = st.one_of(plain_select(), ordered_select(), join_select(),
                    grouped_select(), subquery_select(), BAD_NAMES)


def answer(run, name_error, sql, ordered):
    try:
        rows = [tuple(row) for row in run(sql)]
    except name_error:
        return NAME_ERROR
    return rows if ordered else Counter(rows)


@SETTINGS
@given(a=a_rows, b=b_rows, dialect_types=st.sampled_from(DIALECT_TYPES),
       index=st.sampled_from(INDEXES), query=queries)
def test_agrees_with_sqlite(a, b, dialect_types, index, query):
    sql, ordered = query
    db, lite = build_both(a, b, dialect_types, index)
    ours = answer(lambda q: db.execute(q).rows, CatalogError, sql, ordered)
    theirs = answer(lambda q: lite.execute(q).fetchall(),
                    sqlite3.OperationalError, sql, ordered)
    assert ours == theirs, sql


# --------------------------------------------------------- metamorphic --

dates = st.integers(min_value=0, max_value=5).map(
    lambda d: datetime.date(1995, 1, 10) + datetime.timedelta(days=d))
t_rows = keyed(nullable(dates), nullable(st.booleans()),
               nullable(st.integers(min_value=0, max_value=3)),
               nullable(st.sampled_from(["a", "1", "1995-01-11", "TRUE"])))

#: Probe values as SQL text: each is tried against every column, so a
#: key of the wrong type for the column is the common case.
PROBES = ["'1995-01-11'", "'1995-01-12'", "'1995-1-11'", "'a'", "'1'",
          "'TRUE'", "0", "1", "2", "1.0", "2.5", "TRUE", "FALSE", "NULL",
          "(0 + 1)", "?"]
PARAMS = [datetime.date(1995, 1, 11), True, 1, 1.0, "1995-01-11", "1", None]


@SETTINGS
@given(rows=t_rows, column=st.sampled_from(["d", "f", "n", "s", "id"]),
       probe=st.sampled_from(PROBES), param=st.sampled_from(PARAMS),
       flipped=st.booleans(),
       rest=st.sampled_from(["", " AND n >= 1", " AND id <> 2",
                             " OR s = 'a'"]))
def test_index_probe_equals_scan(rows, column, probe, param, flipped, rest):
    equality = f"{probe} = {column}" if flipped else f"{column} = {probe}"
    sql = f"SELECT * FROM t WHERE {equality}{rest}"
    params = [param] if probe == "?" else None
    answers = []
    for indexed in (False, True):
        db = Database("meta")
        # id is deliberately not a PRIMARY KEY: the scan arm must have
        # no index to fall into.
        db.execute("CREATE TABLE t (id INT NOT NULL, d DATE, f BOOLEAN, "
                   "n INT, s VARCHAR(12))")
        if indexed:
            db.execute(f"CREATE INDEX ix ON t ({column})")
        db.load_rows("t", rows)
        plan = [line for (line,) in db.execute(f"EXPLAIN {sql}", params).rows]
        assert any("IndexLookup" in line for line in plan) == \
            (indexed and " OR " not in rest), plan
        answers.append(Counter(db.execute(sql, params).rows))
    assert answers[0] == answers[1], sql


u_rows = keyed(nullable(dates), nullable(st.booleans()),
               nullable(st.integers(min_value=0, max_value=3)),
               nullable(st.sampled_from([0.0, 1.0, 1.5, 2.0])),
               # two spellings of one date: each equals the date, and
               # they do not equal each other
               nullable(st.sampled_from(["a", "1", "1995-01-11", "19950111",
                                         "TRUE"])))
ONE_T = (1, datetime.date(1995, 1, 11), True, 1, "1995-01-11")
ONE_U = (1, datetime.date(1995, 1, 11), True, 1, 1.0, "1995-01-11")
T_COLUMNS = ["d", "f", "n", "s"]
U_COLUMNS = ["d", "f", "n", "r", "s"]


@SETTINGS
@given(t=t_rows, u=u_rows, x=st.sampled_from(T_COLUMNS),
       y=st.sampled_from(U_COLUMNS), flipped=st.booleans(),
       second=st.sampled_from(["", " AND t.n = u.n", " AND u.s = t.s"]))
@example(t=[ONE_T], u=[ONE_U], x="f", y="n", flipped=False, second="")
@example(t=[ONE_T], u=[ONE_U], x="d", y="s", flipped=False, second="")
@example(t=[ONE_T], u=[ONE_U], x="s", y="d", flipped=True,
         second=" AND t.n = u.n")
@example(t=[ONE_T], u=[ONE_U, (2, None, None, 1, 1.0, "19950111")],
         x="s", y="s", flipped=False, second="")
def test_hash_join_equals_where(t, u, x, y, flipped, second):
    db = Database("meta")
    db.execute("CREATE TABLE t (id INT NOT NULL, d DATE, f BOOLEAN, "
               "n INT, s VARCHAR(12))")
    db.execute("CREATE TABLE u (id INT NOT NULL, d DATE, f BOOLEAN, "
               "n INT, r REAL, s VARCHAR(12))")
    db.load_rows("t", t)
    db.load_rows("u", u)
    equality = (f"u.{y} = t.{x}" if flipped else f"t.{x} = u.{y}") + second
    join = f"SELECT t.id, u.id FROM t {{kind}} JOIN u ON {equality}"
    plan = [line for (line,) in
            db.execute("EXPLAIN " + join.format(kind="INNER")).rows]
    assert any("HashJoin" in line for line in plan), plan
    paired = Counter(db.execute(
        f"SELECT t.id, u.id FROM t, u WHERE {equality}").rows)
    assert Counter(db.execute(join.format(kind="INNER")).rows) == paired, \
        equality
    matched = {t_id for t_id, __ in paired}
    unmatched = Counter((row[0], None) for row in t if row[0] not in matched)
    assert Counter(db.execute(join.format(kind="LEFT")).rows) \
        == paired + unmatched, equality
