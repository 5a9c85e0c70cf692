"""Generated query pipelines (``repro.sql.codegen``).

* **No splicing.**  Hostile literals — quotes, newlines, ``__import__``,
  triple quotes, NUL — come back as data, and none of their text
  appears in any source handed to the compiled-code cache.
* **Compile by shape.**  Point selects that differ only in the key
  compile each generated function once.
* **Parity.**  Filters (as WHERE conjuncts and as selected values) and
  join keys return, over NULLs, NaN, dates against ISO text, INT
  against REAL and BOOLEAN against ``0``/``1``, the rows and the error
  messages of the full rules in ``repro.sql.expressions``, row by row —
  the rules the inline fast paths stand in front of.  The closure
  compiler the generated code replaced gives the same answers, but for
  a NaN join key, which its hash join paired with the same NaN object.
"""

import datetime

import pytest

from repro.errors import SqlError
from repro.sql import codegen
from repro.sql.engine import Database
from repro.sql.expressions import _compare, _member, like_match

#: The compiled-code cache itself (the ``sources`` spy wraps it).
FACTORY = codegen._factory
NAN = float("nan")
D = datetime.date(1998, 1, 10)
# (id, d DATE, s TEXT, i INT, f REAL, b BOOLEAN)
ROWS = [
    (1, D, "1998-01-10", 2, 2.0, True),
    (2, datetime.date(1997, 5, 1), "abc", 1, 1.5, False),
    (3, None, None, None, None, None),
    (4, D, "1998-01-11", 0, NAN, True),
    (5, datetime.date(1999, 12, 31), "A_c", 3, 2.5, None),
    (6, None, "1997-05-01", 2, 3.0, False),
]
COLUMNS = {"d": 1, "s": 2, "i": 3, "f": 4, "b": 5}
#: The join partner: the same values under other ids.
U_ROWS = [(7 + n,) + row[1:] for n, row in enumerate(reversed(ROWS))]


def table(db, name, rows=ROWS):
    db.execute(f"CREATE TABLE {name} (id INT PRIMARY KEY, d DATE, s TEXT, "
               "i INT, f REAL, b BOOLEAN)")
    db.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?, ?, ?)",
                   [list(row) for row in rows])


@pytest.fixture(scope="module")
def db():
    db = Database("codegen")
    table(db, "t")
    table(db, "u", U_ROWS)
    return db


# ------------------------------------------------------- the reference --

def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class P:
    """A predicate as SQL text and as the full rules over one row."""

    def __init__(self, sql, rule):
        self.sql, self.rule = sql, rule

    def __repr__(self):
        return self.sql


def cmp(column, op, constant, flipped=False):
    position = COLUMNS[column]
    if flipped:
        return P(f"{sql_literal(constant)} {op} {column}",
                 lambda row: _compare(op, constant, row[position]))
    return P(f"{column} {op} {sql_literal(constant)}",
             lambda row: _compare(op, row[position], constant))


def columns(a, op, b):
    return P(f"{a} {op} {b}", lambda row: _compare(
        op, row[COLUMNS[a]], row[COLUMNS[b]]))


def between(column, low, high, negated=False):
    def rule(row):
        above = _compare(">=", row[COLUMNS[column]], low)
        below = _compare("<=", row[COLUMNS[column]], high)
        if above is False or below is False:
            return negated
        return None if above is None or below is None else not negated
    return P(f"{column}{' NOT' if negated else ''} BETWEEN "
             f"{sql_literal(low)} AND {sql_literal(high)}", rule)


def in_list(column, items, negated=False):
    text = ", ".join(sql_literal(item) for item in items)
    return P(f"{column}{' NOT' if negated else ''} IN ({text})",
             lambda row: _member(row[COLUMNS[column]], items, negated))


def like(column, pattern, negated=False):
    def rule(row):
        result = like_match(row[COLUMNS[column]], pattern)
        return None if result is None else result != negated
    return P(f"{column}{' NOT' if negated else ''} LIKE "
             f"{sql_literal(pattern)}", rule)


def not_(p):
    def rule(row):
        value = p.rule(row)
        return None if value is None else value is not True
    return P(f"NOT ({p.sql})", rule)


def and_(p, q):
    def rule(row):
        a = p.rule(row)
        if a is False:
            return False
        b = q.rule(row)
        if b is False:
            return False
        return None if a is None or b is None else a is True and b is True
    return P(f"({p.sql}) AND ({q.sql})", rule)


def or_(p, q):
    def rule(row):
        a = p.rule(row)
        if a is True:
            return True
        b = q.rule(row)
        if b is True:
            return True
        return None if a is None or b is None else False
    return P(f"({p.sql}) OR ({q.sql})", rule)


ATOMS = [
    # DATE against ISO text, both ways round, and a column of ISO text.
    cmp("d", "=", "1998-01-10"), cmp("d", "<", "1998-01-10"),
    cmp("d", "<>", "1998-01-10", flipped=True), cmp("d", "=", "not a date"),
    columns("d", "=", "s"), columns("s", "<", "d"),
    cmp("s", "=", "1998-01-10"), cmp("s", "<", "b"),
    # INT against REAL.
    cmp("i", "=", 2.0), cmp("f", "=", 2), cmp("i", "<", 2.5),
    cmp("f", ">=", 2, flipped=True), columns("i", "=", "f"),
    # BOOLEAN against 0 / 1 and TRUE / FALSE.
    cmp("b", "=", 1), cmp("b", "<>", 0), cmp("b", "=", True),
    cmp("i", "=", True), columns("b", "=", "i"),
    # NULL on either side; NaN in the REAL column.
    cmp("i", "=", None), cmp("s", "<>", None, flipped=True),
    cmp("f", "<", 2), cmp("f", "<>", 1.5),
    # Mixed kinds: = is false, < raises.
    cmp("s", "=", 2), cmp("s", "<", 2), cmp("b", "<", 1),
    between("i", 1, 2), between("f", 1, 2.5, negated=True),
    between("d", "1998-01-01", "1998-12-31"), between("s", "a", 3),
    in_list("i", (2, 3)), in_list("b", (1, None), negated=True),
    in_list("d", ("1998-01-10",)), in_list("f", (2, 2.5), negated=True),
    like("s", "a%"), like("s", "a\\_c", negated=True), like("d", "1998%"),
    like("i", "2"),
]
PREDICATES = ATOMS + [not_(p) for p in ATOMS] + [
    and_(ATOMS[0], ATOMS[13]), and_(ATOMS[22], ATOMS[2]),
    or_(ATOMS[8], ATOMS[14]), or_(ATOMS[18], not_(ATOMS[21])),
    and_(ATOMS[25], ATOMS[19]), or_(ATOMS[19], ATOMS[26]),
    not_(or_(ATOMS[31], ATOMS[3])), and_(not_(ATOMS[33]), ATOMS[11])]


def expected(p, project):
    """Every row's value (*project*) or the ids that pass; or the
    message of the first SqlError, row by row as a scan meets them."""
    try:
        values = [(row[0], p.rule(row)) for row in ROWS]
    except SqlError as error:
        return "error", str(error)
    if project:
        return "rows", values
    return "rows", [(id_,) for id_, value in values if value is True]


def actual(db, sql):
    try:
        return "rows", db.execute(sql).rows
    except SqlError as error:
        return "error", str(error)


class TestParity:
    @pytest.mark.parametrize("p", PREDICATES, ids=repr)
    def test_where(self, db, p):
        assert actual(db, f"SELECT id FROM t WHERE {p.sql}") \
            == expected(p, project=False)

    @pytest.mark.parametrize("p", PREDICATES, ids=repr)
    def test_selected_value(self, db, p):
        assert actual(db, f"SELECT id, {p.sql} FROM t") \
            == expected(p, project=True)

    @pytest.mark.parametrize("p", PREDICATES, ids=repr)
    def test_case_arm(self, db, p):
        got = actual(db, f"SELECT id, CASE WHEN {p.sql} THEN 1 ELSE 0 END "
                         "FROM t")
        want = expected(p, project=True)
        if want[0] == "rows":
            want = "rows", [(id_, 1 if value is True else 0)
                            for id_, value in want[1]]
        assert got == want

    @pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
    @pytest.mark.parametrize("left, right", [
        ("d", "s"), ("s", "d"), ("i", "f"), ("f", "i"), ("b", "i"),
        ("i", "b"), ("d", "d"), ("s", "s"), ("f", "f")])
    def test_join_keys(self, db, kind, left, right):
        pairs = sorted(
            (t[0], u[0]) for t in ROWS for u in U_ROWS
            if _compare("=", t[COLUMNS[left]], u[COLUMNS[right]]) is True)
        if kind == "LEFT JOIN":
            matched = {t for t, __ in pairs}
            pairs = sorted(pairs + [(t[0], None) for t in ROWS
                                    if t[0] not in matched])
        got = db.execute(f"SELECT t.id, u.id FROM t {kind} u "
                         f"ON t.{left} = u.{right}").rows
        assert sorted(got, key=lambda pair: (pair[0], pair[1] or 0)) \
            == sorted(pairs, key=lambda pair: (pair[0], pair[1] or 0))
        if kind == "JOIN":
            where = db.execute(f"SELECT t.id, u.id FROM t, u "
                               f"WHERE t.{left} = u.{right}").rows
            assert sorted(where) == pairs

    def test_composite_join_keys(self, db):
        pairs = sorted((t[0], u[0]) for t in ROWS for u in U_ROWS if all(
            _compare("=", t[COLUMNS[c]], u[COLUMNS[c]]) is True
            for c in ("f", "b")))
        assert sorted(db.execute("SELECT t.id, u.id FROM t JOIN u "
                                 "ON t.f = u.f AND t.b = u.b").rows) == pairs


# ---------------------------------------------------------- no splicing --

HOSTILE = ["it's", "line one\nline two", "__import__('os').system('true')",
           '"""', "nul\x00byte", "'); import os; ('", "\\x00 \\n"]


@pytest.fixture()
def sources(monkeypatch):
    """Every source handed to the compiled-code cache, in order."""
    seen = []

    def spy(source):
        seen.append(source)
        return FACTORY(source)
    monkeypatch.setattr(codegen, "_factory", spy)
    return seen


class TestNoSplicing:
    def test_hostile_literals_are_data(self, sources):
        db = Database("hostile")
        # Column names that are also names in generated source.
        db.execute("CREATE TABLE h (id INT PRIMARY KEY, r TEXT, frame TEXT)")
        db.executemany("INSERT INTO h VALUES (?, ?, ?)",
                       [[i, text, text + "!"] for i, text in enumerate(HOSTILE)])
        for i, text in enumerate(HOSTILE):
            literal = sql_literal(text)
            assert db.execute(f"SELECT id FROM h WHERE r = {literal}").rows \
                == [(i,)]
            assert db.execute(
                f"SELECT {literal}, frame FROM h WHERE r IN ({literal}, 'x') "
                f"AND frame LIKE {sql_literal(text + '%')}").rows \
                == [(text, text + "!")]
            assert db.execute(
                f"SELECT CASE WHEN r <> {literal} THEN 0 ELSE {literal} END "
                "FROM h ORDER BY id").rows[i] == (text,)
            db.execute(f"UPDATE h SET frame = {literal} WHERE id = {i}")
        assert db.execute("SELECT COUNT(*) FROM h WHERE r = frame").scalar() \
            == len(HOSTILE)
        assert sources
        for source in sources:
            for text in HOSTILE + ["os", "import"]:
                assert text not in source


class TestShapeCache:
    def test_point_selects_compile_each_function_once(self, sources):
        db = Database("points")
        db.execute("CREATE TABLE p (id INT PRIMARY KEY, name TEXT, n INT)")
        db.executemany("INSERT INTO p VALUES (?, ?, ?)",
                       [[i, f"name {i}", i % 7] for i in range(1, 301)])
        FACTORY.cache_clear()
        compiled = db.plans_compiled
        per_text = []
        for key in range(1, 201):
            del sources[:]
            rows = db.execute(
                f"SELECT name, n FROM p WHERE id = {key}").rows
            assert rows == [(f"name {key}", key % 7)]
            per_text.append(list(sources))
        assert db.plans_compiled - compiled == 200
        functions = per_text[0]
        assert functions and all(seen == functions for seen in per_text)
        info = FACTORY.cache_info()
        assert info.currsize == info.misses == len(set(functions))
        assert len(set(functions)) == len(functions)
