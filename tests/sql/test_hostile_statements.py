"""Texts that used to escape the engine as Python errors.

A numeral ``str.isdigit`` accepts but ``int`` does not (``²``) was lexed
as a number and failed in ``int()``; long AND / OR / ``+`` chains and
long CASEs generated Python nested too deeply to compile, and deeply
nested parentheses overflowed the parser's recursion.  Each is now an
answer (matching sqlite3) or a ``SqlSyntaxError``.
"""

import sqlite3

import pytest

from repro.apps.healthcare import topology as topo
from repro.errors import SqlError, SqlSyntaxError, SqlTypeError
from repro.sql.engine import Database
from repro.sql.lexer import tokenize
from repro.sql.parser import MAX_DEPTH

ROWS = [(x, x % 7) for x in range(30)] + [(None, 1), (4, None)]


@pytest.fixture(scope="module")
def engines():
    db = Database("deep")
    lite = sqlite3.connect(":memory:")
    for run in (db.execute, lite.execute):
        run("CREATE TABLE t (x INT, y INT)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [list(row) for row in ROWS])
    lite.executemany("INSERT INTO t VALUES (?, ?)", ROWS)
    return db, lite


def truth(value):
    """sqlite3 spells TRUE and FALSE 1 and 0."""
    return value if value is None else bool(value)


class TestSuperscriptDigits:
    @pytest.mark.parametrize("text", ["SELECT ²", "SELECT 1.²", "SELECT ½"])
    def test_a_numeral_int_refuses_is_a_syntax_error(self, text):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize(text)
        with pytest.raises(SqlSyntaxError):
            Database("d").execute(text)

    def test_an_exponent_of_superscripts_is_a_name(self):
        assert [(t.type.name, t.value) for t in tokenize("1e²")][:2] \
            == [("INTEGER", 1), ("IDENTIFIER", "e²")]
        result = Database("d").execute("SELECT 1e²")
        assert (result.columns, result.rows) == (["e²"], [(1,)])

    def test_digits_int_accepts_are_numbers(self):
        assert Database("d").execute("SELECT ٣ + ٤٠").scalar() == 43

    def test_the_federation_answers_a_syntax_error(self, healthcare):
        browser = healthcare.browser(topo.AMBULANCE)
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            browser.fetch(topo.RBH, "SELECT ²")


class TestLongIntegerLiterals:
    """Python converts at most 4,300 digits to an ``int``; a longer
    integer literal is a syntax error, directly and across the ORB (it
    escaped as a bare ``ValueError``, a ``RemoteSystemError`` through a
    wrapper).  A real literal of any length is a float."""

    TEXT = "SELECT " + "1" * 5000

    def test_an_integer_literal_past_the_digit_limit_is_a_syntax_error(self):
        with pytest.raises(SqlSyntaxError,
                           match="malformed number of 5000 digits") as caught:
            Database("x").execute(self.TEXT)
        assert (caught.value.line, caught.value.column) == (1, 8)
        with pytest.raises(SqlSyntaxError, match="malformed number"):
            tokenize(f"SELECT 1 FROM t WHERE x = {'9' * 4301}")
        assert Database("x").execute("SELECT " + "1" * 4300).scalar() \
            == int("1" * 4300)
        assert Database("x").execute(self.TEXT + ".5").scalar() \
            == float("inf")

    def test_it_crosses_a_remote_isi_as_a_syntax_error(self, healthcare):
        remote = healthcare.system.wrapper_client(topo.RBH)
        with pytest.raises(SqlSyntaxError, match="malformed number"):
            remote.execute_native(self.TEXT)
        with pytest.raises(SqlSyntaxError, match="malformed number"):
            healthcare.browser(topo.QUT).fetch(topo.RBH, self.TEXT)


class TestScalarArgumentsOfTheWrongKind:
    """A scalar function given an argument it cannot take raised the
    Python error behind it (``TypeError``, ``ValueError``,
    ``AttributeError``, ``OverflowError``), which crossed the ORB as an
    untyped ``RemoteSystemError``.  It is a ``SqlTypeError`` naming the
    function, whether the argument is a literal, a ``?`` or a column."""

    CALLS = [("ABS", ["'x'"]), ("SUBSTR", ["'abc'", "'x'"]),
             ("SUBSTRING", ["'abc'", "1", "'x'"]), ("ROUND", ["'x'"]),
             ("ROUND", ["1.5", "'x'"]), ("FLOOR", ["'x'"]),
             ("CEIL", ["'x'"]), ("MOD", ["'a'", "2"]), ("YEAR", ["'x'"]),
             ("MONTH", ["3"]), ("DATE", ["'x'"]), ("FLOOR", ["1e400"]),
             ("CEIL", ["-1e400"])]

    @pytest.mark.parametrize("name, arguments", CALLS,
                             ids=[f"{n}({', '.join(a)})" for n, a in CALLS])
    def test_a_literal_a_parameter_and_a_column_raise_sql_type_error(
            self, name, arguments):
        db = Database("kinds")
        db.execute("CREATE TABLE k (v TEXT)")
        db.execute("INSERT INTO k VALUES ('x')")
        literal_call = f"{name}({', '.join(arguments)})"
        with pytest.raises(SqlTypeError, match=rf"^{name}\("):
            db.execute(f"SELECT {literal_call}")
        values = [db.execute(f"SELECT {argument}").scalar()
                  for argument in arguments]
        marks = ", ".join("?" * len(values))
        with pytest.raises(SqlTypeError, match=rf"^{name}\("):
            db.execute(f"SELECT {name}({marks})", values)
        if arguments[-1] == "'x'":
            column_call = ", ".join(arguments[:-1] + ["v"])
            with pytest.raises(SqlTypeError, match=rf"^{name}\("):
                db.execute(f"SELECT {name}({column_call}) FROM k")

    def test_the_browser_receives_the_typed_error(self, healthcare):
        browser = healthcare.browser(topo.QUT)
        with pytest.raises(SqlTypeError, match=r"ABS\('x'\)"):
            browser.submit("Query 'Royal Brisbane Hospital' Native "
                           "'SELECT ABS(''x'')'")


class TestLongChains:
    @pytest.mark.parametrize("op, term", [("OR", "x = {}"),
                                          ("AND", "x <> {}")])
    def test_a_500_term_chain_in_where_matches_sqlite(self, engines, op, term):
        db, lite = engines
        chain = f" {op} ".join(term.format(3 * i) for i in range(500))
        sql = f"SELECT x, y FROM t WHERE {chain} ORDER BY x, y"
        assert db.execute(sql).rows == lite.execute(sql).fetchall()

    @pytest.mark.parametrize("op, term", [("OR", "x = {}"),
                                          ("AND", "x <> {}"),
                                          ("AND", "(x = y OR x <> {})")])
    def test_a_500_term_chain_in_the_select_list_matches_sqlite(
            self, engines, op, term):
        db, lite = engines
        chain = f" {op} ".join(term.format(3 * i) for i in range(500))
        sql = f"SELECT x, y, {chain} FROM t ORDER BY x, y"
        assert db.execute(sql).rows == [
            (x, y, truth(value)) for x, y, value in lite.execute(sql)]

    def test_long_arithmetic_chains_and_cases_match_sqlite(self, engines):
        db, lite = engines
        for sql in ("SELECT " + " + ".join(["x"] * 199) + " - y FROM t",
                    "SELECT " + " * ".join(["1"] * 300) + " * x % 5 FROM t",
                    "SELECT CASE " + " ".join(
                        f"WHEN x = {i} THEN {i * 10}" for i in range(195))
                    + " ELSE y END FROM t"):
            assert sorted(db.execute(sql).rows, key=repr) \
                == sorted(lite.execute(sql).fetchall(), key=repr)

    def test_a_5000_term_chain_still_answers(self, engines):
        db, __ = engines
        chain = " AND ".join(f"x <> {i + 100}" for i in range(5000))
        assert len(db.execute(f"SELECT x FROM t WHERE {chain}").rows) == 31
        lines = db.execute(f"EXPLAIN SELECT x FROM t WHERE x = 1 OR {chain}")
        assert len(lines.rows) == 3


class TestNestingGuard:
    @pytest.mark.parametrize("sql", [
        "SELECT " + "(" * 1000 + "1" + ")" * 1000,
        "SELECT x FROM t WHERE " + "NOT " * 1000 + "x = 1",
        "SELECT " + "- " * 1000 + "1",
        "SELECT " + "ABS(" * 1000 + "1" + ")" * 1000,
        "SELECT * FROM " + "(" * 1000 + "t" + ")" * 1000,
        "EXPLAIN " * 1000 + "SELECT 1",
        "SELECT " + "(SELECT " * 1000 + "1" + ")" * 1000,
        "SELECT * FROM " + "(SELECT * FROM " * 1000 + "t" + ") s" * 1000,
    ], ids=["parentheses", "not", "minus", "calls", "from", "explain",
            "subqueries", "derived tables"])
    def test_deep_nesting_is_a_syntax_error(self, engines, sql):
        db, __ = engines
        with pytest.raises(SqlSyntaxError, match="nesting deeper than"):
            db.execute(sql)

    def test_nesting_up_to_the_guard_answers(self, engines):
        db, lite = engines
        depth = MAX_DEPTH - 2  # the SELECT and its item are two levels
        for sql in ("SELECT " + "(" * depth + "x" + ")" * depth + " FROM t",
                    "SELECT " + "ABS(" * depth + "x" + ")" * depth + " FROM t",
                    "SELECT " + "(x + " * depth + "y" + ")" * depth
                    + " FROM t"):
            assert sorted(db.execute(sql).rows, key=repr) \
                == sorted(lite.execute(sql).fetchall(), key=repr)

    def test_whatever_the_nesting_no_python_error_escapes(self, engines):
        db, __ = engines
        for depth in range(1, MAX_DEPTH + 2):
            for pre, post in (("CASE WHEN x + x + ", " LIKE 'a' THEN 1 END"),
                              ("NOT (x = y + ", ")"), ("(x BETWEEN ", " AND 2)")):
                try:
                    db.execute(f"SELECT {pre * depth}x{post * depth} FROM t")
                except SqlError:
                    pass
