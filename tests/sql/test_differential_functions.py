"""The scalar functions against stdlib ``sqlite3``.

Hypothesis draws one scalar function and arguments of kinds it takes
(text, integers, reals, NULL) and requires the same value from
``repro.sql`` and ``sqlite3``, with the arguments spelled as literals,
passed as ``?`` parameters and read from a table's columns (each a
different generated function).  ``SUBSTR`` counts as ``sqlite3`` counts
(negative starts and lengths, position 0), ``ROUND`` rounds halves away
from zero on the shortest decimal spelling, ``REPLACE`` with an empty
pattern replaces nothing, ``TRIM`` strips spaces only and ``MOD`` takes
the sign of its dividend.

Deliberate divergences, which the generator therefore never produces
(each pinned below or in ``test_hostile_statements.py``):

* an argument of the wrong kind (``ABS('x')``, ``SUBSTR('abc', 'x')``)
  is a ``SqlTypeError`` here, where ``sqlite3`` reads it as a number;
* ``UPPER`` / ``LOWER`` map every Unicode letter here and ASCII letters
  only in ``sqlite3``;
* ``MOD`` by zero is a ``SqlError`` here and NULL in ``sqlite3``;
* ``FLOOR`` / ``CEIL`` of a real and ``MOD`` of two integers answer an
  INTEGER here and a REAL of equal value in ``sqlite3``; ``FLOOR`` /
  ``CEIL`` of an infinite real is a ``SqlTypeError``.

``MOD`` / ``FLOOR`` / ``CEIL`` are drawn only when the ``sqlite3``
library was built with its math functions.

Tier-1 runs hypothesis's default example count derandomised; CI's
``sql-differential`` job loads the ``ci`` profile of
``tests/conftest.py`` (ten times the examples, ``--hypothesis-seed``).
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError, SqlTypeError
from repro.sql.engine import Database

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)


def _has_math_functions() -> bool:
    try:
        sqlite3.connect(":memory:").execute("SELECT mod(7, 2)")
    except sqlite3.OperationalError:
        return False
    return True


texts = st.sampled_from(["", "a", "abc", "aXbX", " a", "a ", "  a b  ",
                         "\ta ", "B", "Xx"])
small = st.integers(min_value=-6, max_value=7)
reals = st.integers(min_value=-4000, max_value=4000).map(lambda q: q / 1000)
numbers = st.one_of(small, reals)


def nullable(strategy):
    return st.one_of(st.none(), strategy)


#: Function name -> the strategy of its argument lists.
CALLS = {
    "UPPER": st.tuples(nullable(st.one_of(texts, numbers))),
    "LOWER": st.tuples(nullable(st.one_of(texts, numbers))),
    "LENGTH": st.tuples(nullable(st.one_of(texts, numbers))),
    "TRIM": st.tuples(nullable(texts)),
    "SUBSTR": st.one_of(st.tuples(nullable(texts), nullable(small)),
                        st.tuples(nullable(texts), nullable(small),
                                  nullable(small))),
    "REPLACE": st.tuples(nullable(texts), nullable(texts), nullable(texts)),
    "INSTR": st.tuples(nullable(texts), nullable(texts)),
    "ABS": st.tuples(nullable(numbers)),
    "ROUND": st.one_of(st.tuples(nullable(numbers)),
                       st.tuples(nullable(numbers),
                                 nullable(st.integers(-2, 5)))),
    "COALESCE": st.lists(nullable(st.one_of(texts, small)), min_size=2,
                         max_size=3).map(tuple),
    "NULLIF": st.one_of(st.tuples(nullable(texts), nullable(texts)),
                        st.tuples(nullable(small), nullable(small))),
    "IFNULL": st.tuples(nullable(small), nullable(small)),
}
if _has_math_functions():
    CALLS.update({
        "MOD": st.tuples(nullable(numbers),
                         nullable(numbers.filter(lambda n: n != 0))),
        "FLOOR": st.tuples(nullable(numbers)),
        "CEIL": st.tuples(nullable(numbers)),
    })


#: Each argument's column is declared with its value's kind, so neither
#: engine converts it on the way in.
KINDS = {str: "TEXT", int: "INTEGER", float: "REAL", type(None): "TEXT"}


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return f"({value!r})"


def ours_and_theirs(name, arguments):
    """Each engine's answer for the literal, ``?`` and column forms."""
    db = Database("fn")
    lite = sqlite3.connect(":memory:")
    columns = [f"c{i}" for i in range(len(arguments))]
    create = "CREATE TABLE t ({})".format(", ".join(
        f"{column} {KINDS[type(value)]}"
        for column, value in zip(columns, arguments)))
    insert = f"INSERT INTO t VALUES ({', '.join('?' * len(arguments))})"
    db.execute(create)
    lite.execute(create)
    db.execute(insert, list(arguments))
    lite.execute(insert, arguments)
    forms = [(f"SELECT {name}({', '.join(map(literal, arguments))})", ()),
             (f"SELECT {name}({', '.join('?' * len(arguments))})",
              arguments),
             (f"SELECT {name}({', '.join(columns)}) FROM t", ())]
    ours = [db.execute(sql, list(params)).scalar() for sql, params in forms]
    theirs = [lite.execute(sql, params).fetchone()[0]
              for sql, params in forms]
    return ours, theirs


@pytest.mark.parametrize("name", sorted(CALLS))
@SETTINGS
@given(data=st.data())
def test_a_scalar_function_agrees_with_sqlite(name, data):
    arguments = data.draw(CALLS[name])
    ours, theirs = ours_and_theirs(name, arguments)
    assert ours == theirs, (name, arguments)


@pytest.mark.parametrize("sql, ours, theirs", [
    ("SELECT substr('abc', 1, -1)", "", ""),
    ("SELECT substr('abc', 0, 2)", "a", "a"),
    ("SELECT substr('abc', -1)", "c", "c"),
    ("SELECT round(2.5)", 3.0, 3.0),
    ("SELECT round(-2.5)", -3.0, -3.0),
    ("SELECT round(2.675, 2)", 2.68, 2.68),
    ("SELECT replace('abc', '', 'x')", "abc", "abc"),
    ("SELECT upper('é')", "É", "é"),
    ("SELECT lower('É')", "é", "É"),
])
def test_pinned_answers(sql, ours, theirs):
    assert Database("pin").execute(sql).scalar() == ours
    assert sqlite3.connect(":memory:").execute(sql).fetchone()[0] == theirs


def test_pinned_errors():
    db = Database("pin")
    with pytest.raises(SqlError, match="MOD by zero"):
        db.execute("SELECT MOD(1, 0)")
    with pytest.raises(SqlTypeError, match=r"^ABS\("):
        db.execute("SELECT ABS('x')")
    assert sqlite3.connect(":memory:").execute(
        "SELECT abs('x')").fetchone()[0] == 0.0
